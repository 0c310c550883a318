#include "src/scheduler/sharded_driver.h"

#include <algorithm>
#include <iterator>

namespace hawk {
namespace {

// Field-wise sum of two counter sets. Every RunCounters field is an additive
// event/time tally, so per-shard counters merge into the coordinator's by
// plain summation. Listed explicitly, so a new RunCounters field must be
// added here. No test can catch an omission (sharded runs only agree with
// each other, and an unmerged field reads 0 in all of them), hence the
// size check.
static_assert(sizeof(RunCounters) == 30 * sizeof(uint64_t),
              "RunCounters changed: add the new field to MergeCounters");
void MergeCounters(RunCounters& into, const RunCounters& from) {
  into.jobs += from.jobs;
  into.tasks_launched += from.tasks_launched;
  into.probes_placed += from.probes_placed;
  into.probe_requests += from.probe_requests;
  into.cancels += from.cancels;
  into.central_tasks_placed += from.central_tasks_placed;
  into.steal_attempts += from.steal_attempts;
  into.steal_victim_probes += from.steal_victim_probes;
  into.steal_successes += from.steal_successes;
  into.entries_stolen += from.entries_stolen;
  into.events += from.events;
  into.short_tasks_started += from.short_tasks_started;
  into.long_tasks_started += from.long_tasks_started;
  into.short_queue_wait_us += from.short_queue_wait_us;
  into.long_queue_wait_us += from.long_queue_wait_us;
  into.worker_crashes += from.worker_crashes;
  into.worker_departures += from.worker_departures;
  into.worker_rejoins += from.worker_rejoins;
  into.messages_dropped += from.messages_dropped;
  into.message_retries += from.message_retries;
  into.tasks_re_dispatched += from.tasks_re_dispatched;
  into.probes_lost += from.probes_lost;
  into.duplicate_completions += from.duplicate_completions;
  into.wasted_work_us += from.wasted_work_us;
  into.tasks_speculated += from.tasks_speculated;
  into.speculative_wins += from.speculative_wins;
  into.speculative_wasted_us += from.speculative_wasted_us;
  into.retries_suppressed += from.retries_suppressed;
  into.tasks_abandoned += from.tasks_abandoned;
  into.node_suspicions += from.node_suspicions;
}

// Light busy-wait hint for the spin loops (a no-op fallback elsewhere).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spin budget before parking on a condvar, in pauses (about 1.4 ms at the
// 21 ns per pause measured on a 4-vCPU Xeon VM). It must outlast the usual
// gap between pooled epochs: on a VM, waking a parked thread takes a futex
// call and an inter-processor interrupt, and under host load that costs far
// more than a phase. With a 2048-pause budget, `sharded-1m` parked ~50k
// times per call and ran at half speed whenever the host was busy. A pool
// that oversubscribes the machine does not spin at all (see Run).
constexpr int kSpinIters = 1 << 16;

}  // namespace

ShardedSimulationDriver::ShardedSimulationDriver(const Trace* trace, const HawkConfig& config,
                                                 uint32_t general_count,
                                                 SchedulerPolicy* policy)
    : DriverCore(trace, config, general_count, policy) {
  HAWK_CHECK_GE(config.sim_shards, 2u) << "sim_shards <= 1 runs the serial SimulationDriver";
  HAWK_CHECK_LE(config.sim_shards, config.num_workers);
  horizon_us_ = std::max<DurationUs>(1, config.net_delay_us);

  // Contiguous shard boundaries balanced by slot capacity: shard s starts at
  // the first worker whose slot range reaches share s/S of the cluster's
  // slots, clamped so every shard keeps at least one worker. A pure function
  // of the config, so identical across thread counts. Like the shard count,
  // the placement is non-semantic: the canonical (due, worker) commit order
  // is partition-independent, which shard_test pins across shard counts.
  const WorkerStore& store = cluster_.workers();
  const uint32_t num_shards = config.sim_shards;
  const uint64_t total_slots = store.TotalSlots();
  shard_begin_.reserve(num_shards);
  shard_begin_.push_back(0);
  for (uint32_t s = 1; s < num_shards; ++s) {
    const uint64_t target = total_slots * s / num_shards;
    WorkerId w = shard_begin_.back() + 1;
    while (w < config.num_workers && static_cast<uint64_t>(store.SlotBegin(w)) < target) {
      ++w;
    }
    shard_begin_.push_back(std::min(w, config.num_workers - (num_shards - s)));
  }
  cluster_.workers().ConfigureShards(shard_begin_);
  shards_ = std::vector<Shard>(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_[s].begin = shard_begin_[s];
    shards_[s].end = s + 1 < num_shards ? shard_begin_[s + 1] : config.num_workers;
  }
  if (stragglers_on_) {
    // Substream salt derived like the fault stream (re-rolled by fault_seed,
    // pinned by seed) but from a distinct constant, so straggler draws are
    // uncorrelated with loss/crash draws.
    straggler_salt_ =
        Rng(config.seed ^ 0x5851F42D4C957F2DULL ^ (config.fault_seed * 0x9E3779B97F4A7C15ULL))
            .Next();
    straggler_seq_.assign(config.num_workers, 0);
  }
}

ShardedSimulationDriver::~ShardedSimulationDriver() { StopPool(); }

uint32_t ShardedSimulationDriver::ShardOfWorker(WorkerId worker) const {
  const auto it = std::upper_bound(shard_begin_.begin(), shard_begin_.end(), worker);
  return static_cast<uint32_t>(it - shard_begin_.begin()) - 1;
}

// --- main loop ---------------------------------------------------------------

RunResult ShardedSimulationDriver::Run() {
  const std::vector<Job>& jobs = trace_->jobs();
  size_t next_job = 0;
  ArmTimers();
  // Phase pool. sim_threads is non-semantic: shard phases are pure functions
  // of the pre-phase state, so any thread count (including inline execution)
  // yields the same bits.
  const uint32_t hw = std::max<uint32_t>(1, std::thread::hardware_concurrency());
  const uint32_t want = config_.sim_threads == 0 ? hw : config_.sim_threads;
  const uint32_t pool = std::min(static_cast<uint32_t>(shards_.size()),
                                 std::max<uint32_t>(1, want));
  if (pool > 1) {
    // Spinning only pays when every waiter owns a core; once pool + the
    // coordinator oversubscribe the machine, a spinning thread is burning
    // exactly the core the awaited phase (or merge) needs, so park
    // immediately instead. Timing-only: determinism never depends on how a
    // waiter waits.
    spin_iters_ = pool + 1 <= hw ? kSpinIters : 0;
    threads_.reserve(pool);
    for (uint32_t i = 0; i < pool; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }
  // A phase goes to the pool only when it has a busy shard for every thread
  // that would take part, the coordinator included. With fewer, the hand-off
  // (waking parked threads, moving shard queues and worker lines to other
  // cores and back for the barrier) costs more than the overlap gains: on a
  // 1M-worker cluster most epochs hold a single event. Timing-only, like the
  // thread count.
  const size_t pool_min_busy =
      threads_.empty() ? shards_.size() + 1 : std::min(shards_.size(), threads_.size() + 1);

  while (true) {
    // Global next time: minimum over the arrival cursor, the coordinator
    // queue and every shard queue. The epoch window is [nt, nt + horizon).
    bool any = false;
    SimTime nt = 0;
    const auto consider = [&any, &nt](SimTime t) {
      if (!any || t < nt) {
        nt = t;
        any = true;
      }
    };
    if (next_job < jobs.size()) {
      consider(jobs[next_job].submit_time);
    }
    if (!pending_.Empty()) {
      consider(pending_.PeekTime());
    }
    for (const Shard& shard : shards_) {
      if (!shard.queue.Empty()) {
        consider(shard.queue.PeekTime());
      }
    }
    if (!any) {
      break;
    }
    const SimTime t_end = nt + horizon_us_;
    // Barrier: arrivals and coordinator items strictly inside the window, in
    // (time, push order) with arrivals winning ties — the serial driver's
    // cursor rule. The coordinator clock only moves forward: records from an
    // overlapping earlier window are processed at the clamped clock, so
    // policies never observe time running backwards.
    while (true) {
      const bool have_arrival = next_job < jobs.size() && jobs[next_job].submit_time < t_end;
      const bool have_item = !pending_.Empty() && pending_.PeekTime() < t_end;
      if (have_arrival &&
          (!have_item || jobs[next_job].submit_time <= pending_.PeekTime())) {
        const Job& job = jobs[next_job++];
        now_ = std::max(now_, job.submit_time);
        result_.counters.events++;
        ArriveJob(job);
        continue;
      }
      if (!have_item) {
        break;
      }
      const auto entry = pending_.Pop();
      now_ = std::max(now_, entry.at);
      result_.counters.events++;
      Commit(entry.payload);
    }
    // Epoch coalescing: when the window holds no shard-side event, an empty
    // phase would commit nothing — skip straight to the next horizon without
    // waking the pool. Checked after the barrier because barrier grants
    // (StartExecution) can push completions due inside this very window;
    // deliveries cannot (their due is >= now + net_delay >= window end).
    const auto busy_shards = static_cast<size_t>(
        std::count_if(shards_.begin(), shards_.end(), [t_end](const Shard& shard) {
          return !shard.queue.Empty() && shard.queue.PeekTime() < t_end;
        }));
    if (busy_shards == 0) {
      continue;
    }
    if (busy_shards >= pool_min_busy) {
      RunPhases(t_end);
      // The barrier replay needs exclusive ownership of worker and queue
      // state again, and the outboxes are only complete once every shard is
      // done.
      AwaitShardsDone();
    } else {
      // Empty shards only reset their outboxes.
      for (uint32_t s = 0; s < shards_.size(); ++s) {
        RunOneShard(s, t_end);
      }
    }
    MergeOutboxes();
  }
  StopPool();
  for (const Shard& shard : shards_) {
    MergeCounters(result_.counters, shard.counters);
  }
  return Finish();
}

// Canonical commit order: (due time, worker). Each worker lives in exactly
// one shard, so any (due, worker) tie is within one shard's outbox, where the
// phase's local stable sort preserves that worker's own (deterministic,
// shard-count independent) emission order. Merging sorted runs can therefore
// never face an inter-run tie: the merged order depends on neither thread
// interleaving nor shard count nor the order the runs were folded in.
bool ShardedSimulationDriver::RecordLess(const OutRecord& a, const OutRecord& b) {
  if (a.due != b.due) {
    return a.due < b.due;
  }
  return a.event.ev.worker < b.event.ev.worker;
}

void ShardedSimulationDriver::MergeRun(const std::vector<OutRecord>& run) {
  if (run.empty()) {
    return;
  }
  if (merge_acc_.empty()) {
    merge_acc_.assign(run.begin(), run.end());
    return;
  }
  merge_tmp_.clear();
  merge_tmp_.reserve(merge_acc_.size() + run.size());
  std::merge(merge_acc_.begin(), merge_acc_.end(), run.begin(), run.end(),
             std::back_inserter(merge_tmp_), RecordLess);
  merge_acc_.swap(merge_tmp_);
}

void ShardedSimulationDriver::MergeOutboxes() {
  // The merge result is order-independent (see RecordLess).
  merge_acc_.clear();
  for (const Shard& shard : shards_) {
    MergeRun(shard.outbox);
  }
  for (const OutRecord& rec : merge_acc_) {
    pending_.Push(rec.due, rec.event);
  }
}

// --- coordinator event processing --------------------------------------------

void ShardedSimulationDriver::Commit(const CoordEvent& event) {
  const SimEvent& ev = event.ev;
  switch (ev.type) {
    case SimEvent::Type::kWorkerIdle:
      // The steal opportunity of a phase-side idle transition commits here,
      // unless the worker's world changed since emission (a crash bumped the
      // incarnation, or it departed).
      if (ev.incarnation == Incarnation(ev.worker) && Down(ev.worker) == DownKind::kUp) {
        TryDispatch(ev.worker);
      }
      break;
    case SimEvent::Type::kTaskStart: {
      QueueEntry task = QueueEntry::Task(ev.job, ev.task_index, ev.arg, ev.is_long);
      task.enqueue_time = event.enqueue_time;
      policy_->OnTaskStart(ev.worker, task);
      break;
    }
    case SimEvent::Type::kProbeArrive:
    case SimEvent::Type::kTaskArrive:
      LoseDelivery(ev);  // The phase found the delivery dead.
      break;
    case SimEvent::Type::kTaskComplete:
      CommitCompletion(ev);
      break;
    case SimEvent::Type::kSpecCheck:
      Straggling(ev);  // The phase verified the watched copy's incarnation.
      break;
    default:
      HandleCoordinatorEvent(ev);
  }
}

uint64_t ShardedSimulationDriver::DeliveriesConsumed() const {
  uint64_t consumed = 0;
  for (const Shard& shard : shards_) {
    consumed += shard.deliveries_consumed;
  }
  return consumed;
}

// --- shard phases (worker-local) ---------------------------------------------

void ShardedSimulationDriver::RunShardPhase(Shard& shard, SimTime t_end) {
  WorkerStore& workers = cluster_.workers();
  while (!shard.queue.Empty() && shard.queue.PeekTime() < t_end) {
    const auto popped = shard.queue.Pop();
    const SimEvent& ev = popped.payload;
    const SimTime at = popped.at;
    shard.counters.events++;
    switch (ev.type) {
      case SimEvent::Type::kProbeArrive:
      case SimEvent::Type::kTaskArrive:
        ++shard.deliveries_consumed;
        if (DeliveryDead(ev)) {
          Emit(shard, at, ev);
          break;
        }
        workers.Enqueue(ev.worker, DeliveredEntry(ev, at));
        TryDispatchLocal(shard, ev.worker, at);
        break;
      case SimEvent::Type::kTaskComplete:
        if (ev.incarnation != Incarnation(ev.worker)) {
          break;
        }
        EndExecution(ev);
        Emit(shard, at, ev);
        if (Down(ev.worker) == DownKind::kUp) {
          TryDispatchLocal(shard, ev.worker, at);
        }
        break;
      case SimEvent::Type::kSpecCheck:
        // The watched copy is provably still running (checks only get
        // scheduled when the stretch outlives the threshold, and this
        // worker's completion pops after the check). The speculation gate
        // itself lives at the barrier.
        if (ev.incarnation == Incarnation(ev.worker)) {
          Emit(shard, at, ev);
        }
        break;
      default:
        HAWK_CHECK(false) << "coordinator event in a shard queue";
    }
  }
}

void ShardedSimulationDriver::TryDispatchLocal(Shard& shard, WorkerId worker, SimTime at) {
  WorkerStore& workers = cluster_.workers();
  while (workers.HasFreeSlot(worker)) {
    if (workers.QueueEmpty(worker)) {
      // Stealing is cross-worker, so the idle transition is handed to the
      // barrier; guards there skip it if the worker's state moved on.
      Emit(shard, at, Stamped(SimEvent::Of(SimEvent::Type::kWorkerIdle, worker)));
      return;
    }
    const QueueEntry entry = workers.PopFront(worker);
    if (entry.kind == EntryKind::kTask) {
      if (!entry.speculative) {
        RecordLaunch(shard.counters, entry.is_long, SaturatingWait(at, entry.enqueue_time));
      }
      BeginExecutionAt(shard, worker, entry, at);
      if (!entry.speculative) {
        // Phase context: policy feedback travels as a record.
        Emit(shard, at, SimEvent::OfTask(SimEvent::Type::kTaskStart, worker, entry),
             entry.enqueue_time);
      }
      continue;
    }
    workers.BeginRequest(worker, entry.is_long);
    shard.counters.probe_requests++;
    Emit(shard, at + 2 * config_.net_delay_us,
         Stamped(SimEvent::RequestResolve(worker, entry.job, entry.is_long, entry.enqueue_time)));
  }
}

void ShardedSimulationDriver::Emit(Shard& shard, SimTime due, const SimEvent& ev,
                                   SimTime enqueue_time) {
  OutRecord rec;
  rec.due = due;
  rec.event.ev = ev;
  rec.event.enqueue_time = enqueue_time;
  shard.outbox.push_back(rec);
}

void ShardedSimulationDriver::BeginExecutionAt(Shard& shard, WorkerId worker,
                                               const QueueEntry& task, SimTime at) {
  DurationUs actual = task.duration;
  if (stragglers_on_ && StragglerDraw(worker)) {
    actual = Stretched(task.duration);
    shard.counters.wasted_work_us += static_cast<uint64_t>(actual - task.duration);
  }
  OccupySlot(worker, task, actual, at);
  const SimTime delay = task.speculative ? 0 : SpecCheckDelay(task.job);
  if (delay > 0 && delay < actual) {
    shard.queue.Push(at + delay,
                     Stamped(SimEvent::OfTask(SimEvent::Type::kSpecCheck, worker, task)));
  }
  shard.queue.Push(at + actual,
                   Stamped(SimEvent::OfTask(SimEvent::Type::kTaskComplete, worker, task)));
}

bool ShardedSimulationDriver::StragglerDraw(WorkerId worker) {
  // splitmix64-style hash of (salt, worker, draw index): a stateless
  // substream per worker, so which executions straggle depends only on the
  // per-worker execution order — not on shard count or thread interleaving.
  uint64_t x = straggler_salt_;
  x += (static_cast<uint64_t>(worker) + 1) * 0x9E3779B97F4A7C15ULL;
  x += (straggler_seq_[worker]++ + 1) * 0xD1B54A32D192ED03ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  const double unit = static_cast<double>(x >> 11) * 0x1.0p-53;
  return unit < config_.straggler_rate;
}

// --- phase thread pool -------------------------------------------------------

void ShardedSimulationDriver::RunOneShard(uint32_t s, SimTime t_end) {
  Shard& shard = shards_[s];
  // Outbox arena reset: the coordinator finished merging last epoch's records
  // strictly before this epoch was published, so clearing here (capacity
  // retained) moves the reset off the coordinator's critical path.
  shard.outbox.clear();
  RunShardPhase(shard, t_end);
  std::stable_sort(shard.outbox.begin(), shard.outbox.end(), RecordLess);
}

uint32_t ShardedSimulationDriver::RunClaimedShards() {
  for (;;) {
    // Acquire: every claim reads the coordinator's publishing store or an
    // increment after it, so phase_end_ and the reset done count are
    // visible. A claimed shard keeps its epoch open, so phase_end_ cannot
    // change under the reader.
    const uint64_t claim = claim_.v.fetch_add(1, std::memory_order_acquire);
    const auto s = static_cast<uint32_t>(claim);
    if (s >= shards_.size()) {
      return static_cast<uint32_t>(claim >> 32);
    }
    RunOneShard(s, phase_end_);
    // Release: the shard's state and sorted outbox are complete before the
    // coordinator's acquire of the final count. The last shard done wakes a
    // parked coordinator.
    if (shards_done_.v.fetch_add(1, std::memory_order_acq_rel) + 1 == shards_.size()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (coord_parked_) {
        cv_done_.notify_one();
      }
    }
  }
}

void ShardedSimulationDriver::RunPhases(SimTime t_end) {
  // Epoch reset, then the store (release) that publishes the new epoch with
  // its shard cursor at 0. No shard is running here: the previous pooled
  // epoch ended in AwaitShardsDone, and other phases run on this thread.
  shards_done_.v.store(0, std::memory_order_relaxed);
  phase_end_ = t_end;
  ++epoch_;
  claim_.v.store(static_cast<uint64_t>(epoch_) << 32, std::memory_order_release);
  uint32_t sleeping = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sleeping = sleepers_;
  }
  if (sleeping > 0) {
    cv_start_.notify_all();
  }
  // The coordinator claims shards too, so the epoch never waits for a pool
  // thread to be woken or scheduled: a thread that is late finds every
  // shard taken and goes back to waiting.
  RunClaimedShards();
}

void ShardedSimulationDriver::AwaitShardsDone() {
  const auto done = [this] {
    return shards_done_.v.load(std::memory_order_acquire) == shards_.size();
  };
  for (int i = 0; i < spin_iters_ && !done(); ++i) {
    CpuRelax();
  }
  if (done()) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  coord_parked_ = true;
  cv_done_.wait(lock, done);
  coord_parked_ = false;
}

void ShardedSimulationDriver::WorkerLoop() {
  uint32_t seen = 0;  // Epoch 0 is never published.
  const auto published = [this, &seen] {
    return stop_.load(std::memory_order_relaxed) ||
           static_cast<uint32_t>(claim_.v.load(std::memory_order_relaxed) >> 32) != seen;
  };
  for (;;) {
    // Await the next epoch: spin, then park on cv_start_. The claims
    // below acquire, so these loads need not.
    for (int i = 0; i < spin_iters_ && !published(); ++i) {
      CpuRelax();
    }
    if (!published()) {
      std::unique_lock<std::mutex> lock(mu_);
      ++sleepers_;
      cv_start_.wait(lock, published);
      --sleepers_;
    }
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }
    // Claims from whichever epoch is current by now; the last (failed)
    // claim names the epoch this thread is done with.
    seen = RunClaimedShards();
  }
}

void ShardedSimulationDriver::StopPool() {
  if (threads_.empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_start_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
  threads_.clear();
  stop_.store(false, std::memory_order_relaxed);
}

}  // namespace hawk
