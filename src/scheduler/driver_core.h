// Shared core of the two simulation executors.
//
// The driver replays a trace against a cluster under a SchedulerPolicy and
// produces a RunResult. Cost model (paper §4.1): one-way network delay of
// 0.5 ms for probe/task placement, one RTT for a late-binding task request,
// zero cost for scheduling decisions and stealing. Workers are FIFO servers
// with one queue feeding `slots_per_worker` execution slots (one by
// default, reproducing the paper's single-slot model exactly).
//
// DriverCore holds everything the serial SimulationDriver and the sharded
// ShardedSimulationDriver share: the SchedulerContext, the loss / retry-budget
// / jitter delivery chain, job arrival, the dispatch loop and late-binding
// resolve, the completion commit with speculation dedupe, the fault ticks and
// the whole recovery ledger (crash, depart, rejoin, lost probes and tasks,
// vanished speculative copies). It is a CRTP base: the executor supplies
//   QueueDelivery(at, ev, monotone)  where a probe/task delivery is queued,
//   QueueTimer(at, ev)               where coordinator events are queued
//                                    (resolves, steal retries, fault ticks,
//                                    rejoins, utilization samples),
//   StartExecution(worker, task)     how a dispatched task starts running,
//   DeliveriesConsumed()             deliveries popped so far,
// all resolved at compile time, so the serial per-event path pays no virtual
// call. Every core method runs on one thread (the serial loop, or the sharded
// coordinator at a barrier) except the ones marked worker-local, which a
// sharded phase may call for workers of its own shard.
//
// The executors keep their event loops and differ, golden-pinned, in:
//   - Steal timing. Serial steals inside the idle worker's dispatch pass;
//     sharded phases hand the idle transition to the next barrier, so a
//     steal commits at barrier time.
//   - Feedback order. Sharded phases emit task starts, completions, lost
//     deliveries and straggler checks as records, committed at the barrier
//     in (due, worker) order rather than the serial (time, seq) order.
//   - Straggler draws. Serial StartExecution draws from the shared fault
//     stream; sharded BeginExecutionAt draws from a stateless per-worker
//     substream.
//   - Speculation checks. Serial skips scheduling a check when the task is
//     already in the speculation table; sharded phases cannot read the table,
//     so they schedule it unconditionally and Straggling() filters at commit.
// Two clamps exist for the sharded clock, which can sit just behind a start
// or an enqueue at a barrier: the killed share of a crashed task is clamped at
// zero, and queue waits saturate at zero. The serial clock is never behind
// either, so both are no-ops there.
#ifndef HAWK_SCHEDULER_DRIVER_CORE_H_
#define HAWK_SCHEDULER_DRIVER_CORE_H_

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job_tracker.h"
#include "src/cluster/results.h"
#include "src/core/adaptive_timeout.h"
#include "src/core/hawk_config.h"
#include "src/core/job_classifier.h"
#include "src/scheduler/policy.h"
#include "src/workload/trace.h"

namespace hawk {

// POD event payload shared by both executors' queues. Job arrivals are not
// events: the executors stream them from the (sorted) trace via a cursor.
// Construct via the named factories below — they exist so call sites cannot
// silently swap positional fields.
struct SimEvent {
  enum class Type : uint8_t {
    kProbeArrive,
    kTaskArrive,
    kRequestResolve,
    kTaskComplete,
    kUtilSample,
    kIdleRetry,  // Steal-retry extension: re-notify a still-idle worker.
    // Fault layer (all zero-rate by default, so none of these exist in a
    // fault-free run):
    kCrashTick,      // Poisson tick: fail-stop crash of a random worker.
    kDepartTick,     // Poisson tick: graceful departure of a random worker.
    kWorkerRejoin,   // A down worker comes back (empty) after downtime.
    kSpecCheck,      // Speculation: is this task copy still running?
    // Sharded phase records only (committed at the next barrier):
    kWorkerIdle,  // Worker went idle with an empty queue: steal opportunity.
    kTaskStart,   // Non-speculative execution started: policy feedback.
  };
  // Event flag bits (`flags`).
  static constexpr uint8_t kFlagSpeculative = 1;  // Duplicate task copy.
  static constexpr uint8_t kFlagAbandoned = 2;    // Delivery gave up: the
                                                  // retry budget is spent.
  Type type = Type::kUtilSample;
  bool is_long = false;
  uint8_t flags = 0;
  WorkerId worker = kInvalidWorker;
  JobId job = kInvalidJob;
  TaskIndex task_index = 0;
  // Type-dependent slot: the nominal task duration for kTaskArrive,
  // kTaskStart, kSpecCheck and kTaskComplete (speculation-loser accounting
  // needs it), the entry's original enqueue time for kRequestResolve
  // (queueing-delay telemetry).
  int64_t arg = 0;
  // Which incarnation of `worker` this event was addressed to. A crash
  // bumps the worker's incarnation, so everything already in flight toward
  // (or from) the dead incarnation — deliveries, request resolves, task
  // completions, idle retries — is recognized as stale at pop time.
  // Always 0 in fault-free runs, matching the worker's never-bumped count.
  uint32_t incarnation = 0;

  static SimEvent ProbeArrive(WorkerId worker, JobId job, bool is_long) {
    SimEvent e = Of(Type::kProbeArrive, worker);
    e.job = job;
    e.is_long = is_long;
    return e;
  }
  static SimEvent TaskArrive(WorkerId worker, JobId job, TaskIndex task_index,
                             DurationUs duration, bool is_long) {
    SimEvent e = Of(Type::kTaskArrive, worker);
    e.job = job;
    e.task_index = task_index;
    e.arg = duration;
    e.is_long = is_long;
    return e;
  }
  static SimEvent RequestResolve(WorkerId worker, JobId job, bool is_long,
                                 SimTime enqueued_at) {
    SimEvent e = Of(Type::kRequestResolve, worker);
    e.job = job;
    e.is_long = is_long;
    e.arg = enqueued_at;
    return e;
  }
  // Task-copy events (kTaskComplete, kSpecCheck, kTaskStart) carry the
  // entry's identity, nominal duration and speculative flag.
  static SimEvent OfTask(Type type, WorkerId worker, const QueueEntry& task) {
    SimEvent e = Of(type, worker);
    e.job = task.job;
    e.task_index = task.task_index;
    e.arg = task.duration;
    e.is_long = task.is_long;
    e.flags = task.speculative ? kFlagSpeculative : 0;
    return e;
  }
  static SimEvent UtilSample() { return SimEvent{}; }
  static SimEvent Of(Type type, WorkerId worker = kInvalidWorker) {
    SimEvent e;
    e.type = type;
    e.worker = worker;
    return e;
  }
};

template <typename Executor>
class DriverCore : public SchedulerContext {
 public:
  // --- SchedulerContext ----------------------------------------------------
  SimTime Now() const override { return now_; }
  Rng& SchedRng() override { return sched_rng_; }
  Cluster& GetCluster() override { return cluster_; }
  JobTracker& Tracker() override { return tracker_; }
  RunCounters& Counters() override { return result_.counters; }
  void PlaceProbe(WorkerId worker, JobId job, bool is_long) override;
  void PlaceTask(WorkerId worker, JobId job, TaskIndex task_index, DurationUs duration,
                 bool is_long) override;
  void PlaceSpeculative(WorkerId worker, JobId job, TaskIndex task_index, DurationUs duration,
                        bool is_long) override;
  void DeliverStolen(WorkerId thief, const std::vector<QueueEntry>& entries) override;

 protected:
  // `general_count` defines the partition split (pass num_workers for
  // unpartitioned baselines). The trace and policy must outlive the driver.
  DriverCore(const Trace* trace, const HawkConfig& config, uint32_t general_count,
             SchedulerPolicy* policy);

  // Why a worker is out of service. A crashed worker loses everything
  // (queue, requests, in-flight tasks — all invalidated via the incarnation
  // bump); a departed worker bounces new work but lets executing tasks
  // finish.
  enum class DownKind : uint8_t { kUp = 0, kCrashed, kDeparted };

  // In-flight execution record, kept per worker only while crash injection
  // is active: a crash must know which (job, task) pairs die with the node.
  struct ExecRecord {
    JobId job;
    TaskIndex task_index;
    DurationUs duration;         // Nominal (trace) duration.
    DurationUs actual_duration;  // Stretched when the copy is a straggler.
    SimTime started_at;
    bool is_long;
    bool speculative;
  };

  // Per-task speculation state, created when a duplicate is launched and
  // erased once neither lineage can produce further events. `primary_owned`
  // means the logical task is still held by the normal single-copy machinery
  // (a primary copy exists somewhere, or the tracker holds it for
  // re-dispatch); `spec_outstanding` counts duplicate copies alive in any
  // state (in flight, queued, executing).
  struct SpecState {
    uint8_t spec_outstanding = 0;
    bool done = false;
    bool primary_owned = true;
  };

  static uint64_t TaskKey(JobId job, TaskIndex task_index) {
    return (static_cast<uint64_t>(job) << 32) | task_index;
  }

  // Queue waits saturate at zero: a sharded barrier clock can sit behind an
  // entry's enqueue time; a negative wait must not wrap the uint64 tallies.
  static DurationUs SaturatingWait(SimTime now, SimTime enqueued_at) {
    return now > enqueued_at ? now - enqueued_at : 0;
  }
  // Counts one non-speculative task launch and its queue wait. Speculative
  // duplicates are accounted in tasks_speculated instead, so
  // `tasks_launched == trace tasks` holds for every scheduler.
  static void RecordLaunch(RunCounters& counters, bool is_long, DurationUs wait_us);

  Executor& self() { return static_cast<Executor&>(*this); }
  const Executor& self() const { return static_cast<const Executor&>(*this); }

  // --- run framing ---------------------------------------------------------
  // Arms the utilization sampler and the fault processes (non-empty traces).
  void ArmTimers();
  // Classifies a newly submitted job and hands it to the policy.
  void ArriveJob(const Job& job);
  // Checks that every job finished and returns the collected RunResult.
  RunResult Finish();

  // --- coordinator ---------------------------------------------------------
  // Request resolves, utilization samples, steal retries, fault ticks and
  // rejoins: the events both executors handle identically.
  void HandleCoordinatorEvent(const SimEvent& ev);
  // Advances an idle worker: pops queue entries until it is executing,
  // waiting on a task request, or idle with an empty queue (after giving the
  // policy one stealing opportunity per pass over an empty queue).
  void TryDispatch(WorkerId worker);
  // Late binding: the answer to a probe's task request, one RTT after it.
  void ResolveRequest(const SimEvent& ev);
  // A probe/task delivery that arrived dead (see DeliveryDead) goes back to
  // its scheduler lane.
  void LoseDelivery(const SimEvent& ev);
  // The first completion of a logical task reaches the tracker; finish
  // feedback goes to the policy for the tracker-owned copy only.
  void CommitCompletion(const SimEvent& ev);
  // Straggling gate of a live kSpecCheck: at most one duplicate decision per
  // logical task, then the policy decides.
  void Straggling(const SimEvent& ev);
  void HandleFaultTick(SimEvent::Type type);
  void RejoinWorker(WorkerId worker);

  // --- worker-local (also safe inside a sharded phase) ---------------------
  // Abandoned by the retry budget, addressed to a dead incarnation (sent
  // before a crash), or to a down worker.
  bool DeliveryDead(const SimEvent& ev) const {
    return (ev.flags & SimEvent::kFlagAbandoned) != 0 ||
           ev.incarnation != incarnation_[ev.worker] || down_[ev.worker] != DownKind::kUp;
  }
  // The queue entry a live delivery becomes.
  static QueueEntry DeliveredEntry(const SimEvent& ev, SimTime at);
  // Occupies a slot for `actual` (the possibly straggler-stretched duration)
  // and records the execution for crash teardown.
  void OccupySlot(WorkerId worker, const QueueEntry& task, DurationUs actual, SimTime at);
  // Releases the slot of a live completion.
  void EndExecution(const SimEvent& ev);
  // A straggler drags for slowdown x its nominal duration.
  DurationUs Stretched(DurationUs duration) const;
  // Delay after start at which a copy of `job` counts as straggling, or 0
  // when no check applies (speculation off, or no estimate).
  SimTime SpecCheckDelay(JobId job) const;
  SimEvent Stamped(SimEvent ev) const {
    ev.incarnation = incarnation_[ev.worker];
    return ev;
  }

  const Trace* trace_;
  HawkConfig config_;
  SchedulerPolicy* policy_;
  Cluster cluster_;
  JobTracker tracker_;
  JobClassifier classifier_;
  Rng sched_rng_;
  // Dedicated RNG so fault draws never perturb scheduler decisions: a
  // zero-fault run draws nothing from it, and sweeping fault_seed re-rolls
  // only the faults.
  Rng fault_rng_;
  // Jacobson-style retransmit-timeout estimator for lossy deliveries, fed
  // with first-transmission RTT observations (Karn's rule: retransmitted
  // deliveries contribute no sample).
  AdaptiveTimeout rto_;
  SimTime now_ = 0;
  RunResult result_;
  // Steal-retry extension: one outstanding retry per worker.
  std::vector<uint8_t> retry_pending_;

  // --- fault state ---------------------------------------------------------
  bool faults_enabled_ = false;  // Any fault axis nonzero.
  bool net_faulty_ = false;      // Loss or jitter active (heap deliveries).
  bool track_exec_ = false;      // Crash injection needs in-flight records.
  bool stragglers_on_ = false;   // straggler_rate > 0: executions may drag.
  // Speculation (policy-effective threshold; hawk-spec forces it on).
  bool speculation_enabled_ = false;
  double spec_threshold_ = 0.0;
  // Whether the policy's shape steals at all; retry timers are pointless
  // otherwise.
  bool policy_can_steal_ = false;
  uint64_t delivery_seq_ = 0;       // Keys the deterministic retry jitter.
  uint64_t deliveries_pushed_ = 0;  // Feeds StealRetryUseful.
  // Tasks whose duplicate machinery is live; keyed by TaskKey. Only ever
  // populated when speculation_enabled_.
  std::unordered_map<uint64_t, SpecState> spec_state_;
  // Read by sharded phases for staleness checks; written only by the core.
  std::vector<uint32_t> incarnation_;  // Bumped on crash; stamps events.
  std::vector<DownKind> down_;
  // Per-worker in-flight tasks; empty vectors unless track_exec_.
  std::vector<std::vector<ExecRecord>> exec_records_;
  // Pooled crash/depart teardown scratch: nothing on the re-dispatch paths
  // re-enters a crash or departure, so one of each suffices.
  std::vector<QueueEntry> drain_scratch_;
  std::vector<ExecRecord> crash_exec_scratch_;

 private:
  // Queues a probe/task delivery: the fault-free path is the monotone lane
  // push; with loss/jitter active the delivery may be dropped (and
  // retransmitted after a sender timeout) or delayed, which forces the
  // variable-delay heap.
  void SendDelivery(SimEvent ev);
  // True while another steal-retry timer can still observably help: the
  // policy steals and work exists (or can still appear) outside this
  // worker's empty queue. Stops end-of-run dead timers that would poll an
  // already-drained cluster while the last tasks finish executing.
  bool StealRetryUseful() const;
  void ScheduleFaultTick(SimEvent::Type type);
  void CrashWorker(WorkerId worker);
  void DepartWorker(WorkerId worker);
  // Hands a drained queue entry back to its scheduler (task -> ReturnTask +
  // OnTaskLost, probe -> OnProbeLost).
  void ReDispatchEntry(const QueueEntry& entry);
  void LostProbe(JobId job, bool is_long);
  void LostTask(JobId job, TaskIndex task_index, DurationUs duration, bool is_long);
  void DropExecRecord(WorkerId worker, JobId job, TaskIndex task_index, bool speculative);
  // A duplicate copy ceased to exist without completing (lost delivery,
  // drained queue, crash kill). If it was the last live copy and the task is
  // unfinished, ownership reverts to the normal lost-task lane.
  void SpecCopyVanished(JobId job, TaskIndex task_index, DurationUs duration, bool is_long);
  // Dedupe at completion: returns true when this completion is the first for
  // the logical task (and so must reach the tracker), false for a loser.
  bool SpecCompletion(JobId job, TaskIndex task_index, DurationUs duration, bool speculative);
  void MaybeEraseSpec(uint64_t key);
  void CollectResults();
};

// --- per-event path ----------------------------------------------------------
// The per-event path is defined here so each executor's translation unit can
// inline it together with its own hooks; construction, the fault and
// recovery ledger and speculation bookkeeping live in driver_core.cc,
// explicitly instantiated for both executors.

template <typename Executor>
void DriverCore<Executor>::PlaceProbe(WorkerId worker, JobId job, bool is_long) {
  result_.counters.probes_placed++;
  SendDelivery(SimEvent::ProbeArrive(worker, job, is_long));
}

template <typename Executor>
void DriverCore<Executor>::PlaceTask(WorkerId worker, JobId job, TaskIndex task_index,
                                     DurationUs duration, bool is_long) {
  result_.counters.central_tasks_placed++;
  SendDelivery(SimEvent::TaskArrive(worker, job, task_index, duration, is_long));
}

template <typename Executor>
void DriverCore<Executor>::DeliverStolen(WorkerId thief, const std::vector<QueueEntry>& entries) {
  WorkerStore& workers = cluster_.workers();
  for (const QueueEntry& entry : entries) {
    workers.Enqueue(thief, entry);
  }
  // No dispatch here: the thief is inside its own TryDispatch pass, which
  // re-examines the queue when OnWorkerIdle returns.
}

template <typename Executor>
void DriverCore<Executor>::SendDelivery(SimEvent ev) {
  ev = Stamped(ev);
  ++deliveries_pushed_;
  if (!net_faulty_) {
    self().QueueDelivery(now_ + config_.net_delay_us, ev, /*monotone=*/true);
    return;
  }
  // Lossy/jittery network: the retransmit chain is collapsed into a single
  // event pushed at the time the first surviving copy arrives. Each drop
  // costs one sender timeout from the adaptive (Jacobson) estimator, backed
  // off exponentially with a per-delivery deterministic jitter; the retry
  // budget cuts the chain — a spent budget surfaces the loss to the
  // recovery lanes when the final timeout fires (kFlagAbandoned) instead of
  // retrying forever. Either way the monotone-timestamp contract is broken,
  // so faulty deliveries pay for heap ordering — the fault-free path above
  // stays O(1).
  const uint64_t jitter_key = delivery_seq_++;
  SimTime delay = 0;
  uint32_t drops = 0;
  bool abandoned = false;
  if (config_.message_loss_rate > 0.0) {
    while (fault_rng_.Bernoulli(config_.message_loss_rate)) {
      ++result_.counters.messages_dropped;
      DurationUs timeout = rto_.BackoffTimeoutUs(drops);
      timeout += AdaptiveTimeout::JitterUs(jitter_key, drops, timeout / 4);
      delay += timeout;
      if (drops == config_.retry_budget) {
        // That drop consumed the final permitted copy: give up.
        ++result_.counters.retries_suppressed;
        abandoned = true;
        break;
      }
      ++drops;
      ++result_.counters.message_retries;
    }
  }
  if (abandoned) {
    // Sender-local detection: the failure surfaces when the last timeout
    // fires, with no further flight time.
    ev.flags |= SimEvent::kFlagAbandoned;
    self().QueueDelivery(now_ + std::max<SimTime>(delay, 1), ev, /*monotone=*/false);
    return;
  }
  delay += config_.net_delay_us;
  DurationUs jitter = 0;
  if (config_.message_delay_jitter_us > 0) {
    jitter = fault_rng_.UniformInt(0, config_.message_delay_jitter_us);
    delay += jitter;
  }
  if (drops == 0) {
    // Karn's rule: only first-transmission RTTs feed the estimator.
    rto_.AddSample(2.0 * static_cast<double>(config_.net_delay_us + jitter));
  }
  self().QueueDelivery(now_ + delay, ev, /*monotone=*/false);
}

template <typename Executor>
void DriverCore<Executor>::HandleCoordinatorEvent(const SimEvent& ev) {
  switch (ev.type) {
    case SimEvent::Type::kRequestResolve:
      ResolveRequest(ev);
      break;
    case SimEvent::Type::kUtilSample:
      result_.utilization_samples.push_back(cluster_.Utilization());
      if (!tracker_.AllJobsFinished()) {
        self().QueueTimer(now_ + config_.util_sample_period_us, SimEvent::UtilSample());
      }
      break;
    case SimEvent::Type::kIdleRetry:
      if (ev.incarnation != incarnation_[ev.worker]) {
        // Pre-crash timer; the pending bit was already cleared by the crash
        // and may have been re-armed since — leave it alone.
        break;
      }
      retry_pending_[ev.worker] = 0;
      if (down_[ev.worker] == DownKind::kUp && cluster_.workers().HasFreeSlot(ev.worker)) {
        TryDispatch(ev.worker);
      }
      break;
    case SimEvent::Type::kCrashTick:
    case SimEvent::Type::kDepartTick:
      HandleFaultTick(ev.type);
      break;
    case SimEvent::Type::kWorkerRejoin:
      RejoinWorker(ev.worker);
      break;
    default:
      HAWK_CHECK(false) << "not a coordinator event: " << static_cast<int>(ev.type);
  }
}

template <typename Executor>
void DriverCore<Executor>::RecordLaunch(RunCounters& counters, bool is_long, DurationUs wait_us) {
  counters.tasks_launched++;
  if (is_long) {
    counters.long_tasks_started++;
    counters.long_queue_wait_us += static_cast<uint64_t>(wait_us);
  } else {
    counters.short_tasks_started++;
    counters.short_queue_wait_us += static_cast<uint64_t>(wait_us);
  }
}

template <typename Executor>
void DriverCore<Executor>::TryDispatch(WorkerId worker) {
  WorkerStore& workers = cluster_.workers();
  // Fill free slots from the FIFO queue until the worker is saturated or out
  // of work. With one slot per worker this is the classic loop: pop one
  // entry, start it (or park the slot on a late-binding RTT), done.
  bool steal_tried = false;
  while (workers.HasFreeSlot(worker)) {
    if (workers.QueueEmpty(worker)) {
      // One stealing opportunity per pass; a successful steal appends
      // entries, a failed one leaves the queue empty and the slot idle.
      if (!steal_tried) {
        steal_tried = true;
        policy_->OnWorkerIdle(worker);
        if (!workers.QueueEmpty(worker)) {
          continue;
        }
      }
      // Steal-retry extension: optionally re-notify the worker later if it
      // is still idle (the paper's design stops at one round), only while a
      // retry could still find work.
      if (config_.steal_retry_interval_us > 0 && retry_pending_[worker] == 0 &&
          !tracker_.AllJobsFinished() && StealRetryUseful()) {
        retry_pending_[worker] = 1;
        self().QueueTimer(now_ + config_.steal_retry_interval_us,
                          Stamped(SimEvent::Of(SimEvent::Type::kIdleRetry, worker)));
      }
      return;
    }
    const QueueEntry entry = workers.PopFront(worker);
    if (entry.kind == EntryKind::kTask) {
      // A speculative duplicate's queue wait is duplicate overhead, not job
      // latency.
      if (!entry.speculative) {
        RecordLaunch(result_.counters, entry.is_long, SaturatingWait(now_, entry.enqueue_time));
      }
      self().StartExecution(worker, entry);
      continue;
    }
    // Late binding: the worker asks the job's scheduler for a task; the
    // answer (task or cancel) arrives after one round trip, occupying a slot
    // meanwhile. The round trip is modeled on a reliable control channel;
    // only probe/task deliveries see loss/jitter.
    workers.BeginRequest(worker, entry.is_long);
    result_.counters.probe_requests++;
    self().QueueTimer(now_ + 2 * config_.net_delay_us,
                      Stamped(SimEvent::RequestResolve(worker, entry.job, entry.is_long,
                                                       entry.enqueue_time)));
  }
}

template <typename Executor>
void DriverCore<Executor>::ResolveRequest(const SimEvent& ev) {
  if (ev.incarnation != incarnation_[ev.worker]) {
    // The requesting slot died with the crash (ResetSlots already freed it);
    // only the probe itself is left to account for.
    LostProbe(ev.job, ev.is_long);
    return;
  }
  cluster_.workers().ResolveRequest(ev.worker, ev.is_long);
  if (down_[ev.worker] != DownKind::kUp) {
    // Graceful departure while the request was in flight: release the slot
    // but decline the work.
    LostProbe(ev.job, ev.is_long);
    return;
  }
  const auto assignment = tracker_.TakeNextTask(ev.job);
  if (!assignment.has_value()) {
    result_.counters.cancels++;
    TryDispatch(ev.worker);
    return;
  }
  RecordLaunch(result_.counters, ev.is_long, SaturatingWait(now_, ev.arg));
  QueueEntry task =
      QueueEntry::Task(ev.job, assignment->task_index, assignment->duration, ev.is_long);
  task.enqueue_time = ev.arg;
  // The freed slot is re-occupied immediately, so no other queue entry can
  // dispatch off this event.
  self().StartExecution(ev.worker, task);
}

template <typename Executor>
void DriverCore<Executor>::CommitCompletion(const SimEvent& ev) {
  // First completion of the logical task wins; a speculation loser is
  // deduplicated here and never reaches the tracker. Finish feedback mirrors
  // the start-side rule: only the tracker-owned copy reports, because only
  // its start was charged to the policy's state.
  const bool speculative = (ev.flags & SimEvent::kFlagSpeculative) != 0;
  if (!speculation_enabled_ || SpecCompletion(ev.job, ev.task_index, ev.arg, speculative)) {
    tracker_.OnTaskFinished(ev.job, now_);
  }
  if (!speculative) {
    policy_->OnTaskFinish(ev.worker, ev.job, ev.is_long);
  }
}

template <typename Executor>
void DriverCore<Executor>::Straggling(const SimEvent& ev) {
  if (spec_state_.find(TaskKey(ev.job, ev.task_index)) != spec_state_.end()) {
    return;  // Already speculated.
  }
  // Checks are only scheduled when the copy outlives the threshold, so the
  // primary is provably still running here. State is created by
  // PlaceSpeculative, so a policy that declines leaves no trace.
  policy_->OnTaskStraggling(ev.job, ev.task_index, ev.arg, ev.is_long);
}

template <typename Executor>
QueueEntry DriverCore<Executor>::DeliveredEntry(const SimEvent& ev, SimTime at) {
  QueueEntry entry = ev.type == SimEvent::Type::kProbeArrive
                         ? QueueEntry::Probe(ev.job, ev.is_long)
                         : QueueEntry::Task(ev.job, ev.task_index, ev.arg, ev.is_long);
  entry.speculative = (ev.flags & SimEvent::kFlagSpeculative) != 0;
  entry.enqueue_time = at;
  return entry;
}

template <typename Executor>
void DriverCore<Executor>::OccupySlot(WorkerId worker, const QueueEntry& task, DurationUs actual,
                                      SimTime at) {
  // Partition containment (§3.4): long tasks never execute in the short
  // partition, under any scheduler or ablation.
  HAWK_CHECK(!task.is_long || cluster_.InGeneralPartition(worker))
      << "long task on short-partition worker " << worker;
  QueueEntry charged = task;
  charged.duration = actual;
  cluster_.workers().BeginExecute(worker, at, charged);
  if (track_exec_) {
    exec_records_[worker].push_back(ExecRecord{task.job, task.task_index, task.duration, actual,
                                               at, task.is_long, task.speculative});
  }
}

template <typename Executor>
void DriverCore<Executor>::EndExecution(const SimEvent& ev) {
  cluster_.workers().FinishExecute(ev.worker, ev.is_long);
  if (track_exec_) {
    DropExecRecord(ev.worker, ev.job, ev.task_index,
                   (ev.flags & SimEvent::kFlagSpeculative) != 0);
  }
}

template <typename Executor>
DurationUs DriverCore<Executor>::Stretched(DurationUs duration) const {
  return std::max(duration, static_cast<DurationUs>(std::llround(
                                static_cast<double>(duration) *
                                config_.straggler_slowdown_factor)));
}

template <typename Executor>
SimTime DriverCore<Executor>::SpecCheckDelay(JobId job) const {
  if (!speculation_enabled_) {
    return 0;
  }
  const DurationUs estimate = tracker_.EstimateUs(job);
  if (estimate <= 0) {
    return 0;
  }
  return std::max<SimTime>(
      1, static_cast<SimTime>(std::llround(spec_threshold_ * static_cast<double>(estimate))));
}

}  // namespace hawk

#endif  // HAWK_SCHEDULER_DRIVER_CORE_H_
