#include "src/runtime/node_monitor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/failure_detector.h"

namespace hawk {
namespace runtime {

using Clock = std::chrono::steady_clock;

namespace {

// Capacity lookup for the constructor's init list; checks the layout exists
// before anything dereferences it.
uint32_t SlotsOf(const NodeMonitorConfig& config, Address address) {
  HAWK_CHECK(config.layout != nullptr);
  HAWK_CHECK_LT(address, config.layout->NumWorkers());
  return config.layout->workers().Slots(address);
}

}  // namespace

NodeMonitor::NodeMonitor(Address address, const NodeMonitorConfig& config,
                         MessageBus* bus, uint64_t seed)
    : address_(address),
      config_(config),
      bus_(bus),
      stealing_(config.steal_cap, seed, config.victim_selection),
      straggler_rng_(seed ^ 0x57A66E7ULL),
      capacity_(SlotsOf(config, address)),
      free_slots_(capacity_) {
  HAWK_CHECK(bus != nullptr);
}

NodeMonitor::~NodeMonitor() { Stop(); }

void NodeMonitor::Start() {
  bus_->Register(address_, [this](const BusMessage& m) { HandleMessage(m); });
  executor_ = std::thread([this] { ExecutorLoop(); });
}

void NodeMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  exec_cv_.notify_all();
  if (executor_.joinable()) {
    executor_.join();
  }
}

void NodeMonitor::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_ || stopping_) {
    return;
  }
  crashed_ = true;
  // Fail-stop: everything this node held dies with it. The elapsed part of
  // each running task is wasted work — it is charged to busy time too, so
  // cluster busy time keeps meaning "slot-seconds spent running", matching
  // the simulator's accounting (completed work + wasted work).
  const Clock::time_point now = Clock::now();
  while (!running_.empty()) {
    const RunningTask& running = running_.top();
    const auto started = running.deadline - std::chrono::microseconds(running.actual_us);
    const int64_t ran_us = std::max<int64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - started).count(), 0);
    wasted_work_us_.fetch_add(ran_us, std::memory_order_relaxed);
    busy_us_.fetch_add(ran_us, std::memory_order_relaxed);
    running_.pop();
  }
  queue_.clear();
  outstanding_.clear();
  requesting_ = 0;
  occupied_long_ = 0;
  executing_slots_.store(0, std::memory_order_relaxed);
  free_slots_ = capacity_;
  steal_in_flight_ = false;
  steal_victims_.clear();
  next_victim_ = 0;
  steal_round_exhausted_ = false;
}

void NodeMonitor::Rejoin() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!crashed_ || stopping_) {
    return;
  }
  crashed_ = false;
  // Fresh and empty: give it a dispatch pass so it can start stealing.
  Advance();
}

void NodeMonitor::SendHeartbeat() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_ || stopping_) {
      return;  // A dead node is silent — that silence IS the failure signal.
    }
  }
  bus_->Send(address_, kDetectorAddress, kHeartbeat, HeartbeatMsg::From(address_));
}

void NodeMonitor::HandleMessage(const BusMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ || crashed_) {
    // A crashed node is silent: probes and placed tasks die here (the
    // schedulers' timeouts recover them), grants and steal traffic vanish.
    return;
  }
  switch (message.type) {
    case kProbe: {
      const ProbeMsg& probe = std::get<ProbeMsg>(message.payload);
      // The frontend sampled a slot; it must be one of ours (stolen probes
      // bypass this path — they arrive inside kStealResponse).
      HAWK_CHECK_EQ(config_.layout->WorkerOfSlot(probe.slot), address_)
          << "probe for slot " << probe.slot << " misrouted to node " << address_;
      queue_.push_back(probe);
      steal_round_exhausted_ = false;  // New work: future idleness may steal again.
      Advance();
      break;
    }
    case kTaskPlace: {
      const TaskMsg& task = std::get<TaskMsg>(message.payload);
      HAWK_CHECK_EQ(config_.layout->WorkerOfSlot(task.slot), address_)
          << "placed task for slot " << task.slot << " misrouted to node " << address_;
      queue_.push_back(task);
      steal_round_exhausted_ = false;
      Advance();
      break;
    }
    case kTaskGrant: {
      const TaskMsg& task = std::get<TaskMsg>(message.payload);
      // The request's slot converts directly into the execution slot.
      ResolveRequestLocked(task.job);
      StartTaskLocked(task, /*centrally_placed=*/false);
      break;
    }
    case kTaskCancel: {
      const JobRefMsg& cancel = std::get<JobRefMsg>(message.payload);
      ResolveRequestLocked(cancel.job);
      Advance();
      break;
    }
    case kStealRequest: {
      const StealRequestMsg& request = std::get<StealRequestMsg>(message.payload);
      StealResponseMsg response;
      response.probes = ExtractStealableLocked();
      bus_->Send(address_, request.thief, kStealResponse, std::move(response));
      break;
    }
    case kStealResponse: {
      const StealResponseMsg& response = std::get<StealResponseMsg>(message.payload);
      steal_in_flight_ = false;
      if (!response.probes.empty()) {
        entries_stolen_.fetch_add(response.probes.size(), std::memory_order_relaxed);
        // Round succeeded; stop contacting victims.
        steal_victims_.clear();
        next_victim_ = 0;
        steal_round_exhausted_ = false;
        queue_.insert(queue_.end(), response.probes.begin(), response.probes.end());
      } else if (next_victim_ >= steal_victims_.size()) {
        // Round over with nothing stolen: stay idle until new work appears
        // ("whenever a server is out of tasks" is one bounded round, §3.6).
        steal_round_exhausted_ = true;
      }
      Advance();
      break;
    }
    default:
      HAWK_CHECK(false) << "node monitor got unexpected message type " << message.type;
  }
}

void NodeMonitor::Advance() {
  // Fill free slots from the FIFO queue (the runtime twin of the simulation
  // driver's TryDispatch): a task occupies a slot until its deadline; a
  // probe parks a slot on a late-binding request.
  while (free_slots_ > 0 && !queue_.empty()) {
    const MonitorEntry entry = queue_.front();
    queue_.pop_front();
    if (const ProbeMsg* probe = std::get_if<ProbeMsg>(&entry)) {
      --free_slots_;
      ++requesting_;
      if (probe->is_long) {
        ++occupied_long_;
      }
      auto& record = outstanding_[probe->job];
      ++record.first;
      record.second = probe->is_long;
      const JobRefMsg request = JobRefMsg::TaskRequest(probe->job, address_);
      bus_->Send(address_, probe->frontend, kTaskRequest, request);
      continue;
    }
    StartTaskLocked(std::get<TaskMsg>(entry), /*centrally_placed=*/true);
  }
  if (free_slots_ > 0 && queue_.empty() && config_.steal_cap > 0) {
    TryStealLocked();
  }
}

void NodeMonitor::StartTaskLocked(const TaskMsg& task, bool centrally_placed) {
  HAWK_CHECK_GT(free_slots_, 0u) << "task start on node " << address_ << " with no free slot";
  --free_slots_;
  executing_slots_.fetch_add(1, std::memory_order_relaxed);
  if (task.is_long) {
    ++occupied_long_;
  }
  // Straggler injection: a stricken start really occupies the slot for the
  // stretched duration — the owning scheduler still believes the nominal
  // one, which is what its speculation/timeout machinery must see through.
  int64_t actual_us = task.duration_us;
  if (config_.straggler_rate > 0.0 && straggler_rng_.Bernoulli(config_.straggler_rate)) {
    actual_us = std::max<int64_t>(
        task.duration_us,
        std::llround(static_cast<double>(task.duration_us) * config_.straggler_slowdown_factor));
  }
  running_.push(RunningTask{Clock::now() + std::chrono::microseconds(actual_us), actual_us, task});
  if (centrally_placed) {
    // §3.7 feedback: the owning (centralized) scheduler re-synchronizes its
    // waiting-time estimate on every start of a task it placed. The echoed
    // slot routes the feedback to the exact lane the backend charged.
    const JobRefMsg started = JobRefMsg::TaskStarted(task.job, address_, task.slot);
    bus_->Send(address_, task.owner, kTaskStarted, started);
  }
  exec_cv_.notify_all();
}

void NodeMonitor::ResolveRequestLocked(JobId job) {
  HAWK_CHECK_GT(requesting_, 0u) << "request resolution on node " << address_
                                 << " with no request in flight";
  const auto it = outstanding_.find(job);
  HAWK_CHECK(it != outstanding_.end())
      << "request resolution for unknown job " << job << " on node " << address_;
  --requesting_;
  ++free_slots_;
  if (it->second.second) {
    HAWK_CHECK_GT(occupied_long_, 0u);
    --occupied_long_;
  }
  if (--it->second.first == 0) {
    outstanding_.erase(it);
  }
}

void NodeMonitor::TryStealLocked() {
  if (steal_in_flight_ && config_.steal_response_timeout.count() > 0 &&
      Clock::now() > steal_deadline_) {
    // The victim crashed (or its response was lost) after we contacted it;
    // give it up so the round — and all future stealing — is not wedged on
    // a reply that will never come.
    steal_in_flight_ = false;
  }
  if (steal_in_flight_ || steal_round_exhausted_) {
    return;
  }
  if (next_victim_ >= steal_victims_.size()) {
    // Start a new round: the shared StealingPolicy samples up to `cap`
    // distinct general-partition victims from the layout's slot space
    // (capacity-weighted, thief excluded) — the same draw the simulation's
    // policies make.
    stealing_.ChooseVictimsInto(*config_.layout, address_, &steal_victims_);
    next_victim_ = 0;
    if (steal_victims_.empty()) {
      return;
    }
    steals_attempted_.fetch_add(1, std::memory_order_relaxed);
  }
  // Suspected victims are skipped, not contacted-and-timed-out: a steal
  // round pointed at a dead node would stall for the whole response timeout
  // before moving on. Suspicion is advisory — a skipped-but-alive victim is
  // simply sampled again in a later round, once its heartbeats resume. A
  // round whose remaining victims are all suspected counts as exhausted
  // (same as a round of empty responses), so the thief does not re-roll
  // rounds in a tight loop.
  if (config_.detector != nullptr) {
    while (next_victim_ < steal_victims_.size() &&
           config_.detector->Suspected(steal_victims_[next_victim_])) {
      ++next_victim_;
    }
    if (next_victim_ >= steal_victims_.size()) {
      steal_round_exhausted_ = true;
      return;
    }
  }
  const Address victim = steal_victims_[next_victim_++];
  steal_in_flight_ = true;
  if (config_.steal_response_timeout.count() > 0) {
    steal_deadline_ = Clock::now() + config_.steal_response_timeout;
  }
  bus_->Send(address_, victim, kStealRequest, StealRequestMsg::From(address_));
}

std::vector<ProbeMsg> NodeMonitor::ExtractStealableLocked() {
  // Occupied long work (executing long tasks or in-flight long probes)
  // counts like a long entry at the head, as in the simulator.
  const auto [begin, end] = StealGroupOf(queue_, occupied_long_ > 0);
  std::vector<ProbeMsg> stolen;
  for (size_t k = begin; k < end; ++k) {
    // Only probes can move between monitors. RunPrototype rejects shapes
    // that both place short tasks centrally and steal, so the group, being
    // short, holds probes only.
    const ProbeMsg* probe = std::get_if<ProbeMsg>(&queue_[k]);
    HAWK_CHECK(probe != nullptr) << "concrete task in the steal group of node " << address_;
    stolen.push_back(*probe);
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(begin),
               queue_.begin() + static_cast<std::ptrdiff_t>(end));
  return stolen;
}

void NodeMonitor::ExecutorLoop() {
  // One thread services every slot: running tasks are sleeps, so the thread
  // tracks their completion deadlines in a min-heap and completes each task
  // as it falls due instead of blocking one thread per slot.
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (running_.empty()) {
      exec_cv_.wait(lock, [this] { return stopping_ || !running_.empty(); });
      continue;
    }
    const Clock::time_point deadline = running_.top().deadline;
    if (Clock::now() < deadline) {
      // Wakes early when a shorter task starts or on shutdown; the loop
      // re-evaluates either way.
      exec_cv_.wait_until(lock, deadline);
      continue;
    }
    const Clock::time_point now = Clock::now();
    while (!running_.empty() && running_.top().deadline <= now) {
      const TaskMsg task = running_.top().task;
      const int64_t actual_us = running_.top().actual_us;
      running_.pop();
      // Busy time is real slot occupancy; a straggler's stretch beyond the
      // nominal duration is occupancy that did no new work — wasted.
      busy_us_.fetch_add(actual_us, std::memory_order_relaxed);
      wasted_work_us_.fetch_add(actual_us - task.duration_us, std::memory_order_relaxed);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      executing_slots_.fetch_sub(1, std::memory_order_relaxed);
      ++free_slots_;
      if (task.is_long) {
        HAWK_CHECK_GT(occupied_long_, 0u);
        --occupied_long_;
      }
      bus_->Send(address_, task.owner, kTaskDone, task);
      Advance();
    }
  }
}

}  // namespace runtime
}  // namespace hawk
