#include "src/runtime/schedulers.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/core/probe_placement.h"

namespace hawk {
namespace runtime {

// --- CompletionSink ---------------------------------------------------------

void CompletionSink::ExpectJobs(const std::vector<JobId>& ids) {
  std::lock_guard<std::mutex> lock(mu_);
  expected_.clear();
  expected_.insert(ids.begin(), ids.end());
  outstanding_.clear();
  outstanding_.insert(ids.begin(), ids.end());
  completions_.clear();
  completions_.reserve(ids.size());
}

void CompletionSink::Record(JobId job, bool is_long) {
  std::lock_guard<std::mutex> lock(mu_);
  HAWK_CHECK(expected_.count(job) != 0) << "completion recorded for never-expected job " << job;
  HAWK_CHECK(outstanding_.erase(job) != 0) << "completion recorded twice for job " << job;
  completions_.push_back(Completion{job, is_long, std::chrono::steady_clock::now()});
  if (outstanding_.empty()) {
    cv_.notify_all();
  }
}

Status CompletionSink::AwaitAll(std::chrono::milliseconds timeout, const ProgressFn& progress) {
  std::unique_lock<std::mutex> lock(mu_);
  if (cv_.wait_for(lock, timeout, [this] { return outstanding_.empty(); })) {
    return Status::Ok();
  }
  // Name the stragglers: "timed out, 0 of N done" is undebuggable; a job-id
  // list — with each job's done/total task counts when the harness supplies
  // a progress callback — points straight at the stuck scheduler, monitor,
  // or individual task. Sorted, so two runs of the same stuck configuration
  // produce comparable messages (hash-set order varies run to run).
  constexpr size_t kMaxListed = 16;
  std::vector<JobId> ids(outstanding_.begin(), outstanding_.end());
  std::sort(ids.begin(), ids.end());
  std::string listed;
  size_t shown = 0;
  for (const JobId job : ids) {
    if (shown == kMaxListed) {
      listed += ", ...";
      break;
    }
    listed += (shown == 0 ? "" : ", ") + std::to_string(job);
    if (progress != nullptr) {
      listed += progress(job);
    }
    ++shown;
  }
  return Status::Error("prototype run timed out with " + std::to_string(outstanding_.size()) +
                       " job(s) outstanding: " + listed);
}

std::vector<CompletionSink::Completion> CompletionSink::TakeAll() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(completions_);
}

// --- Recovery ledger --------------------------------------------------------

AdaptiveTimeout FaultRecoveryPolicy::MakeDetectionWindow() const {
  const auto expected = static_cast<double>(detection_timeout.count());
  const auto floor_us = std::max<DurationUs>(detection_timeout.count() / 16, 1'000);
  const auto cap_us = std::max<DurationUs>(64 * detection_timeout.count(), floor_us);
  return AdaptiveTimeout(expected, floor_us, cap_us);
}

void RecoveryCounters::AddTo(RunCounters* counters) const {
  counters->tasks_re_dispatched += tasks_re_dispatched;
  counters->retries_suppressed += retries_suppressed;
  counters->tasks_abandoned += tasks_abandoned;
  counters->duplicate_completions += duplicate_completions;
  counters->probes_lost += probes_lost;
  counters->tasks_speculated += tasks_speculated;
  counters->speculative_wasted_us += speculative_wasted_us;
}

// --- DistributedFrontend ----------------------------------------------------

DistributedFrontend::DistributedFrontend(Address address, const Cluster* layout,
                                         const RuntimeShape& shape, uint32_t probe_ratio,
                                         const FaultRecoveryPolicy& faults,
                                         MessageBus* bus, CompletionSink* sink,
                                         uint64_t seed, const FailureDetector* detector)
    : address_(address),
      layout_(layout),
      shape_(shape),
      probe_ratio_(probe_ratio),
      bus_(bus),
      detector_(detector),
      rng_(seed),
      ledger_(faults, sink, &mu_) {
  HAWK_CHECK(layout != nullptr);
  HAWK_CHECK(bus != nullptr);
  HAWK_CHECK_GT(probe_ratio, 0u);
}

void DistributedFrontend::Start() {
  bus_->Register(address_, [this](const BusMessage& m) { HandleMessage(m); });
}

void DistributedFrontend::SendProbesLocked(JobId job, Ledger::Job& state, uint32_t count) {
  // Shared §3.5 placement: sample `count` slots without replacement from the
  // span the policy shape declares for this class, weighting workers by
  // capacity, and map each slot to its owning node monitor.
  const SlotSpan span = ResolveProbeSpan(
      *layout_, state.is_long ? shape_.long_probe_span : shape_.short_probe_span);
  HAWK_CHECK_GT(span.count, 0u) << "probe span is empty for job " << job;
  ChooseProbeTargetsInto(rng_, span.first, span.count, count, &targets_, &picks_);
  for (SlotId slot : targets_) {
    // Detector steering: a probe aimed at a suspected node is re-drawn a few
    // times rather than filtered — the probe count must not shrink (fewer
    // probes means fewer grant paths exactly when the cluster is sick). If
    // every redraw also lands on a suspect, the last draw stands: suspicion
    // is advisory, and a probe to a genuinely dead node is recovered by the
    // probe-loss watchdog like any other.
    if (detector_ != nullptr) {
      for (int redraw = 0;
           redraw < 4 && detector_->Suspected(layout_->WorkerOfSlot(slot)); ++redraw) {
        slot = span.first + static_cast<SlotId>(rng_.NextBounded(span.count));
      }
    }
    const ProbeMsg probe = ProbeMsg::Make(job, address_, slot, state.is_long);
    bus_->Send(address_, layout_->WorkerOfSlot(slot), kProbe, probe);
  }
  if (ledger_.policy().enabled) {
    state.extra.probe_deadline =
        std::chrono::steady_clock::now() + ledger_.policy().detection_timeout;
  }
}

void DistributedFrontend::HandleMessage(const BusMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (message.type) {
    case kJobSubmit: {
      const JobSubmitMsg& submit = std::get<JobSubmitMsg>(message.payload);
      Ledger::Job& state = ledger_.Admit(submit);
      SendProbesLocked(submit.job, state,
                       probe_ratio_ * static_cast<uint32_t>(state.tasks.size()));
      break;
    }
    case kTaskRequest: {
      const JobRefMsg& request = std::get<JobRefMsg>(message.payload);
      const auto it = ledger_.owned().find(request.job);
      // No assignable task: either the job already completed and was
      // garbage-collected (surplus probes for it are still queued somewhere)
      // or everything is granted/done. Cancel the reservation.
      const bool assignable =
          it != ledger_.owned().end() &&
          (!it->second.extra.returned.empty() ||
           it->second.extra.next_unassigned < it->second.tasks.size());
      if (!assignable) {
        const JobRefMsg cancel = JobRefMsg::TaskCancel(request.job, address_);
        bus_->Send(address_, request.sender, kTaskCancel, cancel);
        break;
      }
      Ledger::Job& state = it->second;
      // Tasks returned by fault recovery are re-granted before the cursor
      // advances, mirroring JobTracker::TakeNextTask.
      uint32_t index = 0;
      if (!state.extra.returned.empty()) {
        index = state.extra.returned.back();
        state.extra.returned.pop_back();
      } else {
        index = state.extra.next_unassigned++;
      }
      ledger_.Issue(request.job, state, index);
      if (ledger_.policy().enabled) {
        state.extra.probe_deadline = state.tasks[index].deadline;
      }
      const TaskMsg grant = TaskMsg::Grant(request.job, index, state.durations_us[index],
                                           state.is_long, address_);
      bus_->Send(address_, request.sender, kTaskGrant, grant);
      break;
    }
    case kTaskDone: {
      const TaskMsg& done = std::get<TaskMsg>(message.payload);
      Ledger::Job* state = ledger_.Complete(done);
      if (state == nullptr) {
        break;
      }
      // The completion may come from a copy recovery already presumed dead;
      // drop its stale returned index so it cannot be re-granted.
      std::vector<uint32_t>& returned = state->extra.returned;
      returned.erase(std::remove(returned.begin(), returned.end(), done.task_index),
                     returned.end());
      if (ledger_.policy().enabled) {
        state->extra.probe_deadline =
            std::chrono::steady_clock::now() + ledger_.policy().detection_timeout;
      }
      break;
    }
    default:
      HAWK_CHECK(false) << "frontend got unexpected message type " << message.type;
  }
}

void DistributedFrontend::ReapOverdue() {
  std::lock_guard<std::mutex> lock(mu_);
  const FaultRecoveryPolicy& policy = ledger_.policy();
  RecoveryCounters& counters = ledger_.counters();
  const auto now = std::chrono::steady_clock::now();
  for (auto& [job, state] : ledger_.owned()) {
    // Overdue grants: the executing node is presumed dead. Return the task
    // to the assignable pool and probe for a new slot to late-bind it.
    // Running copies past the speculation threshold (but not yet presumed
    // dead) get one duplicate grant path instead — the original stays
    // granted, and whichever copy completes first wins.
    std::vector<uint32_t>& returned = state.extra.returned;
    uint32_t reaped = 0;
    for (uint32_t i = 0; i < state.tasks.size(); ++i) {
      Ledger::Task& task = state.tasks[i];
      if (ledger_.ReapIfOverdue(task, now)) {
        // A speculated task may already have its duplicate's index parked
        // in `returned`; don't queue it twice.
        if (std::find(returned.begin(), returned.end(), i) == returned.end()) {
          returned.push_back(i);
          ++reaped;
        }
      } else if (task.phase == Ledger::Phase::kIssued && policy.SpeculationOn() &&
                 !task.speculated &&
                 now - task.issued_at >
                     std::chrono::microseconds(static_cast<int64_t>(
                         policy.speculation_threshold *
                         static_cast<double>(state.durations_us[i])))) {
        task.speculated = true;
        ++counters.tasks_speculated;
        returned.push_back(i);
        ++reaped;
      }
    }
    const auto unassigned = static_cast<uint32_t>(returned.size() + state.tasks.size()) -
                            state.extra.next_unassigned;
    if (reaped > 0) {
      counters.probes_lost += reaped;
      SendProbesLocked(job, state, reaped);
    } else if (policy.enabled && unassigned > 0 && now > state.extra.probe_deadline) {
      // No grant or completion progress for a full detection window while
      // tasks sit unassigned: every outstanding probe died with a crashed
      // node or was dropped by the bus. Replace them (one per pending task;
      // the watchdog re-fires if those die too).
      counters.probes_lost += unassigned;
      SendProbesLocked(job, state, unassigned);
    }
  }
}

// --- CentralBackend ---------------------------------------------------------

CentralBackend::CentralBackend(Address address, const Cluster* layout,
                               const FaultRecoveryPolicy& faults, MessageBus* bus,
                               CompletionSink* sink)
    : address_(address),
      bus_(bus),
      ledger_(faults, sink, &mu_),
      waiting_(*layout, layout->GeneralCount()),
      epoch_(std::chrono::steady_clock::now()) {
  HAWK_CHECK(bus != nullptr);
  lane_charges_.resize(waiting_.NumLanes());
  lane_running_.assign(waiting_.NumLanes(), 0);
  lane_deferred_finishes_.assign(waiting_.NumLanes(), 0);
}

void CentralBackend::Start() {
  bus_->Register(address_, [this](const BusMessage& m) { HandleMessage(m); });
}

void CentralBackend::PlaceTaskLocked(JobId job, Ledger::Job& state, uint32_t task_index) {
  SlotId lane = 0;
  const WorkerId worker = waiting_.AssignTask(NowUs(), state.extra.estimate_us, &lane);
  lane_charges_[lane].push_back(state.extra.estimate_us);
  const TaskMsg place = TaskMsg::Place(job, task_index, state.durations_us[task_index],
                                       state.is_long, address_, lane);
  // The deadline budgets the run itself plus the adaptive window, which has
  // absorbed typical queue wait; a task parked deep in a busy queue can
  // still overrun it and be re-placed while alive.
  ledger_.Issue(job, state, task_index);
  bus_->Send(address_, worker, kTaskPlace, place);
}

void CentralBackend::HandleMessage(const BusMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (message.type) {
    case kJobSubmit: {
      const JobSubmitMsg& submit = std::get<JobSubmitMsg>(message.payload);
      Ledger::Job& state = ledger_.Admit(submit);
      state.extra.estimate_us = submit.estimate_us;
      for (uint32_t i = 0; i < state.tasks.size(); ++i) {
        PlaceTaskLocked(submit.job, state, i);
      }
      break;
    }
    case kTaskStarted: {
      const JobRefMsg& started = std::get<JobRefMsg>(message.payload);
      // Lane-routed feedback: the monitor echoes the lane charged at
      // placement, so delivery reorderings on the multi-threaded bus cannot
      // misattribute the estimate (see slot_waiting_queue.h). The estimate
      // comes from the lane's charge FIFO, never from the ledger — a short
      // task's kTaskDone handler may have run first and retired the job.
      HAWK_CHECK_LT(started.slot, lane_charges_.size());
      std::deque<int64_t>& charges = lane_charges_[started.slot];
      HAWK_CHECK(!charges.empty()) << "start on lane " << started.slot
                                   << " with no assignment charged";
      const int64_t estimate_us = charges.front();
      charges.pop_front();
      waiting_.OnTaskStartLane(started.slot, NowUs(), estimate_us);
      ++lane_running_[started.slot];
      // Replay a finish that overtook this start, so the lane is never left
      // marked executing with its completion already consumed.
      if (lane_deferred_finishes_[started.slot] > 0) {
        --lane_deferred_finishes_[started.slot];
        --lane_running_[started.slot];
        waiting_.OnTaskFinishLane(started.slot, NowUs());
      }
      break;
    }
    case kTaskDone: {
      const TaskMsg& done = std::get<TaskMsg>(message.payload);
      // Lane feedback first, and unconditionally: whichever copy finished
      // did start on the echoed lane, so the running count and waiting-time
      // estimate come back down even when the completion is a duplicate at
      // the job level.
      HAWK_CHECK_LT(done.slot, lane_running_.size());
      if (lane_running_[done.slot] > 0) {
        --lane_running_[done.slot];
        waiting_.OnTaskFinishLane(done.slot, NowUs());
      } else {
        // This task's own kTaskStarted handler has not run yet; park the
        // finish for it to replay.
        ++lane_deferred_finishes_[done.slot];
      }
      ledger_.Complete(done);
      break;
    }
    default:
      HAWK_CHECK(false) << "backend got unexpected message type " << message.type;
  }
}

void CentralBackend::ReapOverdue() {
  if (!ledger_.policy().enabled) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  for (auto& [job, state] : ledger_.owned()) {
    for (uint32_t i = 0; i < state.tasks.size(); ++i) {
      if (ledger_.ReapIfOverdue(state.tasks[i], now)) {
        // Presumed dead with its node; place a fresh copy through the
        // waiting-time queue (which also re-arms the deadline, backed off
        // by the bumped attempt count). The dead copy's lane charge stays
        // in its FIFO — per-lane totals remain self-consistent because
        // charges and starts pair up in lane order, and a never-started
        // charge only pads that lane's estimate.
        PlaceTaskLocked(job, state, i);
      }
    }
  }
}

}  // namespace runtime
}  // namespace hawk
