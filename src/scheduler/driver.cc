#include "src/scheduler/driver.h"

namespace hawk {

RunResult SimulationDriver::Run() {
  // Job arrivals are streamed from the already-sorted trace via a cursor
  // instead of preloading one heap event per job: the heap stays at
  // O(in-flight events) no matter how long the trace is. Tie-breaking is
  // preserved exactly: in the preloaded formulation every job arrival was
  // pushed before any other event and therefore carried the lowest sequence
  // numbers, so job arrivals won every time-tie — here the cursor side of
  // the merge wins ties (<=) for the same effect, and dynamic events keep
  // their relative sequence order. Pop order, and thus every result bit,
  // is identical.
  const std::vector<Job>& jobs = trace_->jobs();
  size_t next_job = 0;
  ArmTimers();
  while (next_job < jobs.size() || !events_.Empty()) {
    if (next_job < jobs.size() &&
        (events_.Empty() || jobs[next_job].submit_time <= events_.PeekTime())) {
      const Job& job = jobs[next_job++];
      HAWK_CHECK_GE(job.submit_time, now_) << "trace must be sorted by submit time";
      now_ = job.submit_time;
      result_.counters.events++;
      ArriveJob(job);
      continue;
    }
    auto entry = events_.Pop();
    HAWK_CHECK_GE(entry.at, now_);
    now_ = entry.at;
    result_.counters.events++;
    Dispatch(entry.payload);
  }
  return Finish();
}

void SimulationDriver::Dispatch(const SimEvent& ev) {
  switch (ev.type) {
    case SimEvent::Type::kProbeArrive:
    case SimEvent::Type::kTaskArrive:
      ++deliveries_consumed_;
      if (DeliveryDead(ev)) {
        LoseDelivery(ev);
        break;
      }
      cluster_.workers().Enqueue(ev.worker, DeliveredEntry(ev, now_));
      TryDispatch(ev.worker);
      break;
    case SimEvent::Type::kTaskComplete:
      if (ev.incarnation != incarnation_[ev.worker]) {
        // Completion of a task the crash already killed and returned; the
        // re-dispatched copy is the only live one.
        break;
      }
      EndExecution(ev);
      CommitCompletion(ev);
      if (down_[ev.worker] == DownKind::kUp) {
        TryDispatch(ev.worker);
      }
      break;
    case SimEvent::Type::kSpecCheck:
      // A check for a copy that died with its worker is dropped: crash
      // re-dispatch owns recovery.
      if (ev.incarnation == incarnation_[ev.worker]) {
        Straggling(ev);
      }
      break;
    default:
      HandleCoordinatorEvent(ev);
  }
}

void SimulationDriver::StartExecution(WorkerId worker, const QueueEntry& task) {
  // Straggler injection: a stricken copy drags for slowdown x its duration.
  // The stretch is real occupancy (charged to busy) but not useful work, so
  // it is pre-charged to wasted here; a crash that kills the copy early
  // corrects the pre-charge (see DriverCore::CrashWorker).
  DurationUs actual = task.duration;
  if (stragglers_on_ && fault_rng_.Bernoulli(config_.straggler_rate)) {
    actual = Stretched(task.duration);
    result_.counters.wasted_work_us += static_cast<uint64_t>(actual - task.duration);
  }
  OccupySlot(worker, task, actual, now_);
  // The policy sees the nominal duration: a straggler is indistinguishable
  // from a healthy task at start time, exactly as on a real cluster.
  // Speculative duplicates are invisible to execution feedback — a
  // centralized waiting-time queue never assigned them, so a start charge
  // for one would underflow the backlog of whatever worker runs the copy.
  if (!task.speculative) {
    policy_->OnTaskStart(worker, task);
    // Schedule the straggling check only when this copy will provably still
    // be running when it fires — otherwise the completion beats it and the
    // check could only no-op.
    const SimTime delay = SpecCheckDelay(task.job);
    if (delay > 0 && delay < actual &&
        spec_state_.find(TaskKey(task.job, task.task_index)) == spec_state_.end()) {
      events_.Push(now_ + delay,
                   Stamped(SimEvent::OfTask(SimEvent::Type::kSpecCheck, worker, task)));
    }
  }
  events_.Push(now_ + actual,
               Stamped(SimEvent::OfTask(SimEvent::Type::kTaskComplete, worker, task)));
}

}  // namespace hawk
