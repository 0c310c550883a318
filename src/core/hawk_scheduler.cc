#include "src/core/hawk_scheduler.h"

#include "src/core/probe_placement.h"

namespace hawk {

void HawkPolicy::Attach(SchedulerContext* ctx) {
  SchedulerPolicy::Attach(ctx);
  shape_ = ShapeForRuntime(config_);
  const Cluster& cluster = ctx->GetCluster();
  spans_[0] = ResolveProbeSpan(cluster, shape_.short_probe_span);
  spans_[1] = ResolveProbeSpan(cluster, shape_.long_probe_span);
  for (const bool is_long : {false, true}) {
    HAWK_CHECK(Centralized(is_long) || spans_[is_long].count > 0)
        << Name() << " probes an empty " << (is_long ? "long" : "short") << "-job span";
  }
  if (shape_.centralized_long || shape_.centralized_short) {
    central_queue_ = std::make_unique<SlotWaitingTimeQueue>(cluster, cluster.GeneralCount());
  }
  // The stealer's seed is drawn whenever the design steals, even with
  // steal_cap=0, so turning stealing off changes nothing but the steals.
  if (design_.stealing) {
    stealing_ = std::make_unique<StealingPolicy>(config_.steal_cap, ctx->SchedRng().Next(),
                                                 shape_.victim_selection);
  }
}

void HawkPolicy::OnJobArrival(const Job& job, const JobClass& cls) {
  const bool is_long = cls.is_long_sched;
  if (Centralized(is_long)) {
    ScheduleCentralized(job, is_long);
    return;
  }
  const Cluster& cluster = ctx_->GetCluster();
  const SlotSpan& span = spans_[is_long];
  ChooseProbeTargetsInto(ctx_->SchedRng(), span.first, span.count,
                         config_.probe_ratio * job.NumTasks(), &targets_, &picks_);
  for (const SlotId slot : targets_) {
    ctx_->PlaceProbe(cluster.WorkerOfSlot(slot), job.id, is_long);
  }
}

void HawkPolicy::ScheduleCentralized(const Job& job, bool is_long) {
  // Canonical rounded estimate from the tracker: the same value is replayed
  // by the start/finish feedback, keeping the backlog accounting exact.
  const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job.id);
  for (uint32_t i = 0; i < job.NumTasks(); ++i) {
    PlaceCentralTask(job.id, estimate_us, is_long);
  }
}

void HawkPolicy::PlaceCentralTask(JobId job, DurationUs estimate_us, bool is_long) {
  const auto assignment = ctx_->Tracker().TakeNextTask(job);
  HAWK_CHECK(assignment.has_value()) << "job " << job << " has no unassigned task";
  const WorkerId worker = central_queue_->AssignTask(ctx_->Now(), estimate_us);
  ctx_->PlaceTask(worker, job, assignment->task_index, assignment->duration, is_long);
}

void HawkPolicy::ProbeOnce(JobId job, bool is_long) {
  const SlotSpan& span = spans_[is_long];
  const auto slot = static_cast<SlotId>(span.first + ctx_->SchedRng().NextBounded(span.count));
  ctx_->PlaceProbe(ctx_->GetCluster().WorkerOfSlot(slot), job, is_long);
}

// Only centrally placed tasks are tracked by the waiting-time queue; probed
// classes are invisible to the centralized component (§3.7).
void HawkPolicy::OnTaskStart(WorkerId worker, const QueueEntry& task) {
  if (Centralized(task.is_long)) {
    central_queue_->OnTaskStart(worker, ctx_->Now(), ctx_->Tracker().EstimateUs(task.job));
  }
}

void HawkPolicy::OnTaskFinish(WorkerId worker, JobId job, bool is_long) {
  (void)job;
  if (Centralized(is_long)) {
    central_queue_->OnTaskFinish(worker, ctx_->Now());
  }
}

void HawkPolicy::OnTaskLost(JobId job, bool is_long) {
  // A centrally placed task goes back through the waiting-time queue — its
  // scheduler lane — so the replacement again lands on the worker with the
  // minimum estimated wait. A probed class re-probes its span.
  if (Centralized(is_long)) {
    PlaceCentralTask(job, ctx_->Tracker().EstimateUs(job), is_long);
  } else {
    ProbeOnce(job, is_long);
  }
}

void HawkPolicy::OnProbeLost(JobId job, bool is_long) {
  if (ctx_->Tracker().AllTasksAssigned(job)) {
    return;
  }
  // Only a late-binding central lane probes a centralized class; its
  // replacement again goes to the minimum-wait worker.
  if (Centralized(is_long)) {
    const WorkerId worker =
        central_queue_->AssignTask(ctx_->Now(), ctx_->Tracker().EstimateUs(job));
    ctx_->PlaceProbe(worker, job, is_long);
    return;
  }
  ProbeOnce(job, is_long);
}

void HawkPolicy::OnWorkerIdle(WorkerId worker) {
  // Stolen entries land straight on the thief's queue; the driver re-examines
  // it when this notification returns (stealing is free in the §4.1 cost
  // model), so no DeliverStolen round trip is needed.
  if (shape_.stealing) {
    stealing_->TryStealInto(ctx_->GetCluster(), worker, &ctx_->Counters());
  }
}

void HawkLateBindPolicy::ScheduleCentralized(const Job& job, bool is_long) {
  // One probe per task on the minimum-wait worker. Tasks stay in the tracker
  // until a probe reaches service and its request is granted — the same late
  // binding short jobs get, aimed by the waiting-time queue instead of
  // random sampling. The estimate is charged here (AssignTask) and
  // discharged by OnTaskStart when the granted task runs, exactly as in the
  // eager lane.
  const DurationUs estimate_us = ctx_->Tracker().EstimateUs(job.id);
  for (uint32_t i = 0; i < job.NumTasks(); ++i) {
    ctx_->PlaceProbe(central_queue().AssignTask(ctx_->Now(), estimate_us), job.id, is_long);
  }
}

}  // namespace hawk
