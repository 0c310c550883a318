#include "src/scheduler/driver_core.h"

#include "src/scheduler/driver.h"
#include "src/scheduler/sharded_driver.h"

namespace hawk {

template <typename Executor>
DriverCore<Executor>::DriverCore(const Trace* trace, const HawkConfig& config,
                                 uint32_t general_count, SchedulerPolicy* policy)
    : trace_(trace),
      config_(config),
      policy_(policy),
      cluster_(config.num_workers, general_count, config.Slots()),
      tracker_(trace),
      classifier_(config.classify_mode, config.cutoff_us, config.estimate_noise_lo,
                  config.estimate_noise_hi, Rng(config.seed).Next()),
      sched_rng_(Rng(config.seed ^ 0x5DEECE66DULL).Next()),
      fault_rng_(Rng(config.seed ^ 0x8BADF00DDEADBEEFULL ^
                     (config.fault_seed * 0x9E3779B97F4A7C15ULL))
                     .Next()),
      // The retransmit-timeout estimator starts from the cost model's RTT
      // (2 x one-way delay); the floor keeps retries at or above one RTT and
      // the cap bounds the exponential backoff at 256x the historical fixed
      // timeout (4 x one-way delay).
      rto_(/*expected_us=*/2.0 * static_cast<double>(config.net_delay_us),
           /*floor_us=*/std::max<DurationUs>(1, 2 * config.net_delay_us),
           /*cap_us=*/256 * std::max<DurationUs>(1, 4 * config.net_delay_us)) {
  HAWK_CHECK(trace != nullptr);
  HAWK_CHECK(policy != nullptr);
  retry_pending_.assign(config.num_workers, 0);
  faults_enabled_ = config.FaultsEnabled();
  net_faulty_ = config.message_loss_rate > 0.0 || config.message_delay_jitter_us > 0;
  track_exec_ = config.worker_crash_rate > 0.0;
  stragglers_on_ = config.straggler_rate > 0.0;
  // The policy, not the raw config, owns the effective speculation threshold
  // (hawk-spec forces it on). Queried before Attach; must not touch ctx_.
  spec_threshold_ = policy->SpeculationThreshold(config);
  speculation_enabled_ = spec_threshold_ > 0.0;
  if (config.worker_crash_rate > 0.0 || config.worker_churn_rate > 0.0) {
    incarnation_.assign(config.num_workers, 0);
    down_.assign(config.num_workers, DownKind::kUp);
  }
  if (track_exec_) {
    exec_records_.resize(config.num_workers);
  }
  // ShapeForRuntime is const and must not touch the context.
  policy_can_steal_ = policy->ShapeForRuntime(config).stealing;
  policy_->Attach(this);
}

// --- run framing -------------------------------------------------------------

template <typename Executor>
void DriverCore<Executor>::ArmTimers() {
  if (trace_->jobs().empty()) {
    return;
  }
  self().QueueTimer(config_.util_sample_period_us, SimEvent::UtilSample());
  // Fault processes are armed once here and re-arm themselves until the
  // last job finishes; a zero rate never draws from the fault RNG.
  if (config_.worker_crash_rate > 0.0) {
    ScheduleFaultTick(SimEvent::Type::kCrashTick);
  }
  if (config_.worker_churn_rate > 0.0) {
    ScheduleFaultTick(SimEvent::Type::kDepartTick);
  }
}

template <typename Executor>
void DriverCore<Executor>::ArriveJob(const Job& job) {
  const JobClass cls = classifier_.Classify(job);
  tracker_.SetClassification(
      job.id, cls.is_long_metrics,
      static_cast<DurationUs>(std::llround(std::max(0.0, cls.estimate_us))));
  result_.counters.jobs++;
  policy_->OnJobArrival(job, cls);
}

template <typename Executor>
RunResult DriverCore<Executor>::Finish() {
  HAWK_CHECK(tracker_.AllJobsFinished())
      << "simulation drained with " << trace_->NumJobs() - tracker_.jobs_finished()
      << " unfinished jobs";
  CollectResults();
  return std::move(result_);
}

template <typename Executor>
void DriverCore<Executor>::CollectResults() {
  result_.total_busy_us = cluster_.TotalBusyUs();
  result_.jobs.reserve(trace_->NumJobs());
  for (const Job& job : trace_->jobs()) {
    JobResult r;
    r.id = job.id;
    r.is_long = tracker_.IsLongMetrics(job.id);
    r.submit_time = job.submit_time;
    r.finish_time = tracker_.FinishTime(job.id);
    HAWK_CHECK_GE(r.finish_time, r.submit_time);
    r.runtime_us = r.finish_time - r.submit_time;
    result_.makespan_us = std::max(result_.makespan_us, r.finish_time);
    result_.jobs.push_back(r);
  }
}

// --- fault layer and recovery ledger -----------------------------------------

template <typename Executor>
void DriverCore<Executor>::LoseDelivery(const SimEvent& ev) {
  if (ev.type == SimEvent::Type::kProbeArrive) {
    LostProbe(ev.job, ev.is_long);
    return;
  }
  // A concrete task goes back to its scheduler lane for re-dispatch. A
  // speculative duplicate is not tracker-owned: losing it only matters if it
  // was the last live copy.
  if ((ev.flags & SimEvent::kFlagAbandoned) != 0) {
    ++result_.counters.tasks_abandoned;
  }
  if ((ev.flags & SimEvent::kFlagSpeculative) != 0) {
    SpecCopyVanished(ev.job, ev.task_index, ev.arg, ev.is_long);
  } else {
    LostTask(ev.job, ev.task_index, ev.arg, ev.is_long);
  }
}

template <typename Executor>
bool DriverCore<Executor>::StealRetryUseful() const {
  if (!policy_can_steal_) {
    return false;
  }
  if (faults_enabled_) {
    // Crashes and drops can re-queue work at any time; keep polling.
    return true;
  }
  // Work can still reach some queue: jobs not yet arrived, entries queued
  // somewhere, or deliveries in flight. Request resolves and completions
  // never enqueue, so none of the remaining event kinds can create stealable
  // work once these three sources are dry.
  const uint64_t consumed = self().DeliveriesConsumed();
  HAWK_CHECK_GE(deliveries_pushed_, consumed);
  return result_.counters.jobs < trace_->NumJobs() || cluster_.workers().TotalQueued() > 0 ||
         deliveries_pushed_ > consumed;
}

template <typename Executor>
void DriverCore<Executor>::ScheduleFaultTick(SimEvent::Type type) {
  const double rate_per_second = type == SimEvent::Type::kCrashTick
                                     ? config_.worker_crash_rate
                                     : config_.worker_churn_rate;
  // Cluster-wide Poisson process: per-worker rate times fleet size.
  const double mean_us = 1e6 / (rate_per_second * static_cast<double>(config_.num_workers));
  const auto wait = static_cast<SimTime>(std::llround(fault_rng_.Exponential(mean_us)));
  self().QueueTimer(now_ + std::max<SimTime>(wait, 1), SimEvent::Of(type));
}

template <typename Executor>
void DriverCore<Executor>::HandleFaultTick(SimEvent::Type type) {
  if (tracker_.AllJobsFinished()) {
    // The run is over; let the process die out so the event loop drains.
    return;
  }
  // Draw the victim before re-arming so the stream reads (victim, next-wait)
  // per tick regardless of what the victim draw hits.
  const auto victim =
      static_cast<WorkerId>(fault_rng_.UniformInt(0, config_.num_workers - 1));
  const bool up = Down(victim) == DownKind::kUp;
  ScheduleFaultTick(type);
  if (!up) {
    // Already out of service; this tick fizzles (the fault process does not
    // queue up faults behind a down node).
    return;
  }
  if (type == SimEvent::Type::kCrashTick) {
    CrashWorker(victim);
  } else {
    DepartWorker(victim);
  }
}

template <typename Executor>
void DriverCore<Executor>::CrashWorker(WorkerId worker) {
  WorkerStore& workers = cluster_.workers();
  result_.counters.worker_crashes++;
  down_[worker] = DownKind::kCrashed;
  // Everything in flight to or from the dead incarnation — deliveries,
  // request resolves, completions, idle retries — is now stale.
  ++incarnation_[worker];
  // A crashed worker must not leak a pending-retry bit that would suppress
  // retries after it rejoins.
  retry_pending_[worker] = 0;
  drain_scratch_.clear();
  workers.DrainQueueInto(worker, &drain_scratch_);
  // The swap leaves the worker's record vector empty with the scratch's old
  // capacity, so a warm crash costs no allocation.
  crash_exec_scratch_.clear();
  if (track_exec_) {
    crash_exec_scratch_.swap(exec_records_[worker]);
  } else {
    HAWK_CHECK_EQ(workers.ExecutingSlots(worker), 0u)
        << "crash injection without exec tracking";
  }
  workers.ResetSlots(worker);
  // Re-dispatch after the store is consistent: the policy callbacks below
  // may place probes/tasks (even back onto this worker — they bounce off the
  // down check on arrival).
  for (const QueueEntry& entry : drain_scratch_) {
    ReDispatchEntry(entry);
  }
  for (const ExecRecord& rec : crash_exec_scratch_) {
    // BeginExecute charged the full (possibly straggler-stretched) duration
    // up front; the killed run only delivered `ran` of it, and even that is
    // wasted. A straggler's stretch was already pre-charged to wasted at
    // start, so the correction nets the copy's waste to exactly `ran`.
    const DurationUs ran = std::max<SimTime>(0, now_ - rec.started_at);
    workers.DeductBusyUs(worker, rec.actual_duration - ran);
    const int64_t waste_delta = ran - (rec.actual_duration - rec.duration);
    result_.counters.wasted_work_us = static_cast<uint64_t>(
        static_cast<int64_t>(result_.counters.wasted_work_us) + waste_delta);
    if (rec.speculative) {
      SpecCopyVanished(rec.job, rec.task_index, rec.duration, rec.is_long);
      continue;
    }
    if (speculation_enabled_) {
      const uint64_t key = TaskKey(rec.job, rec.task_index);
      auto it = spec_state_.find(key);
      if (it != spec_state_.end()) {
        // The primary died while duplicate machinery is live: if a duplicate
        // is still out there (or the task already finished), it owns the
        // outcome; only a fully orphaned task re-enters the lost-task lane.
        SpecState& st = it->second;
        st.primary_owned = false;
        if (!st.done && st.spec_outstanding == 0) {
          st.primary_owned = true;
          LostTask(rec.job, rec.task_index, rec.duration, rec.is_long);
        }
        MaybeEraseSpec(key);
        continue;
      }
    }
    LostTask(rec.job, rec.task_index, rec.duration, rec.is_long);
  }
  self().QueueTimer(now_ + config_.worker_downtime_us,
                    SimEvent::Of(SimEvent::Type::kWorkerRejoin, worker));
}

template <typename Executor>
void DriverCore<Executor>::DepartWorker(WorkerId worker) {
  result_.counters.worker_departures++;
  down_[worker] = DownKind::kDeparted;
  // Graceful: queued entries are bounced back to their schedulers right
  // away, executing tasks run to completion, and in-flight requests resolve
  // as declines (see ResolveRequest). No incarnation bump — completions from
  // this incarnation are still good.
  drain_scratch_.clear();
  cluster_.workers().DrainQueueInto(worker, &drain_scratch_);
  for (const QueueEntry& entry : drain_scratch_) {
    ReDispatchEntry(entry);
  }
  self().QueueTimer(now_ + config_.worker_downtime_us,
                    SimEvent::Of(SimEvent::Type::kWorkerRejoin, worker));
}

template <typename Executor>
void DriverCore<Executor>::RejoinWorker(WorkerId worker) {
  down_[worker] = DownKind::kUp;
  result_.counters.worker_rejoins++;
  // Fresh and empty: give it a dispatch pass so it can steal straight away.
  TryDispatch(worker);
}

template <typename Executor>
void DriverCore<Executor>::ReDispatchEntry(const QueueEntry& entry) {
  if (entry.kind != EntryKind::kTask) {
    LostProbe(entry.job, entry.is_long);
  } else if (entry.speculative) {
    SpecCopyVanished(entry.job, entry.task_index, entry.duration, entry.is_long);
  } else {
    LostTask(entry.job, entry.task_index, entry.duration, entry.is_long);
  }
}

template <typename Executor>
void DriverCore<Executor>::LostProbe(JobId job, bool is_long) {
  result_.counters.probes_lost++;
  policy_->OnProbeLost(job, is_long);
}

template <typename Executor>
void DriverCore<Executor>::LostTask(JobId job, TaskIndex task_index, DurationUs duration,
                                    bool is_long) {
  tracker_.ReturnTask(job, TaskAssignment{task_index, duration});
  result_.counters.tasks_re_dispatched++;
  policy_->OnTaskLost(job, is_long);
}

// --- speculative re-execution ------------------------------------------------

template <typename Executor>
void DriverCore<Executor>::PlaceSpeculative(WorkerId worker, JobId job, TaskIndex task_index,
                                            DurationUs duration, bool is_long) {
  HAWK_CHECK(speculation_enabled_) << "PlaceSpeculative outside a speculation run";
  SpecState& st = spec_state_[TaskKey(job, task_index)];
  ++st.spec_outstanding;
  ++result_.counters.tasks_speculated;
  SimEvent ev = SimEvent::TaskArrive(worker, job, task_index, duration, is_long);
  ev.flags |= SimEvent::kFlagSpeculative;
  SendDelivery(ev);
}

template <typename Executor>
void DriverCore<Executor>::SpecCopyVanished(JobId job, TaskIndex task_index,
                                            DurationUs duration, bool is_long) {
  const uint64_t key = TaskKey(job, task_index);
  auto it = spec_state_.find(key);
  HAWK_CHECK(it != spec_state_.end()) << "speculative copy of job " << job << " task "
                                      << task_index << " has no state";
  SpecState& st = it->second;
  HAWK_CHECK_GT(st.spec_outstanding, 0u);
  --st.spec_outstanding;
  if (!st.done && st.spec_outstanding == 0 && !st.primary_owned) {
    // The duplicate was the last live copy: ownership reverts to the normal
    // lost-task lane so the task still completes.
    st.primary_owned = true;
    LostTask(job, task_index, duration, is_long);
  }
  MaybeEraseSpec(key);
}

template <typename Executor>
bool DriverCore<Executor>::SpecCompletion(JobId job, TaskIndex task_index, DurationUs duration,
                                          bool speculative) {
  const uint64_t key = TaskKey(job, task_index);
  auto it = spec_state_.find(key);
  if (it == spec_state_.end()) {
    HAWK_CHECK(!speculative) << "speculative completion without state";
    return true;  // Never speculated: the normal single-copy path.
  }
  SpecState& st = it->second;
  if (speculative) {
    HAWK_CHECK_GT(st.spec_outstanding, 0u);
    --st.spec_outstanding;
  } else {
    st.primary_owned = false;
  }
  const bool first = !st.done;
  if (first) {
    st.done = true;
    if (speculative) {
      ++result_.counters.speculative_wins;
    }
  } else {
    // The losing copy's nominal work is pure waste (its straggler stretch,
    // if any, was already charged at start).
    ++result_.counters.duplicate_completions;
    result_.counters.speculative_wasted_us += static_cast<uint64_t>(duration);
    result_.counters.wasted_work_us += static_cast<uint64_t>(duration);
  }
  MaybeEraseSpec(key);
  return first;
}

template <typename Executor>
void DriverCore<Executor>::MaybeEraseSpec(uint64_t key) {
  auto it = spec_state_.find(key);
  if (it != spec_state_.end() && it->second.spec_outstanding == 0 &&
      !it->second.primary_owned) {
    HAWK_CHECK(it->second.done) << "speculation state dropped with the task unfinished";
    spec_state_.erase(it);
  }
}

template <typename Executor>
void DriverCore<Executor>::DropExecRecord(WorkerId worker, JobId job, TaskIndex task_index,
                                          bool speculative) {
  // The speculative flag disambiguates the (rare but legal) case of a
  // primary and its duplicate executing on the same worker.
  std::vector<ExecRecord>& records = exec_records_[worker];
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].job == job && records[i].task_index == task_index &&
        records[i].speculative == speculative) {
      records[i] = records.back();
      records.pop_back();
      return;
    }
  }
  HAWK_CHECK(false) << "no exec record for job " << job << " task " << task_index
                    << " on worker " << worker;
}

template class DriverCore<SimulationDriver>;
template class DriverCore<ShardedSimulationDriver>;

}  // namespace hawk
