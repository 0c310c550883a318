// Per-job progress: late-binding task hand-out and completion tracking.
//
// The tracker owns the single authoritative copy of "which tasks of job J
// have been handed out", which is what makes Sparrow-style late binding safe:
// however many probes are queued across the cluster, each task is given out
// exactly once, and surplus probes resolve to cancels.
#ifndef HAWK_CLUSTER_JOB_TRACKER_H_
#define HAWK_CLUSTER_JOB_TRACKER_H_

#include <optional>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/workload/trace.h"

namespace hawk {

struct TaskAssignment {
  TaskIndex task_index;
  DurationUs duration;
};

class JobTracker {
 public:
  explicit JobTracker(const Trace* trace) : trace_(trace) {
    HAWK_CHECK(trace != nullptr);
    progress_.resize(trace->NumJobs());
    for (size_t i = 0; i < trace->NumJobs(); ++i) {
      progress_[i].unfinished = trace->job(i).NumTasks();
    }
  }

  // Recorded at job arrival: the noise-free class used for metrics, and the
  // (possibly mis-estimated) runtime estimate the scheduler acted on, which
  // schedulers look up on task start/finish feedback.
  void SetClassification(JobId id, bool is_long_metrics, DurationUs estimate_us) {
    State& s = state(id);
    s.is_long_metrics = is_long_metrics;
    s.estimate_us = estimate_us;
  }

  bool IsLongMetrics(JobId id) const { return state(id).is_long_metrics; }
  DurationUs EstimateUs(JobId id) const { return state(id).estimate_us; }

  // Hands out the next unassigned task, or nullopt if all tasks are out
  // (the probe's request is answered with a cancel). Tasks handed back by
  // ReturnTask are re-issued first, oldest first.
  std::optional<TaskAssignment> TakeNextTask(JobId id) {
    State& s = state(id);
    if (!s.returned.empty()) {
      const TaskAssignment a = s.returned.front();
      s.returned.erase(s.returned.begin());
      return a;
    }
    const Job& job = trace_->job(id);
    if (s.next_unassigned >= job.NumTasks()) {
      return std::nullopt;
    }
    const TaskIndex idx = s.next_unassigned++;
    return TaskAssignment{idx, job.task_durations[idx]};
  }

  // Hands a previously assigned task back for re-dispatch (its worker
  // crashed or its placement was invalidated). The exactly-once guarantee
  // holds because the caller only returns a task whose current placement is
  // provably dead; an over-return of a finished job fails the unfinished
  // CHECK below on the extra completion.
  void ReturnTask(JobId id, const TaskAssignment& assignment) {
    State& s = state(id);
    HAWK_CHECK_LT(assignment.task_index, trace_->job(id).NumTasks());
    HAWK_CHECK_GT(s.unfinished, 0u) << "task returned for finished job " << id;
    s.returned.push_back(assignment);
  }

  bool AllTasksAssigned(JobId id) const {
    const State& s = state(id);
    return s.returned.empty() && s.next_unassigned >= trace_->job(id).NumTasks();
  }

  // Marks one task finished; returns true when this completed the job.
  bool OnTaskFinished(JobId id, SimTime now) {
    State& s = state(id);
    HAWK_CHECK_GT(s.unfinished, 0u) << "job " << id << " over-completed";
    --s.unfinished;
    if (s.unfinished == 0) {
      s.finish_time = now;
      ++jobs_finished_;
      return true;
    }
    return false;
  }

  SimTime FinishTime(JobId id) const { return state(id).finish_time; }

  size_t jobs_finished() const { return jobs_finished_; }
  bool AllJobsFinished() const { return jobs_finished_ == trace_->NumJobs(); }

 private:
  struct State {
    uint32_t next_unassigned = 0;
    uint32_t unfinished = 0;
    bool is_long_metrics = false;
    DurationUs estimate_us = 0;
    SimTime finish_time = -1;
    // Tasks handed back by the fault layer, awaiting re-dispatch (empty in
    // fault-free runs).
    std::vector<TaskAssignment> returned;
  };

  State& state(JobId id) {
    HAWK_CHECK_LT(id, progress_.size());
    return progress_[id];
  }
  const State& state(JobId id) const {
    HAWK_CHECK_LT(id, progress_.size());
    return progress_[id];
  }

  const Trace* trace_;
  std::vector<State> progress_;
  size_t jobs_finished_ = 0;
};

}  // namespace hawk

#endif  // HAWK_CLUSTER_JOB_TRACKER_H_
