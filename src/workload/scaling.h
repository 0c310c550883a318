// Trace scaling transforms (paper §4.1, "Real cluster run").
//
// The paper scales the Google trace to its 100-node prototype by (a) capping
// tasks-per-job "keeping constant the ratio between the cluster size and the
// largest number of tasks in a job" while stretching the remaining tasks to
// preserve each job's task-seconds, and (b) dividing durations by 1000x
// (seconds become milliseconds). The same transforms also make a trace safe
// for a simulated cluster: with 2t probes per t tasks, tasks-per-job must not
// exceed half the eligible workers or probes could not cover all tasks.
#ifndef HAWK_WORKLOAD_SCALING_H_
#define HAWK_WORKLOAD_SCALING_H_

#include "src/workload/trace.h"

namespace hawk {

// Caps every job at `max_tasks` tasks. Removed work is redistributed onto the
// kept tasks by scaling their durations so the job's total task-seconds is
// preserved exactly (up to integer rounding). Kept tasks are an evenly strided
// subsample so the duration distribution shape survives.
Trace CapTasksPreserveWork(const Trace& trace, uint32_t max_tasks);

// Multiplies all durations and submission times by `factor` (e.g. 1e-3 for
// the paper's seconds->milliseconds prototype scaling). Durations are clamped
// to at least 1 us.
Trace RescaleTime(const Trace& trace, double factor);

}  // namespace hawk

#endif  // HAWK_WORKLOAD_SCALING_H_
