#include "src/workload/scaling.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace hawk {

Trace CapTasksPreserveWork(const Trace& trace, uint32_t max_tasks) {
  HAWK_CHECK_GT(max_tasks, 0u);
  Trace scaled;
  for (const Job& job : trace.jobs()) {
    if (job.NumTasks() <= max_tasks) {
      scaled.Add(job);
      continue;
    }
    Job capped;
    capped.submit_time = job.submit_time;
    capped.long_hint = job.long_hint;
    // Evenly strided subsample keeps the within-job duration mix.
    capped.task_durations.reserve(max_tasks);
    const double stride = static_cast<double>(job.NumTasks()) / static_cast<double>(max_tasks);
    DurationUs kept_work = 0;
    for (uint32_t i = 0; i < max_tasks; ++i) {
      const auto idx = static_cast<size_t>(static_cast<double>(i) * stride);
      const DurationUs d = job.task_durations[std::min<size_t>(idx, job.NumTasks() - 1)];
      capped.task_durations.push_back(d);
      kept_work += d;
    }
    HAWK_CHECK_GT(kept_work, 0);
    const double stretch =
        static_cast<double>(job.TotalWorkUs()) / static_cast<double>(kept_work);
    for (DurationUs& d : capped.task_durations) {
      d = std::max<DurationUs>(1, static_cast<DurationUs>(std::llround(
                                      static_cast<double>(d) * stretch)));
    }
    scaled.Add(std::move(capped));
  }
  scaled.SortAndRenumber();
  return scaled;
}

Trace RescaleTime(const Trace& trace, double factor) {
  HAWK_CHECK_GT(factor, 0.0);
  Trace scaled;
  for (const Job& job : trace.jobs()) {
    Job rescaled = job;
    rescaled.submit_time = static_cast<SimTime>(
        std::llround(static_cast<double>(job.submit_time) * factor));
    for (DurationUs& d : rescaled.task_durations) {
      d = std::max<DurationUs>(
          1, static_cast<DurationUs>(std::llround(static_cast<double>(d) * factor)));
    }
    scaled.Add(std::move(rescaled));
  }
  scaled.SortAndRenumber();
  return scaled;
}

}  // namespace hawk
