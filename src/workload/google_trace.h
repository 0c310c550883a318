// Synthetic stand-in for the 2011 Google cluster trace; `hawk_figures
// --figure=table1` and `--figure=fig4` print its generated statistics.
//
// The real trace is not available offline; this generator is calibrated so
// the trace-level statistics Hawk's results depend on match the paper:
//   - 10% of jobs are long (Table 1/2),
//   - long jobs carry ~84% of task-seconds (Table 1),
//   - heavy-tailed tasks-per-job and per-job average task durations whose
//     CDF ranges match Figure 4 (short durations concentrated below ~800 s,
//     long durations 1.1ks-16ks; short jobs up to ~180 tasks, long jobs with
//     a tail to 8000 tasks),
//   - short/long populations overlap near the default 1129 s cutoff so the
//     cutoff-sensitivity experiment (Fig. 12/13) reclassifies jobs the way
//     the paper describes.
#ifndef HAWK_WORKLOAD_GOOGLE_TRACE_H_
#define HAWK_WORKLOAD_GOOGLE_TRACE_H_

#include <cstdint>

#include "src/workload/trace.h"

namespace hawk {

struct GoogleTraceParams {
  uint32_t num_jobs = 4000;
  uint64_t seed = 1;

  double frac_long = 0.10;

  // Short jobs: #tasks ~ 1 + Exp(mean), capped; per-job mean task duration
  // ~ Exp(mean), capped just below the long population.
  double short_tasks_mean = 19.0;
  uint32_t short_tasks_cap = 180;
  double short_dur_mean_s = 300.0;
  double short_dur_cap_s = 1100.0;
  double short_dur_min_s = 1.0;

  // Long jobs: #tasks ~ LogNormal(median, sigma), capped; per-job mean task
  // duration = base + LogNormal(median, sigma) (shifted so every long job
  // sits above the default cutoff), positively correlated with #tasks via
  // (n / tasks_median)^corr_exponent, mirroring the real trace where the
  // biggest jobs also have the longest tasks.
  double long_tasks_median = 22.0;
  double long_tasks_sigma = 1.3;
  uint32_t long_tasks_cap = 8000;
  double long_dur_base_s = 1130.0;
  double long_dur_median_s = 1800.0;
  double long_dur_sigma = 1.0;
  double long_dur_cap_s = 15000.0;
  double long_corr_exponent = 0.15;

  // Per-task durations are the job mean times a unit-mean log-normal factor
  // with this sigma ("task durations vary within a given job", §4.1).
  double task_spread_sigma = 0.3;
};

// Generates jobs with submit_time == 0; callers assign arrivals afterwards
// (AssignPoissonArrivals) so the same job population can be replayed at
// different loads.
Trace GenerateGoogleTrace(const GoogleTraceParams& params);

}  // namespace hawk

#endif  // HAWK_WORKLOAD_GOOGLE_TRACE_H_
