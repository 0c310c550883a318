// Tests for the extension features: diurnal/bursty arrival processes, the
// steal-retry option, queueing-delay telemetry, and CSV export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/metrics/csv_export.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrival_patterns.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace hawk {
namespace {

Trace FlatJobs(size_t count) {
  Trace trace;
  for (size_t i = 0; i < count; ++i) {
    Job job;
    job.task_durations.push_back(SecondsToUs(1.0));
    trace.Add(job);
  }
  trace.SortAndRenumber();
  return trace;
}

double MeanInterarrival(const Trace& trace) {
  return static_cast<double>(trace.jobs().back().submit_time) /
         static_cast<double>(trace.NumJobs());
}

// Coefficient of variation of the inter-arrival gaps; Poisson -> ~1,
// diurnal/bursty -> > 1.
double InterarrivalCv(const Trace& trace) {
  std::vector<double> gaps;
  for (size_t i = 1; i < trace.NumJobs(); ++i) {
    gaps.push_back(
        static_cast<double>(trace.job(i).submit_time - trace.job(i - 1).submit_time));
  }
  double mean = 0;
  for (const double g : gaps) {
    mean += g;
  }
  mean /= static_cast<double>(gaps.size());
  double var = 0;
  for (const double g : gaps) {
    var += (g - mean) * (g - mean);
  }
  var /= static_cast<double>(gaps.size());
  return std::sqrt(var) / mean;
}

TEST(DiurnalArrivalsTest, PreservesMeanRate) {
  Trace trace = FlatJobs(30000);
  Rng rng(3);
  DiurnalParams params;
  params.mean_interarrival_us = 1000;
  params.amplitude = 0.7;
  params.period_us = 200'000;
  AssignDiurnalArrivals(&trace, params, &rng);
  EXPECT_NEAR(MeanInterarrival(trace), 1000.0, 50.0);
}

TEST(DiurnalArrivalsTest, RateOscillates) {
  // Counting arrivals per period-half: peaks should hold more than troughs.
  Trace trace = FlatJobs(40000);
  Rng rng(5);
  DiurnalParams params;
  params.mean_interarrival_us = 1000;
  params.amplitude = 0.8;
  params.period_us = 1'000'000;
  AssignDiurnalArrivals(&trace, params, &rng);
  // First half of each period (sin > 0) vs second half.
  size_t first_half = 0;
  size_t second_half = 0;
  for (const Job& job : trace.jobs()) {
    const SimTime within = job.submit_time % params.period_us;
    (within < params.period_us / 2 ? first_half : second_half)++;
  }
  EXPECT_GT(static_cast<double>(first_half), 1.3 * static_cast<double>(second_half));
}

TEST(DiurnalArrivalsTest, ZeroAmplitudeIsPoissonLike) {
  Trace trace = FlatJobs(20000);
  Rng rng(7);
  DiurnalParams params;
  params.mean_interarrival_us = 500;
  params.amplitude = 0.0;
  AssignDiurnalArrivals(&trace, params, &rng);
  EXPECT_NEAR(InterarrivalCv(trace), 1.0, 0.1);
}

TEST(BurstyArrivalsTest, PreservesMeanRate) {
  // The MMPP mean converges slowly (arrivals are correlated within bursts);
  // use many short cycles and a tolerance sized to the estimator's variance.
  Trace trace = FlatJobs(60000);
  Rng rng(9);
  BurstyParams params;
  params.mean_interarrival_us = 1000;
  params.burst_duty = 0.25;
  params.burstiness = 3.5;
  params.cycle_us = 20'000;
  AssignBurstyArrivals(&trace, params, &rng);
  EXPECT_NEAR(MeanInterarrival(trace), 1000.0, 100.0);
}

TEST(BurstyArrivalsTest, GapsAreOverdispersed) {
  Trace trace = FlatJobs(30000);
  Rng rng(11);
  BurstyParams params;
  params.mean_interarrival_us = 1000;
  params.burst_duty = 0.2;
  params.burstiness = 4.0;
  params.cycle_us = 200'000;
  AssignBurstyArrivals(&trace, params, &rng);
  EXPECT_GT(InterarrivalCv(trace), 1.3);  // Poisson would be ~1.
}

TEST(BurstyArrivalsTest, MonotoneSubmissions) {
  Trace trace = FlatJobs(5000);
  Rng rng(13);
  BurstyParams params;
  AssignBurstyArrivals(&trace, params, &rng);
  for (size_t i = 1; i < trace.NumJobs(); ++i) {
    EXPECT_GE(trace.job(i).submit_time, trace.job(i - 1).submit_time);
  }
}

// --- Steal retry ----------------------------------------------------------

Trace LoadedTrace(uint32_t workers, uint64_t seed) {
  GoogleTraceParams params;
  params.num_jobs = 400;
  params.seed = seed;
  Trace trace = CapTasksPreserveWork(GenerateGoogleTrace(params), workers / 2);
  Rng rng(seed);
  AssignPoissonArrivals(&trace, MeanInterarrivalForUtilization(trace, 0.95, workers), &rng);
  return trace;
}

TEST(StealRetryTest, RetryingNeverLosesTasks) {
  const uint32_t workers = 300;
  const Trace trace = LoadedTrace(workers, 31);
  HawkConfig config;
  config.num_workers = workers;
  config.steal_retry_interval_us = SecondsToUs(5.0);
  const RunResult result = RunExperiment(trace, config, "hawk");
  EXPECT_EQ(result.counters.tasks_launched, trace.TotalTasks());
  EXPECT_EQ(result.total_busy_us, trace.TotalWorkUs());
}

TEST(StealRetryTest, RetryIncreasesStealActivity) {
  const uint32_t workers = 300;
  const Trace trace = LoadedTrace(workers, 33);
  HawkConfig config;
  config.num_workers = workers;
  const RunResult one_shot = RunExperiment(trace, config, "hawk");
  config.steal_retry_interval_us = SecondsToUs(2.0);
  const RunResult retrying = RunExperiment(trace, config, "hawk");
  EXPECT_GT(retrying.counters.steal_attempts, one_shot.counters.steal_attempts);
}

TEST(StealRetryTest, DisabledByDefault) {
  HawkConfig config;
  EXPECT_EQ(config.steal_retry_interval_us, 0);
}

// --- Queueing-delay telemetry -----------------------------------------------

TEST(QueueWaitTelemetryTest, CountsEveryLaunchedTask) {
  const uint32_t workers = 300;
  const Trace trace = LoadedTrace(workers, 35);
  HawkConfig config;
  config.num_workers = workers;
  const RunResult result = RunExperiment(trace, config, "hawk");
  EXPECT_EQ(result.counters.short_tasks_started + result.counters.long_tasks_started,
            trace.TotalTasks());
  EXPECT_GE(result.counters.AvgQueueWaitSeconds(false), 0.0);
  EXPECT_GE(result.counters.AvgQueueWaitSeconds(true), 0.0);
}

TEST(QueueWaitTelemetryTest, SparrowShortWaitsExceedHawksUnderLoad) {
  // The mechanism behind Figure 5b, measured directly: short tasks queue far
  // longer under Sparrow than under Hawk in a loaded cluster.
  const uint32_t workers = 300;
  const Trace trace = LoadedTrace(workers, 37);
  HawkConfig config;
  config.num_workers = workers;
  const RunResult hawk = RunExperiment(trace, config, "hawk");
  const RunResult sparrow = RunExperiment(trace, config, "sparrow");
  EXPECT_LT(hawk.counters.AvgQueueWaitSeconds(false),
            sparrow.counters.AvgQueueWaitSeconds(false));
}

TEST(QueueWaitTelemetryTest, IdleClusterHasNearZeroWaits) {
  Trace trace;
  Job job;
  job.task_durations.push_back(SecondsToUs(1.0));
  trace.Add(job);
  trace.SortAndRenumber();
  HawkConfig config;
  config.num_workers = 50;
  const RunResult result = RunExperiment(trace, config, "hawk");
  // One short task; waited only the late-binding RTT.
  EXPECT_EQ(result.counters.short_tasks_started, 1u);
  EXPECT_LE(result.counters.short_queue_wait_us, static_cast<uint64_t>(MillisToUs(2)));
}

// --- CSV export ----------------------------------------------------------------

TEST(CsvExportTest, JobResultsRoundTrip) {
  const uint32_t workers = 100;
  const Trace trace = LoadedTrace(workers, 39);
  HawkConfig config;
  config.num_workers = workers;
  const RunResult result = RunExperiment(trace, config, "sparrow");

  const std::string path = testing::TempDir() + "/jobs.csv";
  ASSERT_TRUE(WriteJobResultsCsv(path, result).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "job_id,is_long,submit_us,finish_us,runtime_us");
  size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, result.jobs.size());
  std::remove(path.c_str());
}

TEST(CsvExportTest, BadPathReturnsError) {
  RunResult result;
  EXPECT_FALSE(WriteJobResultsCsv("/nonexistent/dir/x.csv", result).ok());
}

}  // namespace
}  // namespace hawk
