// Tests for the workload substrate: generators hit their calibration targets
// (Table 1), trace I/O round-trips, scaling preserves work, arrivals follow
// the requested Poisson mean.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/random.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"
#include "src/workload/trace.h"
#include "src/workload/trace_stats.h"

namespace hawk {
namespace {

constexpr DurationUs kGoogleCutoffUs = SecondsToUs(1129.0);

GoogleTraceParams SmallGoogle(uint32_t jobs, uint64_t seed) {
  GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  return params;
}

TEST(JobTest, BasicAccessors) {
  Job job;
  job.task_durations = {SecondsToUs(10), SecondsToUs(20), SecondsToUs(30)};
  EXPECT_EQ(job.NumTasks(), 3u);
  EXPECT_EQ(job.TotalWorkUs(), SecondsToUs(60));
  EXPECT_DOUBLE_EQ(job.AvgTaskDurationUs(), SecondsToUs(20));
  EXPECT_EQ(job.MaxTaskDurationUs(), SecondsToUs(30));
}

TEST(TraceTest, SortAndRenumberOrdersBySubmitTime) {
  Trace trace;
  for (const SimTime t : {300, 100, 200}) {
    Job job;
    job.submit_time = t;
    job.task_durations.push_back(1000);
    trace.Add(job);
  }
  trace.SortAndRenumber();
  EXPECT_EQ(trace.job(0).submit_time, 100);
  EXPECT_EQ(trace.job(1).submit_time, 200);
  EXPECT_EQ(trace.job(2).submit_time, 300);
  for (JobId i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.job(i).id, i);
  }
}

TEST(TraceTest, FileRoundTrip) {
  const Trace original = GenerateGoogleTrace(SmallGoogle(50, 3));
  const std::string path = testing::TempDir() + "/trace_roundtrip.txt";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  const auto loaded = Trace::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().NumJobs(), original.NumJobs());
  for (size_t i = 0; i < original.NumJobs(); ++i) {
    EXPECT_EQ(loaded.value().job(i).submit_time, original.job(i).submit_time);
    EXPECT_EQ(loaded.value().job(i).long_hint, original.job(i).long_hint);
    EXPECT_EQ(loaded.value().job(i).task_durations, original.job(i).task_durations);
  }
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsMissingFile) {
  const auto result = Trace::LoadFromFile("/nonexistent/path/to/trace.txt");
  EXPECT_FALSE(result.ok());
}

TEST(TraceTest, LoadRejectsMalformedLine) {
  const std::string path = testing::TempDir() + "/trace_bad.txt";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("0 0 0 3 100 200\n", f);  // Claims 3 tasks, provides 2.
  fclose(f);
  EXPECT_FALSE(Trace::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(GoogleTraceTest, DeterministicForSeed) {
  const Trace a = GenerateGoogleTrace(SmallGoogle(200, 5));
  const Trace b = GenerateGoogleTrace(SmallGoogle(200, 5));
  ASSERT_EQ(a.NumJobs(), b.NumJobs());
  for (size_t i = 0; i < a.NumJobs(); ++i) {
    EXPECT_EQ(a.job(i).task_durations, b.job(i).task_durations);
  }
}

TEST(GoogleTraceTest, MatchesPaperMixStatistics) {
  // Table 1, Google 2011 row: 10.00% long jobs, 83.65% task-seconds.
  const Trace trace = GenerateGoogleTrace(SmallGoogle(8000, 7));
  const WorkloadMix mix = ComputeMix(trace, LongByCutoff(kGoogleCutoffUs));
  EXPECT_NEAR(mix.pct_long_jobs, 10.0, 1.0);
  EXPECT_NEAR(mix.pct_task_seconds_long, 83.65, 6.0);
  // §2.1: long jobs carry a disproportionate share of tasks as well.
  EXPECT_GT(mix.pct_tasks_long, 12.0);
  EXPECT_GT(mix.avg_task_duration_ratio, 5.0);
}

TEST(GoogleTraceTest, HintAgreesWithCutoffClassification) {
  // The mixture construction keeps short jobs below the default cutoff and
  // long jobs above it, so hint- and cutoff-classification nearly coincide.
  const Trace trace = GenerateGoogleTrace(SmallGoogle(3000, 11));
  size_t disagree = 0;
  const auto by_cutoff = LongByCutoff(kGoogleCutoffUs);
  for (const Job& job : trace.jobs()) {
    if (by_cutoff(job) != job.long_hint) {
      ++disagree;
    }
  }
  EXPECT_LT(static_cast<double>(disagree) / static_cast<double>(trace.NumJobs()), 0.02);
}

TEST(GoogleTraceTest, TaskCountsWithinCaps) {
  GoogleTraceParams params = SmallGoogle(3000, 13);
  const Trace trace = GenerateGoogleTrace(params);
  for (const Job& job : trace.jobs()) {
    ASSERT_GE(job.NumTasks(), 1u);
    if (job.long_hint) {
      EXPECT_LE(job.NumTasks(), params.long_tasks_cap);
    } else {
      EXPECT_LE(job.NumTasks(), params.short_tasks_cap);
    }
  }
}

struct ClusterWorkloadCase {
  const char* name;
  double expected_pct_long;
  double expected_pct_task_seconds;
  double tolerance_pct_long;
  double tolerance_task_seconds;
};

class ClusterWorkloadTest : public testing::TestWithParam<ClusterWorkloadCase> {};

ClusterWorkloadParams ParamsFor(const std::string& name, uint32_t jobs, uint64_t seed) {
  if (name == "cloudera-c") {
    return ClouderaParams(jobs, seed);
  }
  if (name == "facebook-2010") {
    return FacebookParams(jobs, seed);
  }
  return YahooParams(jobs, seed);
}

TEST_P(ClusterWorkloadTest, MatchesPaperTable1) {
  const ClusterWorkloadCase& expected = GetParam();
  const Trace trace = GenerateClusterWorkload(ParamsFor(expected.name, 12000, 17));
  const WorkloadMix mix = ComputeMix(trace, LongByHint());
  EXPECT_NEAR(mix.pct_long_jobs, expected.expected_pct_long, expected.tolerance_pct_long)
      << expected.name;
  EXPECT_NEAR(mix.pct_task_seconds_long, expected.expected_pct_task_seconds,
              expected.tolerance_task_seconds)
      << expected.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, ClusterWorkloadTest,
    testing::Values(ClusterWorkloadCase{"cloudera-c", 5.02, 92.79, 0.8, 4.0},
                    ClusterWorkloadCase{"facebook-2010", 2.01, 99.79, 0.5, 0.5},
                    ClusterWorkloadCase{"yahoo-2011", 9.41, 98.31, 1.0, 1.5}),
    [](const testing::TestParamInfo<ClusterWorkloadCase>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(MotivationTraceTest, MatchesSection23Scenario) {
  const Trace trace = GenerateMotivationTrace(1000, 0.1, 42);
  EXPECT_EQ(trace.NumJobs(), 1000u);
  size_t long_jobs = 0;
  for (const Job& job : trace.jobs()) {
    if (job.long_hint) {
      ++long_jobs;
      EXPECT_EQ(job.NumTasks(), 100u);  // 1000 * 0.1
      EXPECT_EQ(job.task_durations[0], SecondsToUs(20000.0));
    } else {
      EXPECT_EQ(job.NumTasks(), 100u);
      EXPECT_EQ(job.task_durations[0], SecondsToUs(100.0));
    }
  }
  EXPECT_NEAR(static_cast<double>(long_jobs), 50.0, 25.0);
}

TEST(ArrivalsTest, PoissonMeanConverges) {
  Trace trace;
  for (int i = 0; i < 20000; ++i) {
    Job job;
    job.task_durations.push_back(1000);
    trace.Add(job);
  }
  Rng rng(5);
  AssignPoissonArrivals(&trace, 1000, &rng);
  const double mean = static_cast<double>(trace.jobs().back().submit_time) /
                      static_cast<double>(trace.NumJobs());
  EXPECT_NEAR(mean, 1000.0, 30.0);
  // Monotone submissions after renumbering.
  for (size_t i = 1; i < trace.NumJobs(); ++i) {
    EXPECT_GE(trace.job(i).submit_time, trace.job(i - 1).submit_time);
  }
}

TEST(ArrivalsTest, InterarrivalForUtilizationInvertsLoadFormula) {
  Trace trace = GenerateGoogleTrace(SmallGoogle(500, 23));
  const uint32_t workers = 1500;
  const double target = 0.9;
  const DurationUs mean = MeanInterarrivalForUtilization(trace, target, workers);
  const double implied_util =
      static_cast<double>(trace.TotalWorkUs()) /
      (static_cast<double>(mean) * static_cast<double>(trace.NumJobs()) * workers);
  EXPECT_NEAR(implied_util, target, 0.02);
}

TEST(ScalingTest, CapTasksPreservesWork) {
  const Trace trace = GenerateGoogleTrace(SmallGoogle(400, 29));
  const Trace capped = CapTasksPreserveWork(trace, 50);
  ASSERT_EQ(capped.NumJobs(), trace.NumJobs());
  for (size_t i = 0; i < trace.NumJobs(); ++i) {
    EXPECT_LE(capped.job(i).NumTasks(), 50u);
    // Task-seconds preserved within rounding (1 us per task).
    const double original = static_cast<double>(trace.job(i).TotalWorkUs());
    const double scaled = static_cast<double>(capped.job(i).TotalWorkUs());
    EXPECT_NEAR(scaled / original, 1.0, 1e-4);
  }
}

TEST(ScalingTest, CapLeavesSmallJobsAlone) {
  const Trace trace = GenerateGoogleTrace(SmallGoogle(200, 31));
  const Trace capped = CapTasksPreserveWork(trace, 100000);
  for (size_t i = 0; i < trace.NumJobs(); ++i) {
    EXPECT_EQ(capped.job(i).task_durations, trace.job(i).task_durations);
  }
}

TEST(ScalingTest, RescaleTimeAppliesFactor) {
  Trace trace;
  Job job;
  job.submit_time = 1'000'000;
  job.task_durations = {2'000'000, 4'000'000};
  trace.Add(job);
  trace.SortAndRenumber();
  const Trace scaled = RescaleTime(trace, 0.001);
  EXPECT_EQ(scaled.job(0).submit_time, 1000);
  EXPECT_EQ(scaled.job(0).task_durations[0], 2000);
  EXPECT_EQ(scaled.job(0).task_durations[1], 4000);
}

TEST(ScalingTest, RescaleClampsToOneMicrosecond) {
  Trace trace;
  Job job;
  job.task_durations.push_back(5);
  trace.Add(job);
  trace.SortAndRenumber();
  const Trace scaled = RescaleTime(trace, 0.001);
  EXPECT_EQ(scaled.job(0).task_durations[0], 1);
}

TEST(TraceStatsTest, MixOnHandBuiltTrace) {
  Trace trace;
  Job short_job;
  short_job.task_durations = {SecondsToUs(10), SecondsToUs(10)};  // 20 task-sec
  short_job.long_hint = false;
  Job long_job;
  long_job.task_durations = {SecondsToUs(40), SecondsToUs(40)};  // 80 task-sec
  long_job.long_hint = true;
  trace.Add(short_job);
  trace.Add(long_job);
  trace.SortAndRenumber();
  const WorkloadMix mix = ComputeMix(trace, LongByHint());
  EXPECT_EQ(mix.total_jobs, 2u);
  EXPECT_EQ(mix.long_jobs, 1u);
  EXPECT_DOUBLE_EQ(mix.pct_long_jobs, 50.0);
  EXPECT_DOUBLE_EQ(mix.pct_task_seconds_long, 80.0);
  EXPECT_DOUBLE_EQ(mix.pct_tasks_long, 50.0);
  EXPECT_DOUBLE_EQ(mix.avg_task_duration_ratio, 4.0);
}

TEST(TraceStatsTest, CdfsSplitByClass) {
  const Trace trace = GenerateGoogleTrace(SmallGoogle(1000, 41));
  const WorkloadCdfs cdfs = ComputeCdfs(trace, LongByCutoff(kGoogleCutoffUs));
  EXPECT_EQ(cdfs.long_avg_task_duration_s.Count() + cdfs.short_avg_task_duration_s.Count(),
            trace.NumJobs());
  // Long jobs sit above the cutoff, short below (Fig. 4a/4b separation).
  EXPECT_GE(cdfs.long_avg_task_duration_s.Min(), 1129.0);
  EXPECT_LT(cdfs.short_avg_task_duration_s.Max(), 1129.0 + 1.0);
}

}  // namespace
}  // namespace hawk
