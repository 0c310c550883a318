// Determinism guarantees: a seed fully determines the Rng stream and an
// end-to-end simulation result. Guards future parallelization work against
// accidentally introducing run-to-run nondeterminism.
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"

namespace hawk {
namespace {

TEST(DeterminismTest, RngStreamIdenticalAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.Next(), b.Next()) << "diverged at draw " << i;
  }
}

TEST(DeterminismTest, RngMixedDistributionStreamIdentical) {
  Rng a(777);
  Rng b(777);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextDouble(), b.NextDouble());
    ASSERT_EQ(a.Exponential(3.0), b.Exponential(3.0));
    ASSERT_EQ(a.Gaussian(1.0, 2.0), b.Gaussian(1.0, 2.0));
    ASSERT_EQ(a.UniformInt(0, 100), b.UniformInt(0, 100));
    ASSERT_EQ(a.Bernoulli(0.3), b.Bernoulli(0.3));
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  bool diverged = false;
  for (int i = 0; i < 16 && !diverged; ++i) {
    diverged = a.Next() != b.Next();
  }
  EXPECT_TRUE(diverged);
}

TEST(DeterminismTest, TraceGenerationIdenticalAcrossRuns) {
  const Trace t1 = GenerateClusterWorkload(FacebookParams(300, 17));
  const Trace t2 = GenerateClusterWorkload(FacebookParams(300, 17));
  ASSERT_EQ(t1.NumJobs(), t2.NumJobs());
  for (size_t i = 0; i < t1.NumJobs(); ++i) {
    ASSERT_EQ(t1.job(i).submit_time, t2.job(i).submit_time);
    ASSERT_EQ(t1.job(i).long_hint, t2.job(i).long_hint);
    ASSERT_EQ(t1.job(i).task_durations, t2.job(i).task_durations);
  }
}

// Runs the same trace through the same scheduler twice and demands
// bit-identical results: same per-job finish times, same counters, same
// utilization series.
void ExpectIdenticalRuns(std::string_view scheduler) {
  HawkConfig config;
  config.num_workers = 120;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;

  auto make_trace = [&] {
    Trace trace = GenerateClusterWorkload(FacebookParams(200, 5));
    Rng arrivals_rng(11);
    AssignPoissonArrivals(&trace, SecondsToUs(2.0), &arrivals_rng);
    return trace;
  };
  const Trace trace_a = make_trace();
  const Trace trace_b = make_trace();

  const RunResult r1 = RunExperiment(trace_a, config, scheduler);
  const RunResult r2 = RunExperiment(trace_b, config, scheduler);

  ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
  for (size_t i = 0; i < r1.jobs.size(); ++i) {
    ASSERT_EQ(r1.jobs[i].id, r2.jobs[i].id);
    ASSERT_EQ(r1.jobs[i].finish_time, r2.jobs[i].finish_time) << "job " << i;
    ASSERT_EQ(r1.jobs[i].runtime_us, r2.jobs[i].runtime_us) << "job " << i;
  }
  EXPECT_EQ(r1.makespan_us, r2.makespan_us);
  EXPECT_EQ(r1.total_busy_us, r2.total_busy_us);
  EXPECT_EQ(r1.counters.events, r2.counters.events);
  EXPECT_EQ(r1.counters.tasks_launched, r2.counters.tasks_launched);
  EXPECT_EQ(r1.counters.probes_placed, r2.counters.probes_placed);
  EXPECT_EQ(r1.counters.steal_attempts, r2.counters.steal_attempts);
  EXPECT_EQ(r1.counters.entries_stolen, r2.counters.entries_stolen);
  EXPECT_EQ(r1.utilization_samples, r2.utilization_samples);
}

TEST(DeterminismTest, HawkRunIdenticalAcrossRuns) { ExpectIdenticalRuns("hawk"); }

TEST(DeterminismTest, SparrowRunIdenticalAcrossRuns) { ExpectIdenticalRuns("sparrow"); }

TEST(DeterminismTest, CentralizedRunIdenticalAcrossRuns) {
  ExpectIdenticalRuns("centralized");
}

TEST(DeterminismTest, SplitRunIdenticalAcrossRuns) { ExpectIdenticalRuns("split"); }

}  // namespace
}  // namespace hawk
