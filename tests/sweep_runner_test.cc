// SweepRunner: parallel experiment sweeps must be bit-identical to serial
// RunExperiment loops — the parallelism is across self-contained runs, never
// inside one. Also exercised under TSan in CI.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/scheduler/experiment.h"
#include "src/scheduler/sweep_runner.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "tests/test_util.h"

namespace hawk {
namespace {

using testing::ExpectBitIdentical;

Trace MakeTrace(uint32_t jobs, uint64_t seed) {
  Trace trace = GenerateClusterWorkload(FacebookParams(jobs, seed));
  Rng arrivals_rng(seed ^ 0x1234);
  AssignPoissonArrivals(&trace, SecondsToUs(2.0), &arrivals_rng);
  return trace;
}

std::vector<ExperimentSpec> BuildGrid(const Trace* trace_a, const Trace* trace_b) {
  // Scheduler x config x trace grid: all four schedulers, two cluster sizes,
  // two traces — 16 points, more than typical thread counts.
  std::vector<ExperimentSpec> specs;
  for (const Trace* trace : {trace_a, trace_b}) {
    for (const uint32_t workers : {80u, 130u}) {
      for (const char* scheduler : {"sparrow", "centralized", "hawk", "split"}) {
        HawkConfig config;
        config.num_workers = workers;
        config.classify_mode = ClassifyMode::kHint;
        config.seed = 7;
        specs.push_back(ExperimentSpec(scheduler).WithConfig(config).WithTrace(trace));
      }
    }
  }
  return specs;
}

TEST(SweepRunnerTest, ParallelSweepBitIdenticalToSerialLoop) {
  const Trace trace_a = MakeTrace(120, 5);
  const Trace trace_b = MakeTrace(90, 11);
  const std::vector<ExperimentSpec> specs = BuildGrid(&trace_a, &trace_b);

  std::vector<RunResult> serial;
  serial.reserve(specs.size());
  for (const ExperimentSpec& spec : specs) {
    serial.push_back(RunExperiment(spec));
  }

  const SweepRunner runner(4);
  const std::vector<RunResult> parallel =
      runner.Run(specs.size(), [&specs](size_t i) { return RunExperiment(specs[i]); });
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    ExpectBitIdentical(serial[i], parallel[i]);
  }
}

TEST(SweepRunnerTest, RunExperimentsMatchesSerialAndKeepsSpecs) {
  const Trace trace_a = MakeTrace(100, 3);
  const Trace trace_b = MakeTrace(70, 9);
  const std::vector<ExperimentSpec> specs = BuildGrid(&trace_a, &trace_b);
  const std::vector<SweepRun> runs = RunExperiments(specs, 4);
  ASSERT_EQ(runs.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    EXPECT_EQ(runs[i].spec.scheduler, specs[i].scheduler);
    EXPECT_EQ(runs[i].spec.trace, specs[i].trace);
    ExpectBitIdentical(runs[i].result, RunExperiment(specs[i]));
  }
}

TEST(SweepRunnerTest, MoreThreadsThanPoints) {
  const Trace trace = MakeTrace(60, 3);
  HawkConfig config;
  config.num_workers = 60;
  config.classify_mode = ClassifyMode::kHint;
  const std::vector<ExperimentSpec> specs = {
      ExperimentSpec("hawk").WithConfig(config).WithTrace(&trace),
      ExperimentSpec("sparrow").WithConfig(config).WithTrace(&trace)};
  const SweepRunner runner(16);
  const std::vector<RunResult> results =
      runner.Run(specs.size(), [&specs](size_t i) { return RunExperiment(specs[i]); });
  ASSERT_EQ(results.size(), 2u);
  ExpectBitIdentical(results[0], RunExperiment(trace, config, "hawk"));
  ExpectBitIdentical(results[1], RunExperiment(trace, config, "sparrow"));
}

TEST(SweepRunnerTest, EmptySweep) {
  const SweepRunner runner(4);
  EXPECT_TRUE(runner.Run(0, [](size_t) { return RunResult(); }).empty());
}

TEST(SweepRunnerTest, ZeroThreadsPicksHardwareConcurrency) {
  const SweepRunner runner(0);
  EXPECT_GE(runner.num_threads(), 1u);
}

}  // namespace
}  // namespace hawk
