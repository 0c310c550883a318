// Integration tests: full simulation runs under every scheduler, checking
// completion, work conservation, mechanism invariants, determinism, and the
// paper's qualitative results on small workloads. Property-style sweeps are
// parameterized over scheduler kind, workload, and seed.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/core/hawk_config.h"
#include "src/metrics/comparison.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/registry.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace hawk {
namespace {

// A small Google-like trace calibrated to `util` on `workers`.
Trace TestTrace(uint32_t jobs, uint32_t workers, double util, uint64_t seed) {
  GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  Trace trace = CapTasksPreserveWork(GenerateGoogleTrace(params), workers / 2);
  Rng rng(seed ^ 0xF00D);
  AssignPoissonArrivals(&trace, MeanInterarrivalForUtilization(trace, util, workers), &rng);
  return trace;
}

HawkConfig TestConfig(uint32_t workers, uint64_t seed = 42) {
  HawkConfig config;
  config.num_workers = workers;
  config.seed = seed;
  return config;
}

void CheckInvariants(const Trace& trace, const RunResult& result) {
  // Every job finished, no job lost.
  ASSERT_EQ(result.jobs.size(), trace.NumJobs());
  for (size_t i = 0; i < trace.NumJobs(); ++i) {
    const Job& job = trace.job(i);
    const JobResult& r = result.jobs[i];
    EXPECT_EQ(r.id, job.id);
    EXPECT_EQ(r.submit_time, job.submit_time);
    EXPECT_GE(r.finish_time, r.submit_time);
    // A job cannot finish faster than its longest task.
    EXPECT_GE(r.runtime_us, job.MaxTaskDurationUs());
  }
  // Work conservation: every task executed exactly once, nothing invented.
  EXPECT_EQ(result.counters.tasks_launched, trace.TotalTasks());
  EXPECT_EQ(result.total_busy_us, trace.TotalWorkUs());
  // Utilization samples well-formed.
  for (const double u : result.utilization_samples) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

// --- Parameterized invariant sweep: scheduler x load x seed -------------------

struct SweepCase {
  const char* kind;  // Registered scheduler name.
  double util;
  uint64_t seed;
};

std::string SweepName(const testing::TestParamInfo<SweepCase>& info) {
  return std::string(info.param.kind) + "_util" +
         std::to_string(static_cast<int>(info.param.util * 100)) + "_seed" +
         std::to_string(info.param.seed);
}

class SchedulerSweepTest : public testing::TestWithParam<SweepCase> {};

TEST_P(SchedulerSweepTest, InvariantsHold) {
  const SweepCase& param = GetParam();
  const uint32_t workers = 400;
  const Trace trace = TestTrace(400, workers, param.util, param.seed);
  const RunResult result =
      RunExperiment(trace, TestConfig(workers, param.seed), param.kind);
  CheckInvariants(trace, result);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerSweepTest,
    testing::Values(SweepCase{"sparrow", 0.5, 1},
                    SweepCase{"sparrow", 0.9, 2},
                    SweepCase{"sparrow", 1.3, 3},
                    SweepCase{"centralized", 0.5, 1},
                    SweepCase{"centralized", 0.9, 2},
                    SweepCase{"centralized", 1.3, 3},
                    SweepCase{"hawk", 0.5, 1},
                    SweepCase{"hawk", 0.9, 2},
                    SweepCase{"hawk", 1.3, 3},
                    SweepCase{"split", 0.5, 1},
                    SweepCase{"split", 0.9, 2},
                    SweepCase{"split", 1.3, 3}),
    SweepName);

// --- Hawk ablation invariants ---------------------------------------------------

class HawkAblationTest : public testing::TestWithParam<int> {};

TEST_P(HawkAblationTest, InvariantsHoldWithTogglesOff) {
  const int variant = GetParam();
  const uint32_t workers = 300;
  const Trace trace = TestTrace(300, workers, 0.9, 5);
  HawkConfig config = TestConfig(workers);
  config.use_centralized_long = variant != 0;
  if (variant == 1) {
    config.short_partition_fraction = 0.0;
  }
  if (variant == 2) {
    config.steal_cap = 0;
  }
  const RunResult result = RunExperiment(trace, config, "hawk");
  CheckInvariants(trace, result);
  if (variant == 2) {
    EXPECT_EQ(result.counters.steal_attempts, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Toggles, HawkAblationTest, testing::Values(0, 1, 2));

// --- Runtime shapes -----------------------------------------------------------------

// Every registered scheduler's shape under the default config, which both
// executors read: the prototype assembles its control plane from it and the
// simulation driver gates steal retries on it.
TEST(SchedulerShapeTest, DefaultShapeOfEveryRegisteredScheduler) {
  using Span = RuntimeShape::ProbeSpan;
  using Victims = StealingPolicy::VictimSelection;
  struct Row {
    bool centralized_long;
    bool centralized_short;
    bool stealing;
    Victims victims;
    Span short_span;
    Span long_span;
  };
  const std::map<std::string, Row> expected = {
      {"centralized", {true, true, false, Victims::kRandom, Span::kWholeCluster,
                       Span::kGeneralPartition}},
      {"hawk", {true, false, true, Victims::kRandom, Span::kWholeCluster,
                Span::kGeneralPartition}},
      {"hawk-dchoice", {true, false, true, Victims::kDChoice, Span::kWholeCluster,
                        Span::kGeneralPartition}},
      {"hawk-latebind", {true, false, true, Victims::kRandom, Span::kWholeCluster,
                         Span::kGeneralPartition}},
      {"hawk-spec", {true, false, true, Victims::kRandom, Span::kWholeCluster,
                     Span::kGeneralPartition}},
      {"sparrow", {false, false, false, Victims::kRandom, Span::kWholeCluster,
                   Span::kWholeCluster}},
      {"split", {true, false, false, Victims::kRandom, Span::kShortPartition,
                 Span::kGeneralPartition}},
  };
  const std::vector<std::string> names = SchedulerRegistry::Global().Names();
  ASSERT_EQ(names.size(), expected.size());
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const auto row = expected.find(name);
    ASSERT_NE(row, expected.end()) << "no pinned shape";
    const RuntimeShape shape =
        SchedulerRegistry::Global().Find(name)->factory(HawkConfig{})->ShapeForRuntime(
            HawkConfig{});
    EXPECT_EQ(shape.centralized_long, row->second.centralized_long);
    EXPECT_EQ(shape.centralized_short, row->second.centralized_short);
    EXPECT_EQ(shape.stealing, row->second.stealing);
    EXPECT_EQ(shape.victim_selection, row->second.victims);
    EXPECT_EQ(shape.short_probe_span, row->second.short_span);
    EXPECT_EQ(shape.long_probe_span, row->second.long_span);
  }
}

// A simulated run does what its shape says: a class goes through the
// central queue iff the shape centralizes it, and a shape without stealing
// never attempts a steal. Default config (1,500 workers, noise-free
// estimates, so the metrics class of each job is its scheduling class).
TEST(SchedulerShapeTest, SimulatedRunsAgreeWithTheirShapes) {
  const HawkConfig config;
  const Trace trace = TestTrace(200, config.num_workers, 0.9, 31);
  for (const std::string& name : SchedulerRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const RuntimeShape shape =
        SchedulerRegistry::Global().Find(name)->factory(config)->ShapeForRuntime(config);
    const RunResult result = RunExperiment(trace, config, name);
    ASSERT_EQ(result.jobs.size(), trace.NumJobs());
    uint64_t long_tasks = 0;
    uint64_t short_tasks = 0;
    for (size_t i = 0; i < trace.NumJobs(); ++i) {
      (result.jobs[i].is_long ? long_tasks : short_tasks) += trace.job(i).NumTasks();
    }
    ASSERT_TRUE(long_tasks > 0 && short_tasks > 0) << "the trace must hold both classes";
    // hawk-latebind's long lane aims one probe per task at the minimum-wait
    // worker and binds at service time, so its central placements are the
    // probes beyond the short jobs' probe_ratio x tasks, not central tasks.
    const uint64_t central_placements =
        name == "hawk-latebind"
            ? result.counters.probes_placed - config.probe_ratio * short_tasks
            : result.counters.central_tasks_placed;
    const bool centralizes_present_class = (shape.centralized_long && long_tasks > 0) ||
                                           (shape.centralized_short && short_tasks > 0);
    EXPECT_EQ(central_placements > 0, centralizes_present_class);
    if (!shape.stealing) {
      EXPECT_EQ(result.counters.steal_attempts, 0u);
    }
  }
}

// --- Per-scheduler behavior -------------------------------------------------------

TEST(SparrowTest, ProbeCountFollowsRatio) {
  const uint32_t workers = 200;
  const Trace trace = TestTrace(100, workers, 0.5, 7);
  HawkConfig config = TestConfig(workers);
  const RunResult result = RunExperiment(trace, config, "sparrow");
  EXPECT_EQ(result.counters.probes_placed, 2 * trace.TotalTasks());
  // Every probe either launched a task or was cancelled.
  EXPECT_EQ(result.counters.probe_requests,
            result.counters.tasks_launched + result.counters.cancels);
  EXPECT_EQ(result.counters.central_tasks_placed, 0u);
}

TEST(SparrowTest, LateBindingCancelsSurplusProbes) {
  const uint32_t workers = 200;
  const Trace trace = TestTrace(100, workers, 0.3, 9);
  const RunResult result =
      RunExperiment(trace, TestConfig(workers), "sparrow");
  // With probe ratio 2 and a mostly idle cluster, about half the probes are
  // cancelled.
  EXPECT_GT(result.counters.cancels, 0u);
  EXPECT_LE(result.counters.cancels, result.counters.probes_placed);
}

TEST(CentralizedTest, NoProbesEverythingPlaced) {
  const uint32_t workers = 200;
  const Trace trace = TestTrace(100, workers, 0.5, 11);
  const RunResult result =
      RunExperiment(trace, TestConfig(workers), "centralized");
  EXPECT_EQ(result.counters.probes_placed, 0u);
  EXPECT_EQ(result.counters.central_tasks_placed, trace.TotalTasks());
  EXPECT_EQ(result.counters.steal_attempts, 0u);
}

TEST(HawkTest, LongJobsPlacedCentrallyShortJobsProbed) {
  const uint32_t workers = 300;
  const Trace trace = TestTrace(300, workers, 0.8, 13);
  const RunResult result = RunExperiment(trace, TestConfig(workers), "hawk");
  uint64_t long_tasks = 0;
  uint64_t short_tasks = 0;
  const DurationUs cutoff = TestConfig(workers).cutoff_us;
  for (const Job& job : trace.jobs()) {
    if (job.AvgTaskDurationUs() >= static_cast<double>(cutoff)) {
      long_tasks += job.NumTasks();
    } else {
      short_tasks += job.NumTasks();
    }
  }
  EXPECT_EQ(result.counters.central_tasks_placed, long_tasks);
  EXPECT_EQ(result.counters.probes_placed, 2 * short_tasks);
}

TEST(HawkTest, StealingMovesEntriesUnderLoad) {
  const uint32_t workers = 300;
  const Trace trace = TestTrace(400, workers, 1.1, 15);
  const RunResult result = RunExperiment(trace, TestConfig(workers), "hawk");
  EXPECT_GT(result.counters.steal_attempts, 0u);
  EXPECT_GT(result.counters.steal_successes, 0u);
  EXPECT_GT(result.counters.entries_stolen, 0u);
  EXPECT_GE(result.counters.steal_attempts, result.counters.steal_successes);
}

TEST(HawkTest, EmptyShortPartitionFallsBackGracefully) {
  // partition fraction 0 -> the whole cluster is general; still correct.
  const uint32_t workers = 200;
  const Trace trace = TestTrace(200, workers, 0.8, 17);
  HawkConfig config = TestConfig(workers);
  config.short_partition_fraction = 0.0;
  const RunResult result = RunExperiment(trace, config, "hawk");
  CheckInvariants(trace, result);
}

TEST(SplitTest, ShortJobsConfinedToShortPartition) {
  // In the split cluster, short probes target only the short partition. With
  // a short job whose 2t probes exceed the short partition, the round-robin
  // overflow rule must still serve all tasks.
  const uint32_t workers = 100;
  Trace trace;
  Job job;
  job.task_durations.assign(40, SecondsToUs(10));  // 80 probes on 17 workers.
  trace.Add(job);
  trace.SortAndRenumber();
  HawkConfig config = TestConfig(workers);
  const RunResult result = RunExperiment(trace, config, "split");
  CheckInvariants(trace, result);
}

// --- Determinism -------------------------------------------------------------------

TEST(DeterminismTest, IdenticalSeedsIdenticalResults) {
  const uint32_t workers = 300;
  const Trace trace = TestTrace(300, workers, 0.9, 19);
  for (const char* kind : {"sparrow", "centralized", "hawk", "split"}) {
    const RunResult a = RunExperiment(trace, TestConfig(workers, 99), kind);
    const RunResult b = RunExperiment(trace, TestConfig(workers, 99), kind);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (size_t i = 0; i < a.jobs.size(); ++i) {
      EXPECT_EQ(a.jobs[i].runtime_us, b.jobs[i].runtime_us)
          << kind << " job " << i;
    }
    EXPECT_EQ(a.counters.events, b.counters.events);
  }
}

TEST(DeterminismTest, DifferentSeedsDifferentPlacements) {
  const uint32_t workers = 300;
  const Trace trace = TestTrace(300, workers, 0.9, 21);
  const RunResult a = RunExperiment(trace, TestConfig(workers, 1), "sparrow");
  const RunResult b = RunExperiment(trace, TestConfig(workers, 2), "sparrow");
  size_t differing = 0;
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    differing += a.jobs[i].runtime_us != b.jobs[i].runtime_us ? 1u : 0u;
  }
  EXPECT_GT(differing, 0u);
}

// --- Edge cases ---------------------------------------------------------------------

TEST(EdgeCaseTest, EmptyTrace) {
  Trace trace;
  const RunResult result = RunExperiment(trace, TestConfig(50), "hawk");
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_EQ(result.counters.tasks_launched, 0u);
}

TEST(EdgeCaseTest, SingleTaskJob) {
  Trace trace;
  Job job;
  job.task_durations = {SecondsToUs(5)};
  trace.Add(job);
  trace.SortAndRenumber();
  for (const char* kind : {"sparrow", "centralized", "hawk"}) {
    const RunResult result = RunExperiment(trace, TestConfig(10), kind);
    ASSERT_EQ(result.jobs.size(), 1u);
    // Runtime = network delay + (late-binding RTT for probed paths) + 5 s.
    EXPECT_GE(result.jobs[0].runtime_us, SecondsToUs(5));
    EXPECT_LE(result.jobs[0].runtime_us, SecondsToUs(5) + MillisToUs(2));
  }
}

TEST(EdgeCaseTest, SingleWorkerCluster) {
  Trace trace;
  for (int i = 0; i < 5; ++i) {
    Job job;
    job.submit_time = i * 1000;
    job.task_durations = {SecondsToUs(1)};
    trace.Add(job);
  }
  trace.SortAndRenumber();
  HawkConfig config = TestConfig(1);
  config.short_partition_fraction = 0.0;  // One worker: no short partition.
  const RunResult result = RunExperiment(trace, config, "hawk");
  CheckInvariants(trace, result);
  // Serial execution: total makespan >= 5 tasks x 1 s.
  EXPECT_GE(result.makespan_us, 5 * SecondsToUs(1));
}

TEST(EdgeCaseTest, JobLargerThanClusterCentralized) {
  // 500 tasks on 50 workers: centralized placement queues 10 deep.
  Trace trace;
  Job job;
  job.task_durations.assign(500, SecondsToUs(10));
  job.long_hint = true;
  trace.Add(job);
  trace.SortAndRenumber();
  HawkConfig config = TestConfig(50);
  config.classify_mode = ClassifyMode::kHint;
  const RunResult result = RunExperiment(trace, config, "centralized");
  CheckInvariants(trace, result);
  EXPECT_GE(result.makespan_us, 10 * SecondsToUs(10));
}

TEST(EdgeCaseTest, ShortJobWithMoreProbesThanCluster) {
  // 2t probes exceed the cluster size: round-based spreading still serves
  // every task (invariant 7 in DESIGN.md).
  Trace trace;
  Job job;
  job.task_durations.assign(60, SecondsToUs(1));  // 120 probes on 80 workers.
  trace.Add(job);
  trace.SortAndRenumber();
  const RunResult result = RunExperiment(trace, TestConfig(80), "sparrow");
  CheckInvariants(trace, result);
}

TEST(EdgeCaseTest, ZeroDurationTasks) {
  Trace trace;
  Job job;
  job.task_durations.assign(10, 0);
  trace.Add(job);
  trace.SortAndRenumber();
  const RunResult result = RunExperiment(trace, TestConfig(20), "hawk");
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.counters.tasks_launched, 10u);
}

// --- Paper-shaped results on small runs (fast sanity for the benches) -----------

TEST(PaperShapeTest, HawkBeatsSparrowForShortJobsUnderLoad) {
  const uint32_t workers = 500;
  const Trace trace = TestTrace(800, workers, 0.95, 23);
  const HawkConfig config = TestConfig(workers);
  const RunResult hawk = RunExperiment(trace, config, "hawk");
  const RunResult sparrow = RunExperiment(trace, config, "sparrow");
  const RunComparison cmp = CompareRuns(hawk, sparrow);
  EXPECT_LT(cmp.short_jobs.p50_ratio, 0.9);
  EXPECT_LT(cmp.short_jobs.p90_ratio, 0.9);
}

TEST(PaperShapeTest, ConvergenceAtLowLoad) {
  const uint32_t workers = 2000;
  const Trace trace = TestTrace(500, workers, 0.15, 25);
  const HawkConfig config = TestConfig(workers);
  const RunResult hawk = RunExperiment(trace, config, "hawk");
  const RunResult sparrow = RunExperiment(trace, config, "sparrow");
  const RunComparison cmp = CompareRuns(hawk, sparrow);
  EXPECT_NEAR(cmp.short_jobs.p50_ratio, 1.0, 0.1);
  EXPECT_NEAR(cmp.long_jobs.p50_ratio, 1.0, 0.1);
}

TEST(PaperShapeTest, StealingHelpsShortJobs) {
  const uint32_t workers = 500;
  const Trace trace = TestTrace(800, workers, 0.95, 27);
  HawkConfig config = TestConfig(workers);
  const RunResult with_steal = RunExperiment(trace, config, "hawk");
  config.steal_cap = 0;
  const RunResult without_steal = RunExperiment(trace, config, "hawk");
  const RunComparison cmp = CompareRuns(without_steal, with_steal);
  EXPECT_GT(cmp.short_jobs.p90_ratio, 1.1);
}

}  // namespace
}  // namespace hawk
