// End-to-end tests for the threaded prototype runtime: complete small traces
// under registry-resolved schedulers, verify completion, task conservation,
// stealing activity, multi-slot agreement in shape with the simulator, and
// the clean-Status failure paths of the spec-driven entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/hawk_scheduler.h"
#include "src/metrics/comparison.h"
#include "src/runtime/prototype_cluster.h"
#include "src/runtime/schedulers.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/registry.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

// ThreadSanitizer slows bus handlers and executor wakeups by 5-20x, which
// distorts the injected 200 us RPC latency against the real sleep durations;
// the shape tests still run end to end under TSan (that concurrency exercise
// is the TSan job's whole point) but their wall-clock percentile assertions
// are only meaningful uninstrumented.
#if defined(__SANITIZE_THREAD__)
#define HAWK_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HAWK_UNDER_TSAN 1
#endif
#endif
#ifndef HAWK_UNDER_TSAN
#define HAWK_UNDER_TSAN 0
#endif

namespace hawk {
namespace {

// A tiny Google-like trace in milliseconds-scale time, sized for a fleet of
// `total_slots` execution slots.
Trace SmallScaledTrace(uint32_t jobs, uint64_t seed, double util, uint32_t total_slots) {
  GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  Trace trace = CapTasksPreserveWork(GenerateGoogleTrace(params), total_slots / 2);
  // Scale total work down to ~4 wall-clock seconds.
  const double factor = 4e6 / static_cast<double>(trace.TotalWorkUs());
  trace = RescaleTime(trace, factor);
  Rng rng(seed);
  AssignPoissonArrivals(&trace, MeanInterarrivalForUtilization(trace, util, total_slots),
                        &rng);
  return trace;
}

// Wall-clock-friendly runtime knobs shared by all tests; the scheduler and
// the cluster shape come from the (shared, validated) HawkConfig.
runtime::PrototypeConfig SmallConfig(std::string scheduler, uint32_t workers = 40,
                                     uint32_t slots = 1) {
  runtime::PrototypeConfig config;
  config.scheduler = std::move(scheduler);
  config.hawk.num_workers = workers;
  config.hawk.slots_per_worker = slots;
  config.hawk.classify_mode = ClassifyMode::kHint;
  config.hawk.net_delay_us = 200;
  config.hawk.util_sample_period_us = 20'000;
  config.num_frontends = 4;
  config.timeout = std::chrono::milliseconds(60'000);
  return config;
}

void CheckPrototypeInvariants(const Trace& trace, const RunResult& result) {
  ASSERT_EQ(result.jobs.size(), trace.NumJobs());
  for (size_t i = 0; i < trace.NumJobs(); ++i) {
    EXPECT_EQ(result.jobs[i].id, trace.job(i).id);
    EXPECT_GE(result.jobs[i].finish_time, result.jobs[i].submit_time);
    // Wall-clock runtime is at least the longest task's sleep.
    EXPECT_GE(result.jobs[i].runtime_us, trace.job(i).MaxTaskDurationUs());
  }
  EXPECT_EQ(result.counters.tasks_launched, trace.TotalTasks());
}

TEST(PrototypeTest, HawkCompletesAllJobs) {
  const Trace trace = SmallScaledTrace(30, 3, 0.8, 40);
  const StatusOr<RunResult> result = runtime::RunPrototype(trace, SmallConfig("hawk"));
  ASSERT_TRUE(result.ok()) << result.status().message();
  CheckPrototypeInvariants(trace, result.value());
  EXPECT_GT(result.value().counters.events, trace.TotalTasks());  // RPC traffic happened.
}

TEST(PrototypeTest, SparrowCompletesAllJobs) {
  const Trace trace = SmallScaledTrace(30, 5, 0.8, 40);
  const StatusOr<RunResult> result = runtime::RunPrototype(trace, SmallConfig("sparrow"));
  ASSERT_TRUE(result.ok()) << result.status().message();
  CheckPrototypeInvariants(trace, result.value());
  // Sparrow's runtime shape has no backend and no stealing.
  EXPECT_EQ(result.value().counters.entries_stolen, 0u);
}

TEST(PrototypeTest, CentralizedAndSplitRunThroughTheirShapes) {
  // The non-hybrid built-ins exercise the other RuntimeShape corners:
  // centralized routes both classes through the backend; split probes short
  // jobs over the short partition only.
  const Trace trace = SmallScaledTrace(24, 13, 0.7, 40);
  for (const char* scheduler : {"centralized", "split"}) {
    SCOPED_TRACE(scheduler);
    const StatusOr<RunResult> result = runtime::RunPrototype(trace, SmallConfig(scheduler));
    ASSERT_TRUE(result.ok()) << result.status().message();
    CheckPrototypeInvariants(trace, result.value());
    EXPECT_EQ(result.value().counters.entries_stolen, 0u);
  }
}

TEST(PrototypeTest, StealingActivatesUnderLoad) {
  const Trace trace = SmallScaledTrace(60, 7, 1.3, 40);
  const StatusOr<RunResult> result = runtime::RunPrototype(trace, SmallConfig("hawk"));
  ASSERT_TRUE(result.ok()) << result.status().message();
  CheckPrototypeInvariants(trace, result.value());
  EXPECT_GT(result.value().counters.steal_attempts, 0u);
}

TEST(PrototypeTest, NoStealAttemptsWithoutStealing) {
  // The node monitors' steal gate is steal_cap alone. Under the load that
  // makes hawk steal above, hawk with steal_cap = 0 and sparrow, whose shape
  // does not steal, must not even attempt a steal.
  const Trace trace = SmallScaledTrace(60, 7, 1.3, 40);
  runtime::PrototypeConfig no_cap = SmallConfig("hawk");
  no_cap.hawk.steal_cap = 0;
  for (const runtime::PrototypeConfig& config : {no_cap, SmallConfig("sparrow")}) {
    SCOPED_TRACE(config.scheduler);
    const StatusOr<RunResult> result = runtime::RunPrototype(trace, config);
    ASSERT_TRUE(result.ok()) << result.status().message();
    CheckPrototypeInvariants(trace, result.value());
    EXPECT_EQ(result.value().counters.steal_attempts, 0u);
    EXPECT_EQ(result.value().counters.entries_stolen, 0u);
  }
}

TEST(PrototypeTest, UtilizationSamplesCollected) {
  const Trace trace = SmallScaledTrace(30, 9, 0.8, 40);
  const StatusOr<RunResult> result = runtime::RunPrototype(trace, SmallConfig("hawk"));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_GT(result.value().utilization_samples.size(), 3u);
  for (const double u : result.value().utilization_samples) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(PrototypeTest, ExternallyRegisteredSchedulerRunsOnThePrototype) {
  // Anything in the registry is a prototype citizen; hawk-dchoice is the
  // in-library registered variant (its shape inherits Hawk's control plane).
  const Trace trace = SmallScaledTrace(30, 15, 0.9, 40);
  const StatusOr<RunResult> result = runtime::RunPrototype(trace, SmallConfig("hawk-dchoice"));
  ASSERT_TRUE(result.ok()) << result.status().message();
  CheckPrototypeInvariants(trace, result.value());
}

// --- spec-driven entry point and failure paths ------------------------------

TEST(PrototypeSpecTest, UnknownSchedulerNameIsACleanStatus) {
  const Trace trace = SmallScaledTrace(5, 17, 0.5, 40);
  runtime::PrototypeConfig config = SmallConfig("no-such-scheduler");
  const StatusOr<RunResult> result = runtime::RunPrototype(trace, config);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown scheduler"), std::string::npos);
  EXPECT_NE(result.status().message().find("no-such-scheduler"), std::string::npos);
  // The spec entry point takes the same path.
  const StatusOr<RunResult> via_spec = runtime::RunPrototype(
      ExperimentSpec("still-not-registered").WithConfig(config.hawk).WithTrace(&trace),
      config);
  ASSERT_FALSE(via_spec.ok());
  EXPECT_NE(via_spec.status().message().find("unknown scheduler"), std::string::npos);
}

TEST(PrototypeSpecTest, InvalidConfigsAreCleanStatuses) {
  const Trace trace = SmallScaledTrace(5, 19, 0.5, 40);
  runtime::PrototypeConfig config = SmallConfig("hawk");
  config.num_frontends = 0;
  EXPECT_FALSE(runtime::RunPrototype(trace, config).ok());
  config = SmallConfig("hawk");
  config.hawk.probe_ratio = 0;  // Invalid by HawkConfig::Validate.
  EXPECT_FALSE(runtime::RunPrototype(trace, config).ok());
  const StatusOr<RunResult> no_trace =
      runtime::RunPrototype(ExperimentSpec("hawk"), SmallConfig("hawk"));
  ASSERT_FALSE(no_trace.ok());
  EXPECT_NE(no_trace.status().message().find("no trace"), std::string::npos);
  // A scheduler whose shape needs a short partition, on a config without
  // one: a clean Status, not the factory/Attach abort the simulator gets.
  config = SmallConfig("split");
  config.hawk.short_partition_fraction = 0.0;
  const StatusOr<RunResult> no_partition = runtime::RunPrototype(trace, config);
  ASSERT_FALSE(no_partition.ok());
  EXPECT_NE(no_partition.status().message().find("short partition"), std::string::npos);
}

TEST(PrototypeSpecTest, CentralShortTasksWithStealingIsACleanStatus) {
  // Node monitors can steal only probes, so a shape that places short tasks
  // centrally and also steals has no prototype form. No built-in scheduler
  // has this shape (centralized does not steal); register one.
  const char* kName = "test-central-short-stealing";
  if (!SchedulerRegistry::Global().Contains(kName)) {
    const Status registered = SchedulerRegistry::Global().Register(
        kName, [kName](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
          RuntimeShape shape;
          shape.centralized_short = true;
          return std::make_unique<HawkPolicy>(config, shape, kName);
        });
    ASSERT_TRUE(registered.ok()) << registered.message();
  }
  const Trace trace = SmallScaledTrace(5, 23, 0.5, 40);
  const StatusOr<RunResult> result = runtime::RunPrototype(trace, SmallConfig(kName));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("places short tasks centrally and steals"),
            std::string::npos)
      << result.status().message();
}

TEST(CompletionSinkTest, TimeoutNamesOutstandingJobs) {
  runtime::CompletionSink sink;
  sink.ExpectJobs({1, 2, 3});
  sink.Record(2, /*is_long=*/false);
  const Status status = sink.AwaitAll(std::chrono::milliseconds(10));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("2 job(s) outstanding"), std::string::npos);
  EXPECT_NE(status.message().find("1"), std::string::npos);
  EXPECT_NE(status.message().find("3"), std::string::npos);
  // Completing the stragglers resolves the wait.
  sink.Record(1, false);
  sink.Record(3, true);
  EXPECT_TRUE(sink.AwaitAll(std::chrono::milliseconds(10)).ok());
  EXPECT_EQ(sink.TakeAll().size(), 3u);
}

// --- agreement with the simulator -------------------------------------------

// Shared body: under load, the prototype and the simulator agree that Hawk
// substantially improves short jobs — the §4.10 claim — at the given slot
// layout. The prototype measures real sleeps, so a background load spike
// during one of the runs can flip the comparison on a shared machine; retry
// a bounded number of times (a genuine scheduling regression fails every
// attempt, transient contention does not).
void ExpectImplMatchesSimShape(uint32_t workers, uint32_t slots, uint32_t jobs,
                               uint64_t seed, double util) {
  const uint32_t total_slots = workers * slots;
  const Trace trace = SmallScaledTrace(jobs, seed, util, total_slots);

  runtime::PrototypeConfig runtime_knobs = SmallConfig("hawk", workers, slots);
  HawkConfig sim_config = runtime_knobs.hawk;

  // One spec pair drives both worlds.
  const ExperimentSpec hawk_spec =
      ExperimentSpec("hawk").WithConfig(sim_config).WithTrace(&trace);
  const ExperimentSpec sparrow_spec =
      ExperimentSpec("sparrow").WithConfig(sim_config).WithTrace(&trace);

  const RunResult sim_hawk = RunExperiment(hawk_spec);
  const RunResult sim_sparrow = RunExperiment(sparrow_spec);
  const RunComparison sim = CompareRuns(sim_hawk, sim_sparrow);
  EXPECT_LT(sim.short_jobs.p90_ratio, 1.0);

  double best_p90_ratio = std::numeric_limits<double>::infinity();
  // Every attempt's ratio goes into the failure message, so a failure shows
  // how far off each attempt was.
  std::ostringstream attempts;
  const int max_attempts = HAWK_UNDER_TSAN ? 1 : 3;
  for (int attempt = 0; attempt < max_attempts && !(best_p90_ratio < 1.0); ++attempt) {
    const StatusOr<RunResult> impl_hawk = runtime::RunPrototype(hawk_spec, runtime_knobs);
    const StatusOr<RunResult> impl_sparrow =
        runtime::RunPrototype(sparrow_spec, runtime_knobs);
    ASSERT_TRUE(impl_hawk.ok()) << impl_hawk.status().message();
    ASSERT_TRUE(impl_sparrow.ok()) << impl_sparrow.status().message();
    const RunComparison impl = CompareRuns(impl_hawk.value(), impl_sparrow.value());
    best_p90_ratio = std::min(best_p90_ratio, impl.short_jobs.p90_ratio);
    attempts << (attempt == 0 ? "" : ", ") << impl.short_jobs.p90_ratio;
  }
  if (!HAWK_UNDER_TSAN) {
    EXPECT_LT(best_p90_ratio, 1.0) << "impl short p90 ratio (hawk/sparrow) per attempt: "
                                   << attempts.str() << "; sim ratio "
                                   << sim.short_jobs.p90_ratio;
  }
}

TEST(PrototypeTest, AgreesWithSimulatorInShape) {
  ExpectImplMatchesSimShape(/*workers=*/40, /*slots=*/1, /*jobs=*/80, /*seed=*/11,
                            /*util=*/1.0);
}

TEST(PrototypeTest, MultiSlotAgreesWithSimulatorInShape) {
  // Same claim on a 4-slot fleet: 10 node monitors x 4 slots carry the same
  // 40-slot capacity as the single-slot case above. Offered load is higher
  // because pooled 4-slot servers absorb head-of-line blocking until deeper
  // into overload — at util 1.0 the Hawk-vs-Sparrow p90 gap is within
  // wall-clock noise, at 1.3 it is decisive.
  ExpectImplMatchesSimShape(/*workers=*/10, /*slots=*/4, /*jobs=*/100, /*seed=*/21,
                            /*util=*/1.3);
}

}  // namespace
}  // namespace hawk
