// End-to-end tests for the threaded prototype runtime: complete small traces
// under registry-resolved schedulers, verify completion, task conservation,
// stealing activity, multi-slot agreement in shape with the simulator, and
// the clean-Status failure paths of the spec-driven entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/check.h"
#include "src/core/hawk_scheduler.h"
#include "src/metrics/comparison.h"
#include "src/runtime/message_bus.h"
#include "src/runtime/prototype_cluster.h"
#include "src/runtime/proto_messages.h"
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

// The shared HawkConfig of the tests' specs: the cluster shape and the
// classification, as a simulation of the same fleet would use.
HawkConfig SmallHawk(uint32_t workers = 40, uint32_t slots = 1) {
  HawkConfig config;
  config.num_workers = workers;
  config.slots_per_worker = slots;
  config.classify_mode = ClassifyMode::kHint;
  config.net_delay_us = 200;
  return config;
}

ExperimentSpec SmallSpec(std::string scheduler, const Trace& trace) {
  return ExperimentSpec(std::move(scheduler)).WithConfig(SmallHawk()).WithTrace(&trace);
}

// Wall-clock-friendly harness knobs shared by all tests.
runtime::PrototypeConfig SmallKnobs() {
  runtime::PrototypeConfig knobs;
  knobs.num_frontends = 4;
  knobs.timeout = std::chrono::milliseconds(60'000);
  knobs.util_sample_period = std::chrono::milliseconds(20);
  return knobs;
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
  const StatusOr<RunResult> result = runtime::RunPrototype(SmallSpec("hawk", trace), SmallKnobs());
  ASSERT_TRUE(result.ok()) << result.status().message();
  CheckPrototypeInvariants(trace, result.value());
  EXPECT_GT(result.value().counters.events, trace.TotalTasks());  // RPC traffic happened.
}

TEST(PrototypeTest, SparrowCompletesAllJobs) {
  const Trace trace = SmallScaledTrace(30, 5, 0.8, 40);
  const StatusOr<RunResult> result =
      runtime::RunPrototype(SmallSpec("sparrow", trace), SmallKnobs());
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
    const StatusOr<RunResult> result =
        runtime::RunPrototype(SmallSpec(scheduler, trace), SmallKnobs());
    ASSERT_TRUE(result.ok()) << result.status().message();
    CheckPrototypeInvariants(trace, result.value());
    EXPECT_EQ(result.value().counters.entries_stolen, 0u);
  }
}

TEST(PrototypeTest, StealingActivatesUnderLoad) {
  const Trace trace = SmallScaledTrace(60, 7, 1.3, 40);
  const StatusOr<RunResult> result = runtime::RunPrototype(SmallSpec("hawk", trace), SmallKnobs());
  ASSERT_TRUE(result.ok()) << result.status().message();
  CheckPrototypeInvariants(trace, result.value());
  EXPECT_GT(result.value().counters.steal_attempts, 0u);
}

TEST(PrototypeTest, NoStealAttemptsWithoutStealing) {
  // The node monitors' steal gate is steal_cap alone. Under the load that
  // makes hawk steal above, hawk with steal_cap = 0 and sparrow, whose shape
  // does not steal, must not even attempt a steal.
  const Trace trace = SmallScaledTrace(60, 7, 1.3, 40);
  ExperimentSpec no_cap = SmallSpec("hawk", trace);
  no_cap.config.steal_cap = 0;
  for (const ExperimentSpec& spec : {no_cap, SmallSpec("sparrow", trace)}) {
    SCOPED_TRACE(spec.scheduler);
    const StatusOr<RunResult> result = runtime::RunPrototype(spec, SmallKnobs());
    ASSERT_TRUE(result.ok()) << result.status().message();
    CheckPrototypeInvariants(trace, result.value());
    EXPECT_EQ(result.value().counters.steal_attempts, 0u);
    EXPECT_EQ(result.value().counters.entries_stolen, 0u);
  }
}

TEST(PrototypeTest, UtilizationSamplesCollected) {
  const Trace trace = SmallScaledTrace(30, 9, 0.8, 40);
  const StatusOr<RunResult> result = runtime::RunPrototype(SmallSpec("hawk", trace), SmallKnobs());
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
  const StatusOr<RunResult> result =
      runtime::RunPrototype(SmallSpec("hawk-dchoice", trace), SmallKnobs());
  ASSERT_TRUE(result.ok()) << result.status().message();
  CheckPrototypeInvariants(trace, result.value());
}

// --- spec-driven entry point and failure paths ------------------------------

// Registers (once) a scheduler whose factory returns null.
const char* NullFactoryScheduler() {
  const char* kName = "test-null-factory";
  if (!SchedulerRegistry::Global().Contains(kName)) {
    const Status registered = SchedulerRegistry::Global().Register(
        kName, [](const HawkConfig&) -> std::unique_ptr<SchedulerPolicy> { return nullptr; });
    HAWK_CHECK(registered.ok()) << registered.message();
  }
  return kName;
}

// Both executors resolve a spec through ResolveSpec, so a spec one rejects
// the other rejects with the same message: an abort from RunExperiment, a
// Status from RunPrototype.
TEST(PrototypeSpecDeathTest, BadSpecsFailAlikeInBothExecutors) {
  const Trace trace = SmallScaledTrace(5, 17, 0.5, 40);
  ExperimentSpec invalid = SmallSpec("hawk", trace);
  invalid.config.probe_ratio = 0;
  const struct {
    ExperimentSpec spec;
    const char* message;
  } cases[] = {
      {ExperimentSpec("hawk").WithConfig(SmallHawk()).WithLabel("traceless"),
       "experiment 'traceless' has no trace"},
      {invalid, "invalid config for experiment 'hawk': probe_ratio"},
      {SmallSpec("no-such-scheduler", trace),
       "unknown scheduler 'no-such-scheduler'; registered schedulers: "},
      {SmallSpec(NullFactoryScheduler(), trace),
       "scheduler 'test-null-factory' factory returned null"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    EXPECT_DEATH({ RunExperiment(c.spec); }, c.message);
    const StatusOr<RunResult> result = runtime::RunPrototype(c.spec, SmallKnobs());
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find(c.message), std::string::npos)
        << result.status().message();
  }
}

TEST(PrototypeSpecTest, InvalidConfigsAreCleanStatuses) {
  const Trace trace = SmallScaledTrace(5, 19, 0.5, 40);
  // Every harness knob at an invalid value, each named in its Status.
  const struct {
    const char* knob;
    void (*spoil)(runtime::PrototypeConfig&);
  } knobs[] = {
      {"num_frontends", [](runtime::PrototypeConfig& k) { k.num_frontends = 0; }},
      {"timeout", [](runtime::PrototypeConfig& k) { k.timeout = {}; }},
      {"fault_detection_timeout",
       [](runtime::PrototypeConfig& k) { k.fault_detection_timeout = {}; }},
      {"reap_period",
       [](runtime::PrototypeConfig& k) { k.reap_period = std::chrono::milliseconds(-1); }},
      {"heartbeat_period", [](runtime::PrototypeConfig& k) { k.heartbeat_period = {}; }},
      {"util_sample_period", [](runtime::PrototypeConfig& k) { k.util_sample_period = {}; }},
  };
  for (const auto& knob : knobs) {
    SCOPED_TRACE(knob.knob);
    runtime::PrototypeConfig spoiled = SmallKnobs();
    knob.spoil(spoiled);
    const StatusOr<RunResult> result = runtime::RunPrototype(SmallSpec("hawk", trace), spoiled);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find(knob.knob), std::string::npos)
        << result.status().message();
  }
  // A scheduler whose shape needs a short partition, on a config without
  // one: a clean Status, not the factory/Attach abort the simulator gets.
  ExperimentSpec split = SmallSpec("split", trace);
  split.config.short_partition_fraction = 0.0;
  const StatusOr<RunResult> no_partition = runtime::RunPrototype(split, SmallKnobs());
  ASSERT_FALSE(no_partition.ok());
  EXPECT_NE(no_partition.status().message().find("short partition"), std::string::npos);
}

TEST(PrototypeSpecTest, WorkerChurnIsRejected) {
  // Graceful drain exists only in the simulator. A churn rate must fail
  // loudly rather than run a fault-free schedule with the recovery reaper
  // and the failure detector armed.
  const Trace trace = SmallScaledTrace(5, 29, 0.5, 40);
  ExperimentSpec spec = SmallSpec("hawk", trace);
  spec.config.worker_churn_rate = 1.0;
  spec.config.worker_downtime_us = 50'000;
  ASSERT_TRUE(spec.config.Validate().ok());
  const StatusOr<RunResult> result = runtime::RunPrototype(spec, SmallKnobs());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("worker_churn_rate"), std::string::npos)
      << result.status().message();
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
  const StatusOr<RunResult> result = runtime::RunPrototype(SmallSpec(kName, trace), SmallKnobs());
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

// --- the backend's lane feedback -------------------------------------------

// The backend's lane accounting under delivery reorder, driven without node
// monitors: one delivery thread and zero latency deliver in send order, fake
// monitor endpoints record placements, and estimates of ~1000 s keep every
// lane's waiting time fixed for the test's wall-clock span. Job 1 lands on
// lane 0 and job 2 on lane 1; job 2 starts, then job 1 finishes and starts
// in the order under test. Whichever order job 1's reports arrive in, lane 0
// ends drained, so job 3 goes there rather than behind job 2 on lane 1.
TEST(CentralBackendTest, FinishBeforeStartFreesTheLaneLikeStartFirst) {
  constexpr int64_t kEstimateUs = 1'000'000'000;
  for (const bool finish_first : {false, true}) {
    SCOPED_TRACE(finish_first ? "finish first" : "start first");
    const Cluster layout(/*num_workers=*/2, /*general_count=*/2);
    runtime::MessageBus bus(std::chrono::microseconds(0), /*delivery_threads=*/1);
    runtime::CompletionSink sink;
    sink.ExpectJobs({1, 2, 3});
    std::mutex mu;
    std::vector<runtime::TaskMsg> placed;
    for (runtime::Address monitor = 0; monitor < 2; ++monitor) {
      bus.Register(monitor, [&](const runtime::BusMessage& m) {
        ASSERT_EQ(m.type, runtime::kTaskPlace);
        std::lock_guard<std::mutex> lock(mu);
        placed.push_back(std::get<runtime::TaskMsg>(m.payload));
      });
    }
    runtime::CentralBackend backend(runtime::kBackendAddress, &layout,
                                    runtime::FaultRecoveryPolicy(), &bus, &sink);
    backend.Start();
    const auto submit = [&](JobId job, int64_t estimate_us) {
      bus.Send(runtime::kBackendAddress, runtime::kBackendAddress, runtime::kJobSubmit,
               runtime::JobSubmitMsg::Make(job, /*is_long=*/true, estimate_us, {1'000}));
      bus.Drain();
      std::lock_guard<std::mutex> lock(mu);
      return placed.back();
    };
    const auto report = [&](runtime::MessageType type, const runtime::TaskMsg& task) {
      bus.Send(task.slot, runtime::kBackendAddress, type, task);
    };
    // Job 1's estimate is the larger, so a lane 0 left marked executing
    // would drain after lane 1.
    const runtime::TaskMsg first = submit(1, 2 * kEstimateUs);
    const runtime::TaskMsg second = submit(2, kEstimateUs);
    ASSERT_EQ(first.slot, 0u);
    ASSERT_EQ(second.slot, 1u);
    report(runtime::kTaskStarted, second);
    if (finish_first) {
      report(runtime::kTaskDone, first);
      report(runtime::kTaskStarted, first);
    } else {
      report(runtime::kTaskStarted, first);
      report(runtime::kTaskDone, first);
    }
    EXPECT_EQ(submit(3, kEstimateUs).slot, first.slot);
    bus.Shutdown();
  }
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

  const runtime::PrototypeConfig runtime_knobs = SmallKnobs();
  const HawkConfig sim_config = SmallHawk(workers, slots);

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
