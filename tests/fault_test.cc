// Fault-injection layer tests: determinism under faults, work conservation
// under crashes (every task completes exactly once; busy time splits exactly
// into useful and wasted work), zero-fault inertness, and the prototype's
// timeout-based crash recovery including duplicate-completion dedupe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/runtime/prototype_cluster.h"
#include "src/runtime/schedulers.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"
#include "tests/test_util.h"

namespace hawk {
namespace {

using testing::ExpectBitIdentical;

// All four built-in policies plus the d-choices variant — the fault layer is
// policy-agnostic and every registered scheduler must survive it.
const char* kAllSchedulers[] = {"sparrow", "centralized", "hawk", "hawk-dchoice", "split"};

// Strict unsigned-integer env parse (the idiom of BenchScale in bench/figures.cc): a
// malformed value must fail the run loudly, not silently fall back — a chaos
// soak that quietly reruns the default schedule validates nothing while
// claiming to have walked the matrix.
uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const uint64_t value = std::strtoull(env, &end, 10);
  while (end != nullptr && std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  HAWK_CHECK(end != nullptr && *end == '\0' && end != env)
      << name << " is not an unsigned integer: \"" << env << "\"";
  return value;
}

// Chaos-soak hook: CI reruns the fault-labeled suites with HAWK_FAULT_SEED
// set to walk several distinct crash/loss/straggler schedules through the
// same invariants. Locally (unset) the fallback keeps runs reproducible.
uint64_t EnvFaultSeed(uint64_t fallback) { return EnvU64("HAWK_FAULT_SEED", fallback); }

// Second chaos-soak axis: HAWK_SIM_SHARDS routes the *simulation* halves of
// the fault suites through the sharded executor (the prototype halves run
// real threads and ignore it). The shards>1 identity pins live in
// shard_test.cc; here the same fault invariants must hold per shard count.
uint32_t EnvSimShards() {
  const uint64_t shards = EnvU64("HAWK_SIM_SHARDS", 1);
  HAWK_CHECK_GE(shards, 1u) << "HAWK_SIM_SHARDS must be >= 1";
  return static_cast<uint32_t>(shards);
}

// Third chaos-soak axis: HAWK_SIM_THREADS sizes the sharded executor's phase
// pool (0 = hardware default, 1 = inline). Only meaningful with shards > 1;
// thread-count identity pins live in shard_test.cc, here each pool size must
// uphold the same fault invariants under TSan.
uint32_t EnvSimThreads() {
  return static_cast<uint32_t>(EnvU64("HAWK_SIM_THREADS", 1));
}

Trace MakeTrace(uint32_t jobs = 150, uint64_t seed = 5, double interarrival_s = 2.0) {
  Trace trace = GenerateClusterWorkload(FacebookParams(jobs, seed));
  Rng arrivals_rng(11);
  AssignPoissonArrivals(&trace, SecondsToUs(interarrival_s), &arrivals_rng);
  return trace;
}

// Fault rates are per worker per second and must sit well below the
// reciprocal of the longest task duration (a crashed task restarts from
// scratch, so rate >~ 1/longest_task makes the tail statistically
// non-terminating — exactly as on a real cluster). This trace's longest
// tasks run ~1e6 simulated seconds, so rates live in the 1e-7 regime,
// which still yields dozens of crash/depart events per run.
HawkConfig FaultyConfig() {
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.worker_crash_rate = 3e-7;
  config.worker_churn_rate = 2e-7;
  config.worker_downtime_us = SecondsToUs(20.0);
  config.message_loss_rate = 0.05;
  config.message_delay_jitter_us = 2'000;
  config.fault_seed = EnvFaultSeed(3);
  config.sim_shards = EnvSimShards();
  config.sim_threads = EnvSimThreads();
  return config;
}

TEST(FaultConfigTest, ValidationRejectsBadKnobs) {
  HawkConfig config;
  config.worker_crash_rate = -1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = HawkConfig();
  config.message_loss_rate = 1.0;  // Retransmission would never terminate.
  EXPECT_FALSE(config.Validate().ok());
  config = HawkConfig();
  config.worker_churn_rate = 0.1;
  config.worker_downtime_us = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = HawkConfig();
  config.fault_seed = 42;  // A seed alone enables nothing and is valid.
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_FALSE(config.FaultsEnabled());
}

// The fault seed must be dead code while every fault axis is zero: results
// (down to event counts) match a config that never mentions faults.
TEST(FaultDeterminismTest, ZeroRatesAreInert) {
  const Trace trace = MakeTrace();
  HawkConfig base;
  base.num_workers = 100;
  base.classify_mode = ClassifyMode::kHint;
  base.seed = 7;
  HawkConfig seeded = base;
  seeded.fault_seed = 999;  // Only consulted when an axis is nonzero.
  for (const char* scheduler : kAllSchedulers) {
    ExpectBitIdentical(RunExperiment(trace, base, scheduler),
                       RunExperiment(trace, seeded, scheduler));
  }
}

// Same seed + same fault config => bit-identical runs, for every scheduler,
// with every fault axis active at once.
TEST(FaultDeterminismTest, FaultyRunsAreReproducible) {
  const Trace trace_a = MakeTrace();
  const Trace trace_b = MakeTrace();
  const HawkConfig config = FaultyConfig();
  for (const char* scheduler : kAllSchedulers) {
    SCOPED_TRACE(scheduler);
    ExpectBitIdentical(RunExperiment(trace_a, config, scheduler),
                       RunExperiment(trace_b, config, scheduler));
  }
}

// Sweep-thread invariance: the same fault grid run serially and on four
// threads must produce identical results point by point.
TEST(FaultDeterminismTest, SweepThreadCountInvariant) {
  const Trace trace = MakeTrace(100, 5, 2.0);
  HawkConfig config = FaultyConfig();
  SweepSpec sweep(ExperimentSpec("hawk").WithTrace(&trace).WithConfig(config));
  sweep.VarySchedulers({"sparrow", "hawk", "split"})
      .Vary("worker_crash_rate", {0.0, 2e-7, 4e-7});
  const std::vector<SweepRun> serial = RunSweep(sweep, /*num_threads=*/1);
  const std::vector<SweepRun> parallel = RunSweep(sweep, /*num_threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].spec.Label());
    ExpectBitIdentical(serial[i].result, parallel[i].result);
  }
}

// Work conservation under crashes: every job finishes, and cluster busy time
// splits exactly into useful work (each task's full duration, once) plus the
// wasted partial executions of crashed copies.
TEST(FaultConservationTest, EveryTaskCompletesExactlyOnce) {
  const Trace trace = MakeTrace(120, 9, 1.5);
  HawkConfig config = FaultyConfig();
  config.worker_crash_rate = 2e-6;  // Aggressive for this trace: hundreds of crashes.
  config.worker_downtime_us = SecondsToUs(10.0);
  for (const char* scheduler : kAllSchedulers) {
    SCOPED_TRACE(scheduler);
    const RunResult result = RunExperiment(trace, config, scheduler);
    ASSERT_EQ(result.jobs.size(), trace.NumJobs());
    for (const JobResult& job : result.jobs) {
      EXPECT_GE(job.finish_time, job.submit_time);
    }
    EXPECT_GT(result.counters.worker_crashes, 0u);
    EXPECT_EQ(result.total_busy_us,
              static_cast<uint64_t>(trace.TotalWorkUs()) + result.counters.wasted_work_us);
  }
}

// Lossy delivery alone (no crashes): every retransmitted message eventually
// lands, so all jobs still finish and no work is wasted.
TEST(FaultConservationTest, LossyDeliveryStillCompletesEverything) {
  const Trace trace = MakeTrace(120, 9, 1.5);
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.message_loss_rate = 0.2;
  config.message_delay_jitter_us = 1'000;
  for (const char* scheduler : kAllSchedulers) {
    SCOPED_TRACE(scheduler);
    const RunResult result = RunExperiment(trace, config, scheduler);
    ASSERT_EQ(result.jobs.size(), trace.NumJobs());
    EXPECT_GT(result.counters.messages_dropped, 0u);
    EXPECT_EQ(result.counters.messages_dropped, result.counters.message_retries);
    EXPECT_EQ(result.counters.wasted_work_us, 0u);
    EXPECT_EQ(result.total_busy_us, static_cast<uint64_t>(trace.TotalWorkUs()));
  }
}

// --- prototype ---------------------------------------------------------------

// A hand-built wall-clock trace: `jobs` jobs of `tasks` sleeps each.
Trace WallClockTrace(uint32_t jobs, uint32_t tasks, DurationUs task_us, SimTime spacing_us) {
  Trace trace;
  for (uint32_t j = 0; j < jobs; ++j) {
    Job job;
    job.submit_time = j * spacing_us;
    job.task_durations.assign(tasks, task_us);
    trace.Add(job);
  }
  trace.SortAndRenumber();
  return trace;
}

// Real crashes in the prototype: monitors go silent mid-run, and the
// schedulers' timeout reaping re-dispatches the dead work — the run still
// completes every job.
TEST(PrototypeFaultTest, CrashedMonitorsRecoverViaReDispatch) {
  const Trace trace = WallClockTrace(/*jobs=*/12, /*tasks=*/4, /*task_us=*/60'000,
                                     /*spacing_us=*/50'000);
  ExperimentSpec spec = ExperimentSpec("sparrow").WithTrace(&trace);
  runtime::PrototypeConfig knobs;
  spec.config.num_workers = 8;
  spec.config.classify_mode = ClassifyMode::kHint;
  spec.config.net_delay_us = 200;
  knobs.util_sample_period = std::chrono::milliseconds(20);
  // Mean time to first crash ~25 ms against a ~600 ms submission span: the
  // run sees many crash/rejoin cycles with overwhelming probability, while
  // each 60 ms task still survives its 200 ms per-worker MTBF often enough
  // for re-dispatch to converge quickly.
  spec.config.worker_crash_rate = 5.0;
  spec.config.worker_downtime_us = 80'000;
  spec.config.fault_seed = EnvFaultSeed(1);
  knobs.num_frontends = 2;
  knobs.fault_detection_timeout = std::chrono::milliseconds(80);
  knobs.reap_period = std::chrono::milliseconds(20);
  knobs.timeout = std::chrono::milliseconds(60'000);
  const StatusOr<RunResult> result = runtime::RunPrototype(spec, knobs);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result.value().jobs.size(), trace.NumJobs());
  EXPECT_GT(result.value().counters.worker_crashes, 0u);
}

// Aggressive detection timeout with no crashes: the backend re-places queued
// (but perfectly alive) tasks, both copies run, and the duplicate-completion
// counters absorb the seconds — jobs still complete exactly once. The trace
// needs a straggler: a run ends when its last job completes, so a duplicate
// only registers if it drains while some original is still running. Run at
// the default retry budget and at the smallest valid one (1): over budget
// the prototype keeps re-placing, so the run completes either way.
TEST(PrototypeFaultTest, DuplicateCompletionsAreCountedAndDeduped) {
  Trace trace;
  Job warmup;  // Fills both workers for 60 ms.
  warmup.submit_time = 0;
  warmup.task_durations = {60'000, 60'000};
  trace.Add(warmup);
  Job squeezed;  // Queued behind warmup: overdue long before it starts.
  squeezed.submit_time = 5'000;
  squeezed.task_durations = {30'000, 30'000};
  trace.Add(squeezed);
  Job straggler;  // Pins one worker while the other drains duplicate copies.
  straggler.submit_time = 10'000;
  straggler.task_durations = {400'000};
  trace.Add(straggler);
  trace.SortAndRenumber();
  for (const uint32_t budget : {16u, 1u}) {
    SCOPED_TRACE("retry_budget " + std::to_string(budget));
    // Every task queues via kTaskPlace.
    ExperimentSpec spec = ExperimentSpec("centralized").WithTrace(&trace);
    runtime::PrototypeConfig knobs;
    spec.config.num_workers = 2;
    spec.config.classify_mode = ClassifyMode::kHint;
    spec.config.net_delay_us = 200;
    knobs.util_sample_period = std::chrono::milliseconds(20);
    spec.config.retry_budget = budget;
    // Enable the fault layer without any actual fault: 1 us of jitter turns
    // on the reaper, whose 10 ms detection window is far shorter than the
    // squeezed job's queueing delay.
    spec.config.message_delay_jitter_us = 1;
    knobs.fault_detection_timeout = std::chrono::milliseconds(10);
    knobs.reap_period = std::chrono::milliseconds(10);
    knobs.timeout = std::chrono::milliseconds(60'000);
    const StatusOr<RunResult> result = runtime::RunPrototype(spec, knobs);
    ASSERT_TRUE(result.ok()) << result.status().message();
    // Exactly one completion per job despite the duplicates.
    ASSERT_EQ(result.value().jobs.size(), trace.NumJobs());
    const RunCounters& counters = result.value().counters;
    EXPECT_GT(counters.tasks_re_dispatched + counters.retries_suppressed, 0u);
    EXPECT_GT(counters.duplicate_completions, 0u);
    if (budget == 16) {
      EXPECT_GT(counters.tasks_re_dispatched, 0u);
    }
    // A task is abandoned only once its permitted re-dispatches are spent,
    // and each abandonment is one of the suppressed retries.
    EXPECT_LE(counters.tasks_abandoned, counters.tasks_re_dispatched);
    EXPECT_LE(counters.tasks_abandoned, counters.retries_suppressed);
  }
}

// The retry budget's accounting on the prototype's recovery ledger, driven
// directly so the clock is explicit: two tasks each presumed dead three
// times. Budget 0 lies below HawkConfig's valid range, so no run can ask for
// it, but the ledger's policy is plain data and its accounting must hold at
// that edge too: every re-dispatch is suppressed, each task is abandoned
// exactly once, and the job still completes — past the budget the prototype
// keeps re-placing.
TEST(RecoveryLedgerTest, AccountsTheRetryBudget) {
  struct NoExtra {};
  for (const uint32_t budget : {0u, 1u, 16u}) {
    SCOPED_TRACE("retry_budget " + std::to_string(budget));
    runtime::FaultRecoveryPolicy policy;
    policy.enabled = true;
    policy.detection_timeout = std::chrono::milliseconds(10);
    policy.retry_budget = budget;
    std::mutex mu;
    runtime::CompletionSink sink;
    sink.ExpectJobs({7});
    using Ledger = runtime::RecoveryLedger<NoExtra>;
    Ledger ledger(policy, &sink, &mu);
    {
      std::lock_guard<std::mutex> lock(mu);
      Ledger::Job& job = ledger.Admit(runtime::JobSubmitMsg::Make(7, false, 0, {1'000, 1'000}));
      // Past every deadline, without reading a clock.
      const Ledger::Clock::time_point later = Ledger::Clock::time_point::max();
      for (int death = 0; death < 3; ++death) {
        for (uint32_t i = 0; i < 2; ++i) {
          ledger.Issue(7, job, i);
          EXPECT_TRUE(ledger.ReapIfOverdue(job.tasks[i], later));
          EXPECT_FALSE(ledger.ReapIfOverdue(job.tasks[i], later));  // Now pending.
        }
      }
      ledger.Issue(7, job, 0);
      ledger.Issue(7, job, 1);
      EXPECT_NE(ledger.Complete(runtime::TaskMsg::Grant(7, 0, 1'000, false, 0)), nullptr);
      EXPECT_EQ(ledger.Complete(runtime::TaskMsg::Grant(7, 0, 1'000, false, 0)), nullptr);
      EXPECT_EQ(ledger.Complete(runtime::TaskMsg::Grant(7, 1, 1'000, false, 0)), nullptr);
      // A copy presumed dead finishing after its job retired.
      EXPECT_EQ(ledger.Complete(runtime::TaskMsg::Grant(7, 1, 1'000, false, 0)), nullptr);
    }
    const RunCounters counters = ledger.Counters();
    const uint64_t within = 2 * std::min<uint64_t>(3, budget);
    EXPECT_EQ(counters.tasks_re_dispatched, within);
    EXPECT_EQ(counters.retries_suppressed, 6 - within);
    EXPECT_EQ(counters.tasks_abandoned, budget < 3 ? 2u : 0u);
    EXPECT_EQ(counters.duplicate_completions, 2u);
    uint32_t done = 0;
    uint32_t total = 0;
    EXPECT_FALSE(ledger.JobProgress(7, &done, &total));  // Retired.
    EXPECT_TRUE(sink.AwaitAll(std::chrono::milliseconds(0)).ok());
  }
}

// Speculation on the prototype: hawk-spec clones a granted copy that runs
// past 2x its nominal duration, and stricken slots run 4x slow, so clones
// launch. Whichever copy finishes first completes the task, and every job
// completes exactly once (the sink aborts on a second record).
TEST(PrototypeFaultTest, SpeculationClonesStragglersAndCompletesEachJobOnce) {
  const Trace trace = WallClockTrace(/*jobs=*/10, /*tasks=*/4, /*task_us=*/20'000,
                                     /*spacing_us=*/30'000);
  ExperimentSpec spec = ExperimentSpec("hawk-spec").WithTrace(&trace);
  runtime::PrototypeConfig knobs;
  spec.config.num_workers = 8;
  spec.config.classify_mode = ClassifyMode::kHint;
  spec.config.net_delay_us = 200;
  knobs.util_sample_period = std::chrono::milliseconds(20);
  spec.config.straggler_rate = 0.3;
  spec.config.straggler_slowdown_factor = 4.0;
  knobs.num_frontends = 2;
  // Scan well inside a straggler's 80 ms so the 40 ms threshold is seen.
  knobs.reap_period = std::chrono::milliseconds(10);
  knobs.timeout = std::chrono::milliseconds(60'000);
  const StatusOr<RunResult> result = runtime::RunPrototype(spec, knobs);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result.value().jobs.size(), trace.NumJobs());
  for (size_t i = 0; i < trace.NumJobs(); ++i) {
    EXPECT_EQ(result.value().jobs[i].id, trace.jobs()[i].id);
  }
  // With 40 tasks at rate 0.3 a zero-straggler run is a ~6e-7 event.
  EXPECT_GT(result.value().counters.tasks_speculated, 0u);
}

// Real stragglers in the prototype: stricken executor slots actually sleep
// longer than the nominal duration. Every job still completes, and the
// stretch is charged to wasted work on top of the nominal busy time.
TEST(PrototypeFaultTest, StragglersSlowRealExecutorsButEverythingCompletes) {
  const Trace trace = WallClockTrace(/*jobs=*/10, /*tasks=*/4, /*task_us=*/20'000,
                                     /*spacing_us=*/30'000);
  ExperimentSpec spec = ExperimentSpec("hawk").WithTrace(&trace);
  runtime::PrototypeConfig knobs;
  spec.config.num_workers = 8;
  spec.config.classify_mode = ClassifyMode::kHint;
  spec.config.net_delay_us = 200;
  knobs.util_sample_period = std::chrono::milliseconds(20);
  spec.config.straggler_rate = 0.3;
  spec.config.straggler_slowdown_factor = 4.0;
  knobs.num_frontends = 2;
  knobs.timeout = std::chrono::milliseconds(60'000);
  const StatusOr<RunResult> result = runtime::RunPrototype(spec, knobs);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result.value().jobs.size(), trace.NumJobs());
  // With 40 tasks at rate 0.3 a zero-straggler run is a ~6e-7 event.
  EXPECT_GT(result.value().counters.wasted_work_us, 0u);
  // Conservation on the wall clock: busy time is nominal work plus stretch
  // (sleeps overshoot slightly, so >=, and crashes are off so nothing else
  // feeds the wasted ledger).
  EXPECT_GE(result.value().total_busy_us,
            static_cast<uint64_t>(trace.TotalWorkUs()) +
                result.value().counters.wasted_work_us);
}

// The heartbeat detector suspects crashed monitors: with downtimes an order
// of magnitude past the suspicion floor, each crash's silence must register
// as at least one alive -> suspected transition, and rejoining nodes are
// rehabilitated (the run completes normally with suspicion steering on).
TEST(PrototypeFaultTest, HeartbeatDetectorSuspectsCrashedNodes) {
  const Trace trace = WallClockTrace(/*jobs=*/12, /*tasks=*/4, /*task_us=*/40'000,
                                     /*spacing_us=*/60'000);
  ExperimentSpec spec = ExperimentSpec("sparrow").WithTrace(&trace);
  runtime::PrototypeConfig knobs;
  spec.config.num_workers = 8;
  spec.config.classify_mode = ClassifyMode::kHint;
  spec.config.net_delay_us = 200;
  knobs.util_sample_period = std::chrono::milliseconds(20);
  spec.config.worker_crash_rate = 3.0;
  spec.config.worker_downtime_us = 400'000;  // >> the 3 x 20 ms suspicion floor.
  spec.config.fault_seed = EnvFaultSeed(4);
  knobs.num_frontends = 2;
  knobs.heartbeat_period = std::chrono::milliseconds(20);
  knobs.fault_detection_timeout = std::chrono::milliseconds(80);
  knobs.reap_period = std::chrono::milliseconds(20);
  knobs.timeout = std::chrono::milliseconds(60'000);
  const StatusOr<RunResult> result = runtime::RunPrototype(spec, knobs);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result.value().jobs.size(), trace.NumJobs());
  EXPECT_GT(result.value().counters.worker_crashes, 0u);
  EXPECT_GT(result.value().counters.node_suspicions, 0u);
}

}  // namespace
}  // namespace hawk
