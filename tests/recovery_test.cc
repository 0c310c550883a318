// Adaptive-recovery tests: the policy-level fault hooks (OnTaskLost /
// OnProbeLost / OnTaskStraggling) exercised directly against every
// registered scheduler, determinism pins for straggler-only and
// speculation-on runs (including sweep-thread invariance), work conservation
// under stragglers, and the retry budget's bound on retransmissions.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/check.h"
#include "src/cluster/job_tracker.h"
#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/core/job_classifier.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/policy.h"
#include "src/scheduler/registry.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"

namespace hawk {
namespace {

// Chaos-soak hook: CI reruns the fault-labeled suites with HAWK_FAULT_SEED
// set to walk several distinct crash/loss/straggler schedules through the
// same invariants. Locally (unset) the fallback keeps runs reproducible.
// Strict parse (the bench_util::BenchScale idiom): a malformed value fails
// loudly instead of silently soaking the fallback schedule.
uint64_t EnvFaultSeed(uint64_t fallback) {
  const char* env = std::getenv("HAWK_FAULT_SEED");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const uint64_t value = std::strtoull(env, &end, 10);
  while (end != nullptr && std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  HAWK_CHECK(end != nullptr && *end == '\0' && end != env)
      << "HAWK_FAULT_SEED is not an unsigned integer: \"" << env << "\"";
  return value;
}

// A context that records placements instead of simulating them — enough to
// drive the recovery hooks of any policy in isolation.
class RecordingContext : public SchedulerContext {
 public:
  RecordingContext(Cluster* cluster, JobTracker* tracker)
      : cluster_(cluster), tracker_(tracker), rng_(17) {}

  SimTime Now() const override { return 0; }
  Rng& SchedRng() override { return rng_; }
  Cluster& GetCluster() override { return *cluster_; }
  JobTracker& Tracker() override { return *tracker_; }
  RunCounters& Counters() override { return counters_; }

  void PlaceProbe(WorkerId, JobId, bool) override { ++probes_placed; }
  void PlaceTask(WorkerId, JobId, TaskIndex, DurationUs, bool) override { ++tasks_placed; }
  void PlaceSpeculative(WorkerId worker, JobId, TaskIndex, DurationUs, bool) override {
    ++speculative_placed;
    EXPECT_LT(worker, cluster_->NumWorkers());
  }
  void DeliverStolen(WorkerId, const std::vector<QueueEntry>&) override {}

  uint64_t Placements() const { return probes_placed + tasks_placed; }
  void Reset() { probes_placed = tasks_placed = speculative_placed = 0; }

  uint64_t probes_placed = 0;
  uint64_t tasks_placed = 0;
  uint64_t speculative_placed = 0;

 private:
  Cluster* cluster_;
  JobTracker* tracker_;
  Rng rng_;
  RunCounters counters_;
};

Trace TwoJobTrace() {
  Trace trace;
  Job short_job;  // Job 0: short, 4 tasks.
  short_job.submit_time = 0;
  short_job.task_durations = {1'000, 1'000, 1'000, 1'000};
  trace.Add(short_job);
  Job long_job;  // Job 1: long, 2 tasks.
  long_job.submit_time = 0;
  long_job.task_durations = {600'000, 600'000};
  trace.Add(long_job);
  trace.SortAndRenumber();
  return trace;
}

// Every registered scheduler — built-ins and variants alike — must give a
// lost task a fresh path to a grant, replace lost probes only while the job
// still has unassigned tasks, and never replace surplus probes.
TEST(RecoveryHooksTest, EveryRegisteredSchedulerHandlesLostTasksAndProbes) {
  for (const std::string& name : SchedulerRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const SchedulerRegistry::Entry* entry = SchedulerRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr);
    HawkConfig config;
    config.num_workers = 20;
    config.classify_mode = ClassifyMode::kHint;
    std::unique_ptr<SchedulerPolicy> policy = entry->factory(config);
    ASSERT_NE(policy, nullptr);
    const uint32_t general =
        entry->general_count ? entry->general_count(config) : config.num_workers;
    Cluster cluster(config.num_workers, general, config.Slots());
    const Trace trace = TwoJobTrace();
    JobTracker tracker(&trace);
    tracker.SetClassification(0, false, false, 1'000);
    tracker.SetClassification(1, true, true, 600'000);
    RecordingContext ctx(&cluster, &tracker);
    policy->Attach(&ctx);
    policy->OnJobArrival(trace.job(0), JobClass{false, false, 1'000.0});
    policy->OnJobArrival(trace.job(1), JobClass{true, true, 600'000.0});

    // A probe lost while the short job still has unassigned tasks must be
    // replaced (probe-based policies) — unless the policy assigned
    // everything at arrival (centralized placement), where the surplus rule
    // applies immediately.
    ctx.Reset();
    policy->OnProbeLost(/*job=*/0, /*is_long=*/false);
    if (tracker.AllTasksAssigned(0)) {
      EXPECT_EQ(ctx.Placements(), 0u);
    } else {
      EXPECT_GE(ctx.Placements(), 1u);
    }

    // Lost tasks must always be re-pathed, both classes. The contract is
    // ReturnTask-then-notify, exactly as the driver's fault layer calls it.
    ctx.Reset();
    while (tracker.TakeNextTask(0).has_value()) {
    }
    tracker.ReturnTask(0, TaskAssignment{0, 1'000});
    policy->OnTaskLost(/*job=*/0, /*is_long=*/false);
    EXPECT_GE(ctx.Placements(), 1u);

    ctx.Reset();
    while (tracker.TakeNextTask(1).has_value()) {
    }
    tracker.ReturnTask(1, TaskAssignment{0, 600'000});
    policy->OnTaskLost(/*job=*/1, /*is_long=*/true);
    EXPECT_GE(ctx.Placements(), 1u);

    // With every task of the short job handed out, a lost probe is surplus
    // and must not be replaced — replacements would only resolve to cancels.
    ctx.Reset();
    while (tracker.TakeNextTask(0).has_value()) {
    }
    ASSERT_TRUE(tracker.AllTasksAssigned(0));
    policy->OnProbeLost(/*job=*/0, /*is_long=*/false);
    EXPECT_EQ(ctx.Placements(), 0u);

    // The straggling hook launches exactly one duplicate via
    // PlaceSpeculative, never a probe or an owned task.
    ctx.Reset();
    policy->OnTaskStraggling(/*job=*/0, /*task_index=*/1, /*duration=*/1'000,
                             /*is_long=*/false);
    EXPECT_EQ(ctx.speculative_placed, 1u);
    EXPECT_EQ(ctx.Placements(), 0u);
  }
}

// The registry's speculation contract: only "hawk-spec" defaults the
// subsystem on, and an explicit config threshold wins everywhere.
TEST(RecoveryHooksTest, SpeculationThresholdsPerScheduler) {
  HawkConfig off;
  HawkConfig on;
  on.speculation_threshold = 3.5;
  for (const std::string& name : SchedulerRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const SchedulerRegistry::Entry* entry = SchedulerRegistry::Global().Find(name);
    const std::unique_ptr<SchedulerPolicy> policy = entry->factory(off);
    if (name == "hawk-spec") {
      EXPECT_GT(policy->SpeculationThreshold(off), 0.0);
    } else {
      EXPECT_EQ(policy->SpeculationThreshold(off), 0.0);
    }
    EXPECT_EQ(policy->SpeculationThreshold(on), 3.5);
  }
}

// --- determinism pins --------------------------------------------------------

Trace MakeTrace(uint32_t jobs = 120, uint64_t seed = 9, double interarrival_s = 1.5) {
  Trace trace = GenerateClusterWorkload(FacebookParams(jobs, seed));
  Rng arrivals_rng(11);
  AssignPoissonArrivals(&trace, SecondsToUs(interarrival_s), &arrivals_rng);
  return trace;
}

void ExpectIdentical(const RunResult& r1, const RunResult& r2) {
  ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
  for (size_t i = 0; i < r1.jobs.size(); ++i) {
    ASSERT_EQ(r1.jobs[i].id, r2.jobs[i].id);
    ASSERT_EQ(r1.jobs[i].finish_time, r2.jobs[i].finish_time) << "job " << i;
  }
  EXPECT_EQ(r1.makespan_us, r2.makespan_us);
  EXPECT_EQ(r1.total_busy_us, r2.total_busy_us);
  EXPECT_EQ(r1.counters.events, r2.counters.events);
  EXPECT_EQ(r1.counters.tasks_launched, r2.counters.tasks_launched);
  EXPECT_EQ(r1.counters.wasted_work_us, r2.counters.wasted_work_us);
  EXPECT_EQ(r1.counters.tasks_speculated, r2.counters.tasks_speculated);
  EXPECT_EQ(r1.counters.speculative_wins, r2.counters.speculative_wins);
  EXPECT_EQ(r1.counters.speculative_wasted_us, r2.counters.speculative_wasted_us);
  EXPECT_EQ(r1.counters.retries_suppressed, r2.counters.retries_suppressed);
  EXPECT_EQ(r1.counters.tasks_abandoned, r2.counters.tasks_abandoned);
}

// Straggler-only injection (no crashes, no loss): bit-identical reruns for
// every registered scheduler, and thread-count-invariant sweeps.
TEST(RecoveryDeterminismTest, StragglerOnlyRunsAreReproducible) {
  const Trace trace = MakeTrace();
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.straggler_rate = 0.1;
  config.straggler_slowdown_factor = 4.0;
  config.fault_seed = EnvFaultSeed(5);
  for (const std::string& scheduler : SchedulerRegistry::Global().Names()) {
    SCOPED_TRACE(scheduler);
    ExpectIdentical(RunExperiment(trace, config, scheduler),
                    RunExperiment(trace, config, scheduler));
  }
}

TEST(RecoveryDeterminismTest, StragglerSweepThreadCountInvariant) {
  const Trace trace = MakeTrace(80);
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.straggler_slowdown_factor = 6.0;
  SweepSpec sweep(ExperimentSpec("hawk").WithTrace(&trace).WithConfig(config));
  sweep.VarySchedulers(SchedulerRegistry::Global().Names())
      .Vary("straggler_rate", {0.0, 0.05, 0.2});
  const std::vector<SweepRun> serial = RunSweep(sweep, /*num_threads=*/1);
  const std::vector<SweepRun> threaded = RunSweep(sweep, /*num_threads=*/4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].spec.Label());
    ExpectIdentical(serial[i].result, threaded[i].result);
  }
}

// Speculation armed (hawk-spec) on a straggler-laced run: reproducible, and
// invariant across sweep thread counts. This pins the whole spec state
// machine — duplicate launches, first-completion-wins, loser accounting.
TEST(RecoveryDeterminismTest, SpeculationRunsAreReproducibleAcrossThreads) {
  const Trace trace = MakeTrace(80);
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.straggler_rate = 0.15;
  config.straggler_slowdown_factor = 8.0;
  config.fault_seed = EnvFaultSeed(2);
  const RunResult once = RunExperiment(trace, config, "hawk-spec");
  ExpectIdentical(once, RunExperiment(trace, config, "hawk-spec"));
  EXPECT_GT(once.counters.tasks_speculated, 0u);
  SweepSpec sweep(ExperimentSpec("hawk-spec").WithTrace(&trace).WithConfig(config));
  sweep.Vary("straggler_rate", {0.1, 0.25});
  const std::vector<SweepRun> serial = RunSweep(sweep, /*num_threads=*/1);
  const std::vector<SweepRun> threaded = RunSweep(sweep, /*num_threads=*/4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].spec.Label());
    ExpectIdentical(serial[i].result, threaded[i].result);
  }
}

// --- conservation and bounds -------------------------------------------------

// Stragglers stretch executions but lose nothing: every job completes, the
// stretch shows up as wasted work, and cluster busy time splits exactly into
// useful + wasted — for every registered scheduler, speculation included.
TEST(RecoveryConservationTest, StragglersPreserveWorkConservation) {
  const Trace trace = MakeTrace();
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.straggler_rate = 0.2;
  config.straggler_slowdown_factor = 4.0;
  config.fault_seed = EnvFaultSeed(0);
  for (const uint32_t shards : {1u, 4u}) {
    config.sim_shards = shards;
    for (const std::string& scheduler : SchedulerRegistry::Global().Names()) {
      SCOPED_TRACE(scheduler + " shards=" + std::to_string(shards));
      const RunResult result = RunExperiment(trace, config, scheduler);
      ASSERT_EQ(result.jobs.size(), trace.NumJobs());
      EXPECT_GT(result.counters.wasted_work_us, 0u);
      EXPECT_EQ(result.total_busy_us,
                static_cast<uint64_t>(trace.TotalWorkUs()) + result.counters.wasted_work_us);
      EXPECT_EQ(result.counters.tasks_launched, trace.TotalTasks());
    }
  }
}

// Under speculation the duplicates must actually win sometimes, and every
// losing copy's time must be charged to both the speculative and the general
// waste ledgers (the conservation identity above already covered totals).
TEST(RecoveryConservationTest, SpeculationWinsAndChargesLosers) {
  const Trace trace = MakeTrace();
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.straggler_rate = 0.25;
  config.straggler_slowdown_factor = 16.0;
  config.fault_seed = EnvFaultSeed(0);
  for (const uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    config.sim_shards = shards;
    const RunResult result = RunExperiment(trace, config, "hawk-spec");
    ASSERT_EQ(result.jobs.size(), trace.NumJobs());
    EXPECT_GT(result.counters.tasks_speculated, 0u);
    EXPECT_GT(result.counters.speculative_wins, 0u);
    EXPECT_GT(result.counters.speculative_wasted_us, 0u);
    EXPECT_GE(result.counters.wasted_work_us, result.counters.speculative_wasted_us);
    EXPECT_EQ(result.total_busy_us,
              static_cast<uint64_t>(trace.TotalWorkUs()) + result.counters.wasted_work_us);
  }
}

// The retry budget bounds retransmissions under heavy loss: attempts per
// delivery never exceed budget + 1, abandonments are counted, and the run
// still completes (abandoned deliveries recover through the lost-task and
// lost-probe lanes, like a crash).
TEST(RecoveryBoundsTest, RetryBudgetBoundsRetransmitsUnderHeavyLoss) {
  const Trace trace = MakeTrace(60);
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.message_loss_rate = 0.5;
  config.retry_budget = 2;
  config.fault_seed = EnvFaultSeed(0);
  for (const uint32_t shards : {1u, 4u}) {
    config.sim_shards = shards;
    for (const std::string& scheduler : SchedulerRegistry::Global().Names()) {
      SCOPED_TRACE(scheduler + " shards=" + std::to_string(shards));
      const RunResult result = RunExperiment(trace, config, scheduler);
      ASSERT_EQ(result.jobs.size(), trace.NumJobs());
      // At loss 0.5 and budget 2, one delivery in eight exhausts its budget.
      EXPECT_GT(result.counters.retries_suppressed, 0u);
      // Every drop is either a retransmit within budget or the final drop of
      // an abandoned chain — the exact ledger the budget bound falls out of.
      EXPECT_EQ(result.counters.messages_dropped,
                result.counters.message_retries + result.counters.retries_suppressed);
      // Abandoned *task* deliveries only exist for eagerly placed tasks;
      // probe-lane grants resolve sender-locally and surface as lost probes,
      // which is every placement under sparrow and the long-job lane under
      // hawk-latebind (its only task deliveries are rare fault re-placements).
      if (scheduler != "sparrow" && scheduler != "hawk-latebind") {
        EXPECT_GT(result.counters.tasks_abandoned, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace hawk
