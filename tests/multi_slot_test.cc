// Multi-slot worker invariants: per-slot utilization accounting, steal
// screening over partially full workers, capacity actually adding
// throughput, config validation and sweepability of the slot fields, and a
// determinism case pinning slots_per_worker=4 RunResults.
#include <gtest/gtest.h>

#include <string_view>

#include "src/cluster/cluster.h"
#include "src/core/hawk_config.h"
#include "src/core/stealing_policy.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"

namespace hawk {
namespace {

Trace SmallTrace(uint32_t jobs, DurationUs mean_interarrival_us) {
  Trace trace = GenerateClusterWorkload(FacebookParams(jobs, 5));
  Rng arrivals_rng(11);
  AssignPoissonArrivals(&trace, mean_interarrival_us, &arrivals_rng);
  return trace;
}

HawkConfig MultiSlotConfig(uint32_t num_workers, uint32_t slots) {
  HawkConfig config;
  config.num_workers = num_workers;
  config.slots_per_worker = slots;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  return config;
}

// --- utilization / conservation accounting ----------------------------------

TEST(MultiSlotRunTest, WorkConservationAndBoundedUtilization) {
  const Trace trace = SmallTrace(150, SecondsToUs(2.0));
  DurationUs total_work = 0;
  for (const Job& job : trace.jobs()) {
    for (const DurationUs d : job.task_durations) {
      total_work += d;
    }
  }
  for (const std::string_view scheduler : {"sparrow", "centralized", "hawk", "split"}) {
    const RunResult result = RunExperiment(trace, MultiSlotConfig(60, 4), scheduler);
    // Every task executed exactly once, regardless of which slot ran it.
    EXPECT_EQ(result.total_busy_us, total_work) << scheduler;
    // Utilization is a fraction of *slots*; it can never exceed 1 even when
    // every worker runs several concurrent tasks.
    for (const double u : result.utilization_samples) {
      EXPECT_GE(u, 0.0) << scheduler;
      EXPECT_LE(u, 1.0) << scheduler;
    }
    EXPECT_EQ(result.jobs.size(), trace.NumJobs()) << scheduler;
  }
}

TEST(MultiSlotRunTest, ExtraSlotsRelieveAnOverloadedCluster) {
  // Same trace, same worker count, 4x the slots: the added capacity must not
  // make the overloaded run finish later.
  const Trace trace = SmallTrace(200, SecondsToUs(0.5));
  const RunResult one = RunExperiment(trace, MultiSlotConfig(30, 1), "sparrow");
  const RunResult four = RunExperiment(trace, MultiSlotConfig(30, 4), "sparrow");
  EXPECT_LE(four.makespan_us, one.makespan_us);
  // Identical work either way.
  EXPECT_EQ(one.total_busy_us, four.total_busy_us);
}

TEST(MultiSlotRunTest, HeterogeneousCapacityRuns) {
  const Trace trace = SmallTrace(120, SecondsToUs(2.0));
  HawkConfig config = MultiSlotConfig(60, 2);
  config.big_worker_fraction = 0.25;
  config.big_worker_slots = 8;
  for (const std::string_view scheduler : {"sparrow", "hawk"}) {
    const RunResult result = RunExperiment(trace, config, scheduler);
    EXPECT_EQ(result.jobs.size(), trace.NumJobs()) << scheduler;
    for (const double u : result.utilization_samples) {
      EXPECT_LE(u, 1.0) << scheduler;
    }
  }
}

// --- stealing over partially full workers ------------------------------------

TEST(MultiSlotStealTest, PartiallyFullVictimIsScreenedByOccupiedLong) {
  SlotSpec spec;
  spec.slots_per_worker = 2;
  Cluster cluster(4, 3, spec);  // Worker 3 is the short partition.
  // Victim worker 1: one slot runs a long task, one slot is free; two short
  // probes blocked behind the long occupancy.
  cluster.workers().BeginExecute(1, 0, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(1, QueueEntry::Probe(2, /*is_long=*/false));
  cluster.workers().Enqueue(1, QueueEntry::Probe(3, /*is_long=*/false));

  StealingPolicy policy(/*cap=*/8, /*seed=*/1);
  RunCounters counters;
  ASSERT_EQ(policy.TryStealInto(cluster, /*thief=*/3, &counters), 2u);
  EXPECT_EQ(cluster.workers().QueueAt(3, 0).job, 2u);
  EXPECT_EQ(counters.steal_successes, 1u);
}

TEST(MultiSlotStealTest, VictimWithOnlyShortOccupancyIsRejected) {
  SlotSpec spec;
  spec.slots_per_worker = 2;
  Cluster cluster(2, 1, spec);
  // General worker 0 runs one short task (other slot free) with short
  // entries queued: no long anywhere, nothing stealable.
  cluster.workers().BeginExecute(0, 0, QueueEntry::Task(1, 0, 10, /*is_long=*/false));
  cluster.workers().Enqueue(0, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/4, /*seed=*/2);
  RunCounters counters;
  EXPECT_EQ(policy.TryStealInto(cluster, /*thief=*/1, &counters), 0u);
  EXPECT_EQ(counters.steal_successes, 0u);
}

// --- config validation and sweep integration ---------------------------------

TEST(MultiSlotConfigTest, ValidateRejectsBadSlotLayouts) {
  HawkConfig config;
  config.slots_per_worker = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.slots_per_worker = 5000;  // Above the WorkerStore ceiling.
  EXPECT_FALSE(config.Validate().ok());
  config.slots_per_worker = 1;
  config.big_worker_fraction = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.big_worker_fraction = 0.2;
  config.big_worker_slots = 0;  // Fraction set but no big capacity.
  EXPECT_FALSE(config.Validate().ok());
  config.big_worker_slots = 4;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(MultiSlotConfigTest, SlotFieldsAreSweepable) {
  HawkConfig config;
  EXPECT_TRUE(SetConfigField(&config, "slots_per_worker", 4).ok());
  EXPECT_EQ(config.slots_per_worker, 4u);
  EXPECT_TRUE(SetConfigField(&config, "big_worker_fraction", 0.25).ok());
  EXPECT_TRUE(SetConfigField(&config, "big_worker_slots", 8).ok());
  EXPECT_EQ(config.big_worker_slots, 8u);

  const Trace trace = SmallTrace(60, SecondsToUs(2.0));
  HawkConfig base;
  base.num_workers = 40;
  base.classify_mode = ClassifyMode::kHint;
  SweepSpec sweep(ExperimentSpec("sparrow").WithConfig(base).WithTrace(&trace));
  sweep.Vary("slots_per_worker", {1, 2, 4});
  const auto runs = RunSweep(sweep, /*num_threads=*/2);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].spec.label, "sparrow/slots_per_worker=1");
  EXPECT_EQ(runs[2].spec.config.slots_per_worker, 4u);
  // Each grid point is a complete, conserved run.
  for (const SweepRun& run : runs) {
    EXPECT_EQ(run.result.jobs.size(), trace.NumJobs());
    EXPECT_EQ(run.result.total_busy_us, runs[0].result.total_busy_us);
  }
}

// --- determinism pin: slots_per_worker = 4 -----------------------------------

// Runs the same trace through the same scheduler twice at slots_per_worker=4
// and demands bit-identical results (the multi-slot twin of the
// determinism_test single-slot cases).
void ExpectIdenticalMultiSlotRuns(std::string_view scheduler) {
  const Trace trace_a = SmallTrace(150, SecondsToUs(2.0));
  const Trace trace_b = SmallTrace(150, SecondsToUs(2.0));
  const HawkConfig config = MultiSlotConfig(30, 4);

  const RunResult r1 = RunExperiment(trace_a, config, scheduler);
  const RunResult r2 = RunExperiment(trace_b, config, scheduler);

  ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
  for (size_t i = 0; i < r1.jobs.size(); ++i) {
    ASSERT_EQ(r1.jobs[i].finish_time, r2.jobs[i].finish_time) << "job " << i;
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

TEST(MultiSlotDeterminismTest, Hawk) { ExpectIdenticalMultiSlotRuns("hawk"); }
TEST(MultiSlotDeterminismTest, Sparrow) { ExpectIdenticalMultiSlotRuns("sparrow"); }
TEST(MultiSlotDeterminismTest, Centralized) { ExpectIdenticalMultiSlotRuns("centralized"); }
TEST(MultiSlotDeterminismTest, Split) { ExpectIdenticalMultiSlotRuns("split"); }

}  // namespace
}  // namespace hawk
