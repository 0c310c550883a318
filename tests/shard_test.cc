// Sharded-executor pins: for a fixed config, the RunResult must be
// bit-identical across phase thread counts (sim_threads is non-semantic) and
// across shard counts > 1 (the epoch protocol's canonical merge order hides
// the partitioning), with the fault and straggler layers on as well as off.
// Work conservation (busy time = nominal work + wasted ledger) must survive
// sharding, and cross-shard steals must actually flow in a maximally sharded
// cluster. The sharded-vs-serial relationship is pinned by golden_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"
#include "tests/test_util.h"

namespace hawk {
namespace {

using testing::ExpectBitIdentical;

const char* kAllSchedulers[] = {"sparrow", "centralized", "hawk", "hawk-dchoice",
                                "hawk-spec", "hawk-latebind", "split"};

Trace MakeTrace(uint32_t jobs = 150, uint64_t seed = 5, double interarrival_s = 2.0) {
  Trace trace = GenerateClusterWorkload(FacebookParams(jobs, seed));
  Rng arrivals_rng(11);
  AssignPoissonArrivals(&trace, SecondsToUs(interarrival_s), &arrivals_rng);
  return trace;
}

HawkConfig BaseConfig() {
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  return config;
}

// Rates as in fault_test.cc: per worker per second, well below the reciprocal
// of the longest task duration so crashed work still terminates.
HawkConfig ChaosConfig() {
  HawkConfig config = BaseConfig();
  config.worker_crash_rate = 3e-7;
  config.worker_churn_rate = 2e-7;
  config.worker_downtime_us = SecondsToUs(20.0);
  config.message_loss_rate = 0.05;
  config.message_delay_jitter_us = 2'000;
  config.straggler_rate = 0.05;
  config.fault_seed = 3;
  return config;
}

RunResult RunSharded(const Trace& trace, HawkConfig config, const char* scheduler,
                     uint32_t shards, uint32_t threads) {
  config.sim_shards = shards;
  config.sim_threads = threads;
  return RunExperiment(trace, config, scheduler);
}

TEST(ShardConfigTest, ValidationRejectsBadShardCounts) {
  HawkConfig config = BaseConfig();
  config.sim_shards = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.sim_shards = config.num_workers + 1;  // A shard needs >= 1 worker.
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.sim_shards = 4;
  config.net_delay_us = 0;  // No network delay => no conservative horizon.
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.sim_shards = 4;
  EXPECT_TRUE(config.Validate().ok());
}

// sim_threads must be invisible in the bits: inline (1), a middling pool (2)
// and the hardware default (0) agree for every shard count and scheduler.
TEST(ShardDeterminismTest, ThreadCountIsNonSemantic) {
  const Trace trace = MakeTrace();
  const HawkConfig config = BaseConfig();
  for (const char* scheduler : kAllSchedulers) {
    for (const uint32_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(scheduler) + " shards=" + std::to_string(shards));
      const RunResult inline_run = RunSharded(trace, config, scheduler, shards, 1);
      ExpectBitIdentical(inline_run, RunSharded(trace, config, scheduler, shards, 2));
      ExpectBitIdentical(inline_run, RunSharded(trace, config, scheduler, shards, 0));
    }
  }
}

// The shard count only partitions the worker id space; the canonical
// (due, worker) commit order makes 2, 4 and 8 shards bit-equal.
TEST(ShardDeterminismTest, ShardCountIsNonSemantic) {
  const Trace trace = MakeTrace();
  const HawkConfig config = BaseConfig();
  for (const char* scheduler : kAllSchedulers) {
    SCOPED_TRACE(scheduler);
    const RunResult two = RunSharded(trace, config, scheduler, 2, 0);
    ExpectBitIdentical(two, RunSharded(trace, config, scheduler, 4, 0));
    ExpectBitIdentical(two, RunSharded(trace, config, scheduler, 8, 0));
  }
}

// The same identities with every fault axis lit: crashes, churn, message
// loss, jitter and stragglers all draw from coordinator-ordered or
// per-worker substreams, so the bits still cannot depend on threads/shards.
TEST(ShardDeterminismTest, ChaosRunsIdenticalAcrossThreadsAndShards) {
  const Trace trace = MakeTrace();
  const HawkConfig config = ChaosConfig();
  for (const char* scheduler : kAllSchedulers) {
    SCOPED_TRACE(scheduler);
    const RunResult base = RunSharded(trace, config, scheduler, 2, 1);
    EXPECT_GT(base.counters.worker_crashes, 0u);
    EXPECT_GT(base.counters.messages_dropped, 0u);
    EXPECT_GT(base.counters.wasted_work_us, 0u);
    ExpectBitIdentical(base, RunSharded(trace, config, scheduler, 2, 0));
    const RunResult four = RunSharded(trace, config, scheduler, 4, 0);
    ExpectBitIdentical(four, RunSharded(trace, config, scheduler, 4, 1));
    ExpectBitIdentical(base, four);
  }
}

// Oversubscription: a pool far larger than this machine's core count (and
// larger than the shard count, so threads contend for the claim cursor and
// some park without ever winning a shard) must still produce the same bits.
// This is the stress case for the generation-counter protocol — parked
// threads waking into a stale generation, claim races, and done-counting
// must all be invisible in the result.
TEST(ShardDeterminismTest, OversubscribedPoolIsNonSemantic) {
  const Trace trace = MakeTrace();
  const HawkConfig config = ChaosConfig();
  const RunResult inline_run = RunSharded(trace, config, "hawk", 4, 1);
  ExpectBitIdentical(inline_run, RunSharded(trace, config, "hawk", 4, 8));
  ExpectBitIdentical(inline_run, RunSharded(trace, config, "hawk", 4, 16));
}

// Work conservation must survive sharding: every task completes exactly once
// and cluster busy time splits exactly into nominal work plus the wasted
// ledger (crash re-runs + straggler stretch), regardless of shard count.
TEST(ShardConservationTest, BusyTimeSplitsIntoWorkPlusWaste) {
  const Trace trace = MakeTrace(120, 9, 1.5);
  HawkConfig config = ChaosConfig();
  config.worker_crash_rate = 2e-6;  // Aggressive: hundreds of crashes.
  config.worker_downtime_us = SecondsToUs(10.0);
  for (const char* scheduler : {"sparrow", "centralized", "hawk", "split"}) {
    for (const uint32_t shards : {2u, 8u}) {
      SCOPED_TRACE(std::string(scheduler) + " shards=" + std::to_string(shards));
      const RunResult result = RunSharded(trace, config, scheduler, shards, 0);
      ASSERT_EQ(result.jobs.size(), trace.NumJobs());
      for (const JobResult& job : result.jobs) {
        EXPECT_GE(job.finish_time, job.submit_time);
      }
      EXPECT_GT(result.counters.worker_crashes, 0u);
      EXPECT_EQ(result.total_busy_us,
                static_cast<uint64_t>(trace.TotalWorkUs()) + result.counters.wasted_work_us);
    }
  }
}

// Shard-boundary stress: one worker per shard forces every steal to cross a
// shard boundary through the barrier. Steals must still flow (the work-
// stealing layer is what sharding most directly reorders) and the bits must
// still be thread-count independent.
TEST(ShardBoundaryTest, CrossShardStealsFlowWithOneWorkerPerShard) {
  Trace trace = GenerateClusterWorkload(FacebookParams(200, 13));
  Rng arrivals_rng(11);
  AssignPoissonArrivals(&trace, SecondsToUs(4.0), &arrivals_rng);
  HawkConfig config;
  config.num_workers = 8;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  config.sim_shards = 8;
  const RunResult serial_phase = RunSharded(trace, config, "hawk", 8, 1);
  EXPECT_GT(serial_phase.counters.steal_attempts, 0u);
  EXPECT_GT(serial_phase.counters.steal_successes, 0u);
  ExpectBitIdentical(serial_phase, RunSharded(trace, config, "hawk", 8, 0));
}

}  // namespace
}  // namespace hawk
