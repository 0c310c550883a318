// Golden-result pins: one 64-bit digest per (scheduler, seed, sim_shards)
// cell over a fixed chaos workload, for every registered scheduler, serial
// and sharded. Any change to simulation semantics — event ordering, RNG
// stream consumption, counter accounting — shows up as a digest mismatch
// here before it can masquerade as a perf win or silently shift paper
// results. The serial (sim_shards=1) rows double as the byte-identity pin
// for the pre-sharding executor; the sharded rows pin the sanctioned
// divergence (barrier-committed steals, per-worker straggler substreams) so
// it cannot drift further.
//
// Regenerate intentionally with:  HAWK_UPDATE_GOLDENS=1 ctest -R golden_test
// and review the fixture diff like any other code change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"
#include "tests/result_digest.h"

namespace hawk {
namespace {

const char* kAllSchedulers[] = {"sparrow", "centralized", "hawk", "hawk-dchoice",
                                "hawk-spec", "hawk-latebind", "split"};
constexpr uint64_t kSeeds[] = {1, 2};
constexpr uint32_t kShardCounts[] = {1, 4};
// The §4.4 component settings, each set to 0 on "hawk", serial only (keyed
// "hawk/<field>=0"). They pin every ablation path of the one policy the
// baselines share, including the stealer's seed draw, which a Hawk-family
// policy makes even when steal_cap=0 turns its stealing off.
const char* kHawkAblations[] = {"use_centralized_long", "short_partition_fraction",
                                "steal_cap"};

// The pinned workload lights every layer: partitioned + stealing schedulers,
// speculation (via hawk-spec), crashes, churn, message loss, jitter and
// stragglers. Rates per worker-second, well under 1/longest-task so crashed
// work terminates (see fault_test.cc).
HawkConfig GoldenConfig(uint64_t seed) {
  HawkConfig config;
  config.num_workers = 100;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = seed;
  config.worker_crash_rate = 3e-7;
  config.worker_churn_rate = 2e-7;
  config.worker_downtime_us = SecondsToUs(20.0);
  config.message_loss_rate = 0.05;
  config.message_delay_jitter_us = 2'000;
  config.straggler_rate = 0.05;
  config.fault_seed = 3;
  return config;
}

Trace GoldenTrace() {
  Trace trace = GenerateClusterWorkload(FacebookParams(150, 5));
  Rng arrivals_rng(11);
  AssignPoissonArrivals(&trace, SecondsToUs(2.0), &arrivals_rng);
  return trace;
}

std::string CellKey(const std::string& scheduler, uint64_t seed, uint32_t shards) {
  std::ostringstream key;
  key << scheduler << " seed=" << seed << " shards=" << shards;
  return key.str();
}

// Fixture format: `<scheduler> seed=<n> shards=<n> <hex digest>` per line,
// '#' comments and blank lines ignored.
std::map<std::string, uint64_t> LoadGoldens(const std::string& path) {
  std::map<std::string, uint64_t> goldens;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden fixture " << path
                            << " (regenerate with HAWK_UPDATE_GOLDENS=1)";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string scheduler;
    std::string seed;
    std::string shards;
    std::string digest;
    fields >> scheduler >> seed >> shards >> digest;
    EXPECT_FALSE(digest.empty()) << "malformed golden line: " << line;
    goldens[scheduler + " " + seed + " " + shards] =
        std::strtoull(digest.c_str(), nullptr, 16);
  }
  return goldens;
}

TEST(GoldenResultTest, EveryRegisteredSchedulerMatchesPinnedDigests) {
  const Trace trace = GoldenTrace();
  std::map<std::string, uint64_t> actual;
  for (const char* scheduler : kAllSchedulers) {
    for (const uint64_t seed : kSeeds) {
      for (const uint32_t shards : kShardCounts) {
        HawkConfig config = GoldenConfig(seed);
        config.sim_shards = shards;
        actual[CellKey(scheduler, seed, shards)] =
            testing::DigestResult(RunExperiment(trace, config, scheduler));
      }
    }
  }
  for (const char* field : kHawkAblations) {
    for (const uint64_t seed : kSeeds) {
      HawkConfig config = GoldenConfig(seed);
      ASSERT_TRUE(SetConfigField(&config, field, 0.0).ok()) << field;
      actual[CellKey(std::string("hawk/") + field + "=0", seed, /*shards=*/1)] =
          testing::DigestResult(RunExperiment(trace, config, "hawk"));
    }
  }

  const char* update = std::getenv("HAWK_UPDATE_GOLDENS");
  if (update != nullptr && *update != '\0') {
    std::ofstream out(HAWK_GOLDEN_FILE);
    ASSERT_TRUE(out.is_open()) << "cannot write " << HAWK_GOLDEN_FILE;
    out << "# RunResult digests pinned by golden_test.cc. One line per\n"
           "# (scheduler, seed, sim_shards) cell over the fixed chaos\n"
           "# workload. Regenerate: HAWK_UPDATE_GOLDENS=1 ctest -R golden\n";
    for (const auto& [key, digest] : actual) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
      out << key << " " << hex << "\n";
    }
    GTEST_SKIP() << "goldens rewritten to " << HAWK_GOLDEN_FILE;
  }

  const std::map<std::string, uint64_t> goldens = LoadGoldens(HAWK_GOLDEN_FILE);
  EXPECT_EQ(goldens.size(), actual.size())
      << "golden fixture is stale (cells added/removed); regenerate with "
         "HAWK_UPDATE_GOLDENS=1 and review the diff";
  for (const auto& [key, digest] : actual) {
    const auto it = goldens.find(key);
    if (it == goldens.end()) {
      ADD_FAILURE() << "no pinned digest for " << key;
      continue;
    }
    EXPECT_EQ(it->second, digest)
        << key << ": simulation semantics changed. If intentional, regenerate "
        << "with HAWK_UPDATE_GOLDENS=1 and justify the fixture diff.";
  }
}

// The sharded executor's contract is ONE digest per (scheduler, seed) for
// every shard count > 1, regardless of pool size: the merge barrier makes
// commit order a pure function of (due, worker), never of which thread ran
// which shard or how shards slice the worker space. This test pins that by
// checking the sim_threads x sim_shards grid against the shards=4 rows the
// fixture already carries — no new fixture cells, the grid must reproduce
// the existing ones bit-for-bit. Seed 1 only: the grid multiplies runs, and
// one seed suffices to catch an ordering bug (seed 2 is covered by the main
// matrix above).
TEST(GoldenResultTest, ThreadAndShardGridReproducesPinnedShardedDigests) {
  const char* update = std::getenv("HAWK_UPDATE_GOLDENS");
  if (update != nullptr && *update != '\0') {
    GTEST_SKIP() << "fixture regeneration run";
  }
  const Trace trace = GoldenTrace();
  const std::map<std::string, uint64_t> goldens = LoadGoldens(HAWK_GOLDEN_FILE);
  constexpr uint32_t kGridShards[] = {2, 8};
  constexpr uint32_t kGridThreads[] = {1, 2, 4};
  for (const char* scheduler : kAllSchedulers) {
    const auto pinned = goldens.find(CellKey(scheduler, /*seed=*/1, /*shards=*/4));
    ASSERT_NE(pinned, goldens.end()) << "no pinned sharded digest for " << scheduler;
    for (const uint32_t shards : kGridShards) {
      for (const uint32_t threads : kGridThreads) {
        HawkConfig config = GoldenConfig(/*seed=*/1);
        config.sim_shards = shards;
        config.sim_threads = threads;
        EXPECT_EQ(testing::DigestResult(RunExperiment(trace, config, scheduler)),
                  pinned->second)
            << scheduler << " shards=" << shards << " threads=" << threads
            << ": sharded result depends on the shard/thread grid";
      }
    }
  }
}

// The digest itself must be order- and value-sensitive, or the pins above
// are vacuous.
TEST(GoldenResultTest, DigestDiscriminates) {
  const Trace trace = GoldenTrace();
  const HawkConfig config = GoldenConfig(1);
  const RunResult base = RunExperiment(trace, config, "hawk");
  const uint64_t digest = testing::DigestResult(base);
  EXPECT_EQ(digest, testing::DigestResult(RunExperiment(trace, config, "hawk")));

  HawkConfig other_seed = GoldenConfig(2);
  EXPECT_NE(digest, testing::DigestResult(RunExperiment(trace, other_seed, "hawk")));

  RunResult tweaked = RunExperiment(trace, config, "hawk");
  tweaked.counters.steal_successes ^= 1;
  EXPECT_NE(digest, testing::DigestResult(tweaked));
}

}  // namespace
}  // namespace hawk
