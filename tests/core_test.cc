// Tests for the Hawk core mechanisms: classifier and noisy estimator,
// partition sizing rule, waiting-time priority queue (ordering, decay,
// start/finish feedback, tie-breaking), stealing policy, probe placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "src/core/estimator.h"
#include "src/core/hawk_config.h"
#include "src/core/job_classifier.h"
#include "src/core/partition.h"
#include "src/core/probe_placement.h"
#include "src/core/stealing_policy.h"
#include "src/core/waiting_time_queue.h"
#include "src/workload/trace_stats.h"

namespace hawk {
namespace {

Job MakeJob(std::vector<double> durations_s, bool long_hint = false) {
  Job job;
  for (const double d : durations_s) {
    job.task_durations.push_back(SecondsToUs(d));
  }
  job.long_hint = long_hint;
  return job;
}

// --- Estimator / classifier --------------------------------------------------

TEST(EstimatorTest, ExactWithoutNoise) {
  Estimator estimator(1.0, 1.0, 1);
  const Job job = MakeJob({100, 200, 300});
  EXPECT_DOUBLE_EQ(estimator.EstimateAvgTaskUs(job), SecondsToUs(200));
}

TEST(EstimatorTest, NoiseStaysInRange) {
  Estimator estimator(0.5, 1.5, 2);
  const Job job = MakeJob({100});
  for (int i = 0; i < 1000; ++i) {
    const double est = estimator.EstimateAvgTaskUs(job);
    EXPECT_GE(est, 0.5 * SecondsToUs(100));
    EXPECT_LE(est, 1.5 * SecondsToUs(100));
  }
}

TEST(EstimatorTest, NoiseCoversRange) {
  Estimator estimator(0.1, 1.9, 3);
  const Job job = MakeJob({100});
  double lo = 1e18;
  double hi = 0;
  for (int i = 0; i < 2000; ++i) {
    const double est = estimator.EstimateAvgTaskUs(job);
    lo = std::min(lo, est);
    hi = std::max(hi, est);
  }
  EXPECT_LT(lo, 0.3 * SecondsToUs(100));
  EXPECT_GT(hi, 1.7 * SecondsToUs(100));
}

TEST(ClassifierTest, CutoffBoundary) {
  JobClassifier classifier(ClassifyMode::kCutoff, SecondsToUs(1129), 1.0, 1.0, 1);
  EXPECT_FALSE(classifier.Classify(MakeJob({1128.9})).is_long_sched);
  EXPECT_TRUE(classifier.Classify(MakeJob({1129.0})).is_long_sched);
  EXPECT_TRUE(classifier.Classify(MakeJob({5000})).is_long_metrics);
}

TEST(ClassifierTest, HintModeIgnoresDurations) {
  JobClassifier classifier(ClassifyMode::kHint, SecondsToUs(1129), 1.0, 1.0, 1);
  EXPECT_TRUE(classifier.Classify(MakeJob({1.0}, /*long_hint=*/true)).is_long_sched);
  EXPECT_FALSE(classifier.Classify(MakeJob({9999.0}, /*long_hint=*/false)).is_long_sched);
}

TEST(ClassifierTest, NoiseOnlyAffectsSchedulingClass) {
  // With strong downward noise, long jobs get scheduled as short, but the
  // metrics class (noise-free) stays long — the Fig. 14 protocol.
  JobClassifier classifier(ClassifyMode::kCutoff, SecondsToUs(1129), 0.01, 0.02, 7);
  const JobClass cls = classifier.Classify(MakeJob({5000}));
  EXPECT_FALSE(cls.is_long_sched);
  EXPECT_TRUE(cls.is_long_metrics);
}

TEST(HawkConfigTest, GeneralCountRespectsPartitionToggle) {
  HawkConfig config;
  config.num_workers = 100;
  config.short_partition_fraction = 0.17;
  EXPECT_EQ(config.GeneralCount(), 83u);
  config.use_partition = false;
  EXPECT_EQ(config.GeneralCount(), 100u);
  config.use_partition = true;
  config.short_partition_fraction = 0.0;
  EXPECT_EQ(config.GeneralCount(), 100u);
}

// --- Partition sizing ---------------------------------------------------------

TEST(PartitionTest, FractionFollowsTaskSecondsShare) {
  WorkloadMix mix;
  mix.pct_task_seconds_long = 83.0;
  EXPECT_NEAR(ShortPartitionFractionFromMix(mix), 0.17, 1e-9);
  mix.pct_task_seconds_long = 99.8;
  EXPECT_NEAR(ShortPartitionFractionFromMix(mix), 0.01, 1e-9);  // Clamped to floor.
  mix.pct_task_seconds_long = 10.0;
  EXPECT_NEAR(ShortPartitionFractionFromMix(mix), 0.5, 1e-9);  // Clamped to ceiling.
}

// --- WaitingTimeQueue ----------------------------------------------------------

TEST(WaitingTimeQueueTest, AssignsToMinWaiting) {
  WaitingTimeQueue queue(3);
  // Three tasks, estimates 100/50/10: first goes to worker 0 (all tie at 0),
  // then workers with less backlog win.
  const WorkerId w0 = queue.AssignTask(0, 100);
  const WorkerId w1 = queue.AssignTask(0, 50);
  const WorkerId w2 = queue.AssignTask(0, 10);
  EXPECT_EQ(w0, 0u);
  EXPECT_EQ(w1, 1u);
  EXPECT_EQ(w2, 2u);
  // Next task goes to worker 2 (backlog 10 is the minimum).
  EXPECT_EQ(queue.AssignTask(0, 1000), 2u);
}

TEST(WaitingTimeQueueTest, WaitingTimeDefinition) {
  WaitingTimeQueue queue(2);
  queue.AssignTask(0, 100);  // worker 0, backlog 100
  EXPECT_EQ(queue.WaitingTime(0, 0), 100);
  queue.OnTaskStart(0, 10, 100);  // backlog -> remaining of executing
  EXPECT_EQ(queue.WaitingTime(0, 10), 100);
  EXPECT_EQ(queue.WaitingTime(0, 60), 50);    // Decays with the clock.
  EXPECT_EQ(queue.WaitingTime(0, 200), 0);    // Overdue task: remaining est 0.
  queue.OnTaskFinish(0, 250);
  EXPECT_EQ(queue.WaitingTime(0, 250), 0);
}

TEST(WaitingTimeQueueTest, DecayRestoresPreference) {
  WaitingTimeQueue queue(2);
  queue.AssignTask(0, 100);
  queue.OnTaskStart(0, 0, 100);
  queue.AssignTask(0, 1000);  // worker 1 (waiting 0 < 100)
  // At t=2000, worker 0's task would have drained (estimate-wise); worker 1
  // still has backlog -> worker 0 preferred.
  EXPECT_EQ(queue.AssignTask(2000, 10), 0u);
}

TEST(WaitingTimeQueueTest, StartFeedbackAbsorbsQueueingDelay) {
  WaitingTimeQueue queue(1);
  queue.AssignTask(0, 100);
  // The task only starts at t=500 (e.g. short work was ahead of it): the
  // waiting time reflects the late start.
  queue.OnTaskStart(0, 500, 100);
  EXPECT_EQ(queue.WaitingTime(0, 500), 100);
  EXPECT_EQ(queue.WaitingTime(0, 550), 50);
}

TEST(WaitingTimeQueueTest, FinishFeedbackCorrectsOverrun) {
  WaitingTimeQueue queue(2);
  queue.AssignTask(0, 100);
  queue.OnTaskStart(0, 0, 100);  // Estimated drain at t=100.
  // Task actually runs to t=400; the estimate said 0 remaining after t=100,
  // and finish feedback re-synchronizes instead of accumulating drift.
  queue.OnTaskFinish(0, 400);
  EXPECT_EQ(queue.WaitingTime(0, 400), 0);
}

TEST(WaitingTimeQueueTest, OverdueExecutingLosesTieToIdle) {
  WaitingTimeQueue queue(2);
  queue.AssignTask(0, 10);
  queue.OnTaskStart(0, 0, 10);
  // At t=1000 worker 0's executing task is overdue (estimated waiting 0) but
  // still running; worker 1 is genuinely idle and must win the tie.
  EXPECT_EQ(queue.AssignTask(1000, 5), 1u);
}

TEST(WaitingTimeQueueTest, ManyAssignmentsBalance) {
  // 1000 equal tasks over 100 workers: every worker gets exactly 10.
  WaitingTimeQueue queue(100);
  std::vector<int> per_worker(100, 0);
  for (int i = 0; i < 1000; ++i) {
    per_worker[queue.AssignTask(0, 100)]++;
  }
  for (const int count : per_worker) {
    EXPECT_EQ(count, 10);
  }
}

TEST(WaitingTimeQueueTest, MatchesNaiveReferenceModel) {
  // Randomized property: the chosen worker always has the minimum §3.7
  // waiting time among all workers (ties by executing bias then id).
  Rng rng(11);
  const uint32_t n = 17;
  WaitingTimeQueue queue(n);
  SimTime now = 0;
  for (int step = 0; step < 2000; ++step) {
    now += static_cast<SimTime>(rng.NextBounded(50));
    const auto est = static_cast<DurationUs>(1 + rng.NextBounded(200));
    DurationUs min_wait = std::numeric_limits<DurationUs>::max();
    for (uint32_t w = 0; w < n; ++w) {
      min_wait = std::min(min_wait, queue.WaitingTime(w, now));
    }
    const WorkerId chosen = queue.AssignTask(now, est);
    // WaitingTime(chosen) now includes the new estimate; subtract it.
    EXPECT_EQ(queue.WaitingTime(chosen, now) - est, min_wait);
    // Randomly start/finish the backlog to exercise feedback paths.
    if (rng.Bernoulli(0.7)) {
      queue.OnTaskStart(chosen, now, est);
      if (rng.Bernoulli(0.5)) {
        queue.OnTaskFinish(chosen, now + static_cast<SimTime>(rng.NextBounded(300)));
      }
    }
  }
}

// --- Probe placement -----------------------------------------------------------

TEST(ProbePlacementTest, DistinctWhenFitting) {
  Rng rng(3);
  const auto targets = ChooseProbeTargets(rng, 10, 100, 40);
  EXPECT_EQ(targets.size(), 40u);
  std::set<WorkerId> unique(targets.begin(), targets.end());
  EXPECT_EQ(unique.size(), 40u);
  for (const WorkerId w : targets) {
    EXPECT_GE(w, 10u);
    EXPECT_LT(w, 110u);
  }
}

TEST(ProbePlacementTest, SpreadsWholeRoundsWhenOverflowing) {
  // 25 probes over 10 workers: every worker gets 2, a distinct 5 get 3.
  Rng rng(5);
  const auto targets = ChooseProbeTargets(rng, 0, 10, 25);
  EXPECT_EQ(targets.size(), 25u);
  std::vector<int> counts(10, 0);
  for (const WorkerId w : targets) {
    ASSERT_LT(w, 10u);
    counts[w]++;
  }
  int threes = 0;
  for (const int c : counts) {
    EXPECT_GE(c, 2);
    EXPECT_LE(c, 3);
    threes += c == 3 ? 1 : 0;
  }
  EXPECT_EQ(threes, 5);
}

TEST(ProbePlacementTest, NeverFewerProbesThanRequested) {
  Rng rng(7);
  for (const uint32_t probes : {1u, 7u, 63u, 64u, 65u, 500u}) {
    EXPECT_EQ(ChooseProbeTargets(rng, 0, 64, probes).size(), probes);
  }
}

// --- StealingPolicy --------------------------------------------------------------

TEST(StealingPolicyTest, StealsFromGeneralPartitionVictim) {
  Cluster cluster(10, 8);  // Workers 8, 9 are the short partition.
  // Worker 3 has a blocked short behind a long.
  cluster.workers().Enqueue(3, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(3, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/10, /*seed=*/1);
  RunCounters counters;
  const auto stolen = policy.TrySteal(cluster, /*thief=*/9, &counters);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].job, 2u);
  EXPECT_EQ(counters.steal_attempts, 1u);
  EXPECT_EQ(counters.steal_successes, 1u);
  EXPECT_EQ(counters.entries_stolen, 1u);
  // The cap bounds how many victims were contacted.
  EXPECT_LE(counters.steal_victim_probes, 10u);
}

TEST(StealingPolicyTest, NeverStealsFromShortPartition) {
  Cluster cluster(10, 5);
  // Only short-partition workers (5..9) have stealable-looking queues; they
  // are not eligible victims, so every attempt must fail.
  for (WorkerId w = 5; w < 10; ++w) {
    cluster.workers().Enqueue(w, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
    cluster.workers().Enqueue(w, QueueEntry::Probe(2, /*is_long=*/false));
  }
  StealingPolicy policy(/*cap=*/5, /*seed=*/2);
  RunCounters counters;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(policy.TrySteal(cluster, /*thief=*/0, &counters).empty());
  }
}

TEST(StealingPolicyTest, ThiefNeverContactsItself) {
  // Single general worker: a general thief has no victims at all.
  Cluster cluster(3, 1);
  cluster.workers().Enqueue(0, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(0, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/10, /*seed=*/3);
  RunCounters counters;
  EXPECT_TRUE(policy.TrySteal(cluster, /*thief=*/0, &counters).empty());
  // A short-partition thief can steal from worker 0.
  EXPECT_EQ(policy.TrySteal(cluster, /*thief=*/2, &counters).size(), 1u);
}

TEST(StealingPolicyTest, CapZeroDisables) {
  Cluster cluster(4, 4);
  cluster.workers().Enqueue(0, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(0, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/0, /*seed=*/4);
  RunCounters counters;
  EXPECT_TRUE(policy.TrySteal(cluster, 3, &counters).empty());
  EXPECT_EQ(counters.steal_attempts, 0u);
}

TEST(StealingPolicyTest, CapOneContactsOneVictim) {
  Cluster cluster(100, 100);
  StealingPolicy policy(/*cap=*/1, /*seed=*/5);
  RunCounters counters;
  policy.TrySteal(cluster, 0, &counters);
  EXPECT_EQ(counters.steal_victim_probes, 1u);
}

TEST(StealingPolicyTest, FindsVictimThroughCap) {
  // One of 50 general workers holds stealable work; with cap 50 the policy
  // always finds it.
  Cluster cluster(50, 50);
  cluster.workers().Enqueue(17, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(17, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/50, /*seed=*/6);
  RunCounters counters;
  const auto stolen = policy.TrySteal(cluster, /*thief=*/0, &counters);
  EXPECT_EQ(stolen.size(), 1u);
}

TEST(StealingPolicyTest, DChoiceContactsMostLoadedVictimFirst) {
  // Load up every worker's queue with its own id's worth of entries; the
  // d-choice contact list must come back sorted by descending queue length,
  // so the first victim probed is always the sample's longest queue. The
  // random policy with the same seed draws the same sample in draw order.
  Cluster cluster(20, 20);
  for (WorkerId w = 0; w < 20; ++w) {
    for (WorkerId i = 0; i < w; ++i) {
      cluster.workers().Enqueue(w, QueueEntry::Probe(1, /*is_long=*/false));
    }
  }
  StealingPolicy random_policy(/*cap=*/5, /*seed=*/9);
  StealingPolicy dchoice_policy(/*cap=*/5, /*seed=*/9,
                                StealingPolicy::VictimSelection::kDChoice);
  std::vector<WorkerId> random_victims;
  std::vector<WorkerId> dchoice_victims;
  random_policy.ChooseVictimsInto(cluster, /*thief=*/0, &random_victims);
  dchoice_policy.ChooseVictimsInto(cluster, /*thief=*/0, &dchoice_victims);
  ASSERT_EQ(random_victims.size(), 5u);
  // Same sample (same seed), different order: d-choice is the random sample
  // sorted by descending queue length, which here means descending id.
  std::vector<WorkerId> sorted = random_victims;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  EXPECT_EQ(dchoice_victims, sorted);
  for (size_t i = 1; i < dchoice_victims.size(); ++i) {
    EXPECT_GE(cluster.workers().QueueSize(dchoice_victims[i - 1]),
              cluster.workers().QueueSize(dchoice_victims[i]));
  }
}

}  // namespace
}  // namespace hawk
