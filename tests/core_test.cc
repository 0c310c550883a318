// Tests for the Hawk core mechanisms: classifier and noisy estimator,
// partition sizing rule, waiting-time priority queue (ordering, decay,
// start/finish feedback, tie-breaking), stealing policy, probe placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <tuple>
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

TEST(WaitingTimeQueueTest, AssignsExactOrderUnderTies) {
  // Randomized property over the whole §3.7 order, ties included: with few
  // workers, two estimates and a coarse clock, equal keys are common. A
  // reference model of each worker (FIFO of assigned estimates, one task
  // executing at a time) predicts every AssignTask exactly: the minimum of
  // (fresh drain, executing, id), except that workers with nothing assigned
  // or executing all have fresh drain `now` and resolve least-recently
  // drained first (their stored key is the time they drained).
  struct Model {
    DurationUs backlog = 0;
    SimTime exec_drain = 0;
    bool executing = false;
    SimTime drained_at = 0;
    std::deque<DurationUs> pending;
  };
  Rng rng(19);
  const uint32_t n = 6;
  WaitingTimeQueue queue(n);
  std::vector<Model> model(n);
  SimTime now = 0;
  int assignments = 0;
  for (int step = 0; step < 20000; ++step) {
    now += 50 * static_cast<SimTime>(rng.NextBounded(3));
    const uint64_t op = rng.NextBounded(3);
    if (op == 0) {
      const DurationUs est = rng.Bernoulli(0.5) ? 100 : 200;
      WorkerId expected = 0;
      auto order = [&](WorkerId w) {
        const Model& m = model[w];
        const bool drained = m.backlog == 0 && !m.executing;
        return std::make_tuple(std::max(now, m.exec_drain) + m.backlog, m.executing,
                               drained ? m.drained_at : SimTime{0}, w);
      };
      for (WorkerId w = 1; w < n; ++w) {
        if (order(w) < order(expected)) {
          expected = w;
        }
      }
      ASSERT_EQ(queue.AssignTask(now, est), expected) << "step " << step;
      model[expected].backlog += est;
      model[expected].pending.push_back(est);
      ++assignments;
    } else {
      const auto w = static_cast<WorkerId>(rng.NextBounded(n));
      Model& m = model[w];
      if (m.executing && op == 1) {
        queue.OnTaskFinish(w, now);
        m.exec_drain = now;
        m.executing = false;
        if (m.backlog == 0) {
          m.drained_at = now;
        }
      } else if (!m.executing && !m.pending.empty()) {
        const DurationUs est = m.pending.front();
        m.pending.pop_front();
        queue.OnTaskStart(w, now, est);
        m.backlog -= est;
        m.exec_drain = now + est;
        m.executing = true;
      }
    }
  }
  EXPECT_GT(assignments, 5000);
}

// --- Probe placement -----------------------------------------------------------

TEST(ProbePlacementTest, DistinctWhenFitting) {
  Rng rng(3);
  std::vector<WorkerId> targets;
  std::vector<uint32_t> picks;
  ChooseProbeTargetsInto(rng, 10, 100, 40, &targets, &picks);
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
  std::vector<WorkerId> targets;
  std::vector<uint32_t> picks;
  ChooseProbeTargetsInto(rng, 0, 10, 25, &targets, &picks);
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
  std::vector<WorkerId> targets;
  std::vector<uint32_t> picks;
  for (const uint32_t probes : {1u, 7u, 63u, 64u, 65u, 500u}) {
    ChooseProbeTargetsInto(rng, 0, 64, probes, &targets, &picks);
    EXPECT_EQ(targets.size(), probes);
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
  ASSERT_EQ(policy.TryStealInto(cluster, /*thief=*/9, &counters), 1u);
  EXPECT_EQ(cluster.workers().QueueAt(9, 0).job, 2u);
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
    EXPECT_EQ(policy.TryStealInto(cluster, /*thief=*/0, &counters), 0u);
  }
}

TEST(StealingPolicyTest, ThiefNeverContactsItself) {
  // Single general worker: a general thief has no victims at all.
  Cluster cluster(3, 1);
  cluster.workers().Enqueue(0, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(0, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/10, /*seed=*/3);
  RunCounters counters;
  EXPECT_EQ(policy.TryStealInto(cluster, /*thief=*/0, &counters), 0u);
  // A short-partition thief can steal from worker 0.
  EXPECT_EQ(policy.TryStealInto(cluster, /*thief=*/2, &counters), 1u);
  EXPECT_EQ(cluster.workers().QueueAt(2, 0).job, 2u);
}

TEST(StealingPolicyTest, CapZeroDisables) {
  Cluster cluster(4, 4);
  cluster.workers().Enqueue(0, QueueEntry::Task(1, 0, 1000, /*is_long=*/true));
  cluster.workers().Enqueue(0, QueueEntry::Probe(2, /*is_long=*/false));
  StealingPolicy policy(/*cap=*/0, /*seed=*/4);
  RunCounters counters;
  EXPECT_EQ(policy.TryStealInto(cluster, 3, &counters), 0u);
  EXPECT_EQ(counters.steal_attempts, 0u);
}

TEST(StealingPolicyTest, CapOneContactsOneVictim) {
  Cluster cluster(100, 100);
  StealingPolicy policy(/*cap=*/1, /*seed=*/5);
  RunCounters counters;
  policy.TryStealInto(cluster, 0, &counters);
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
  EXPECT_EQ(policy.TryStealInto(cluster, /*thief=*/0, &counters), 1u);
  EXPECT_EQ(cluster.workers().QueueAt(0, 0).job, 2u);
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

// TryStealInto screens victims on their "short entry queued" bit before
// touching their records; the screen must be invisible. The reference below
// contacts the same victims and calls StealGroupInto on each, unscreened.
size_t UnscreenedSteal(StealingPolicy& policy, Cluster& cluster, WorkerId thief,
                       RunCounters* counters, std::vector<WorkerId>* victims) {
  if (policy.cap() == 0) {
    return 0;
  }
  counters->steal_attempts++;
  policy.ChooseVictimsInto(cluster, thief, victims);
  for (const WorkerId victim : *victims) {
    counters->steal_victim_probes++;
    const size_t stolen = cluster.workers().StealGroupInto(victim, thief);
    if (stolen > 0) {
      counters->steal_successes++;
      counters->entries_stolen += stolen;
      return stolen;
    }
  }
  return 0;
}

// A random cluster state, a pure function of `seed`: some slots occupied by
// short or long work, and queues of 0-4 entries, half of the workers with no
// short entry queued (the screen's case).
void FillRandomState(Cluster* cluster, uint64_t seed) {
  Rng rng(seed);
  WorkerStore& workers = cluster->workers();
  for (WorkerId w = 0; w < workers.NumWorkers(); ++w) {
    while (workers.HasFreeSlot(w) && rng.Bernoulli(0.5)) {
      const bool is_long = rng.Bernoulli(0.5);
      if (rng.Bernoulli(0.5)) {
        workers.BeginRequest(w, is_long);
      } else {
        workers.BeginExecute(w, 0, QueueEntry::Task(1, 0, 10, is_long));
      }
    }
    const bool long_only = rng.Bernoulli(0.5);
    for (int64_t i = rng.UniformInt(0, 4); i > 0; --i) {
      const JobId job = static_cast<JobId>(w) * 8 + static_cast<JobId>(i);
      workers.Enqueue(w, QueueEntry::Probe(job, long_only || rng.Bernoulli(0.4)));
    }
  }
}

void ExpectSameQueues(const WorkerStore& got, const WorkerStore& want) {
  for (WorkerId w = 0; w < want.NumWorkers(); ++w) {
    ASSERT_EQ(got.QueueSize(w), want.QueueSize(w)) << "worker " << w;
    for (size_t i = 0; i < want.QueueSize(w); ++i) {
      EXPECT_EQ(got.QueueAt(w, i).job, want.QueueAt(w, i).job) << "worker " << w;
      EXPECT_EQ(got.QueueAt(w, i).is_long, want.QueueAt(w, i).is_long) << "worker " << w;
    }
  }
}

TEST(StealingPolicyTest, ScreenedStealMatchesUnscreenedReference) {
  SlotSpec four_slots;
  four_slots.slots_per_worker = 4;
  SlotSpec hetero;
  hetero.big_worker_fraction = 0.25;
  hetero.big_worker_slots = 4;
  uint64_t successes = 0;
  uint64_t attempts = 0;
  for (const SlotSpec& spec : {SlotSpec{}, four_slots, hetero}) {
    for (const auto selection : {StealingPolicy::VictimSelection::kRandom,
                                 StealingPolicy::VictimSelection::kDChoice}) {
      for (uint64_t seed = 1; seed <= 20; ++seed) {
        // 150 workers span three bitmap words; the last 20 are the short
        // partition, so thieves come from both partitions.
        Cluster screened(150, 130, spec);
        Cluster reference(150, 130, spec);
        FillRandomState(&screened, seed);
        FillRandomState(&reference, seed);
        StealingPolicy policy(/*cap=*/10, seed, selection);
        StealingPolicy reference_policy(/*cap=*/10, seed, selection);
        RunCounters got;
        RunCounters want;
        std::vector<WorkerId> victims;
        Rng thieves(seed + 100);
        for (int attempt = 0; attempt < 40; ++attempt) {
          const WorkerId thief = static_cast<WorkerId>(thieves.NextBounded(150));
          SCOPED_TRACE("seed " + std::to_string(seed) + " attempt " + std::to_string(attempt));
          ASSERT_EQ(policy.TryStealInto(screened, thief, &got),
                    UnscreenedSteal(reference_policy, reference, thief, &want, &victims));
          ASSERT_EQ(got.steal_attempts, want.steal_attempts);
          ASSERT_EQ(got.steal_victim_probes, want.steal_victim_probes);
          ASSERT_EQ(got.steal_successes, want.steal_successes);
          ASSERT_EQ(got.entries_stolen, want.entries_stolen);
          ExpectSameQueues(screened.workers(), reference.workers());
        }
        attempts += got.steal_attempts;
        successes += got.steal_successes;
        // Both policies' streams sit at the same draw: the next samples match.
        std::vector<WorkerId> next;
        policy.ChooseVictimsInto(screened, /*thief=*/140, &next);
        reference_policy.ChooseVictimsInto(reference, /*thief=*/140, &victims);
        EXPECT_EQ(next, victims);
      }
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(successes, attempts / 10);
  EXPECT_LT(successes, attempts * 9 / 10);
}

}  // namespace
}  // namespace hawk
