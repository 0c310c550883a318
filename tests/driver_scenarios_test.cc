// White-box timing scenarios: tiny hand-built traces whose exact completion
// times are derivable from the cost model (0.5 ms one-way network delay,
// 1 ms late-binding RTT, zero-cost scheduling and stealing), checked to the
// microsecond. These pin the driver's event mechanics in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/hawk_config.h"
#include "src/scheduler/driver.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/registry.h"
#include "src/scheduler/sharded_driver.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/trace.h"

namespace hawk {
namespace {

constexpr DurationUs kDelay = MillisToUs(0.5);  // One-way network delay.
constexpr DurationUs kRtt = 2 * kDelay;         // Late-binding request cost.

HawkConfig Config(uint32_t workers) {
  HawkConfig config;
  config.num_workers = workers;
  config.seed = 7;
  return config;
}

Trace SingleJob(std::vector<DurationUs> durations, SimTime submit = 0, bool long_hint = false) {
  Trace trace;
  Job job;
  job.submit_time = submit;
  job.task_durations = std::move(durations);
  job.long_hint = long_hint;
  trace.Add(job);
  trace.SortAndRenumber();
  return trace;
}

TEST(DriverScenarioTest, SparrowSingleTaskExactTiming) {
  // Probe lands at submit+0.5ms; the worker is idle so it requests
  // immediately; the task arrives one RTT later and runs for 5 s.
  const Trace trace = SingleJob({SecondsToUs(5)});
  const RunResult result = RunExperiment(trace, Config(4), "sparrow");
  EXPECT_EQ(result.jobs[0].runtime_us, kDelay + kRtt + SecondsToUs(5));
}

TEST(DriverScenarioTest, CentralizedSingleTaskExactTiming) {
  // Direct task placement skips late binding: only the one-way delay.
  const Trace trace = SingleJob({SecondsToUs(5)});
  const RunResult result = RunExperiment(trace, Config(4), "centralized");
  EXPECT_EQ(result.jobs[0].runtime_us, kDelay + SecondsToUs(5));
}

TEST(DriverScenarioTest, HawkShortJobUsesLateBinding) {
  const Trace trace = SingleJob({SecondsToUs(5)});  // Below cutoff -> short.
  const RunResult result = RunExperiment(trace, Config(4), "hawk");
  EXPECT_EQ(result.jobs[0].runtime_us, kDelay + kRtt + SecondsToUs(5));
}

TEST(DriverScenarioTest, HawkLongJobUsesDirectPlacement) {
  const Trace trace = SingleJob({SecondsToUs(2000)});  // Above cutoff -> long.
  const RunResult result = RunExperiment(trace, Config(4), "hawk");
  EXPECT_EQ(result.jobs[0].runtime_us, kDelay + SecondsToUs(2000));
}

TEST(DriverScenarioTest, ParallelTasksOverlapPerfectly) {
  // 3 tasks on 10 idle workers: distinct probes, all run in parallel.
  const Trace trace = SingleJob({SecondsToUs(5), SecondsToUs(7), SecondsToUs(3)});
  const RunResult result = RunExperiment(trace, Config(10), "sparrow");
  EXPECT_EQ(result.jobs[0].runtime_us, kDelay + kRtt + SecondsToUs(7));
}

TEST(DriverScenarioTest, SingleWorkerSerializesWithRequestGaps) {
  // 2 tasks, 1 worker: 4 probes queue on it. Timeline:
  //   t0 = 0.5ms probe1 head -> request; t1 = t0+1ms: task1 (10 s) starts.
  //   task1 ends at t1+10s; probe2 head -> request; task2 starts 1ms later,
  //   runs 20 s. Remaining probes resolve to cancels afterwards.
  const Trace trace = SingleJob({SecondsToUs(10), SecondsToUs(20)});
  const RunResult result = RunExperiment(trace, Config(1), "sparrow");
  EXPECT_EQ(result.jobs[0].runtime_us, kDelay + kRtt + SecondsToUs(10) + kRtt +
                                           SecondsToUs(20));
  EXPECT_EQ(result.counters.cancels, 2u);
}

TEST(DriverScenarioTest, CentralizedFifoBehindEarlierJob) {
  // Job A (1 task, 100 s) at t=0; job B (1 task, 10 s) at t=1 s. One worker:
  // B's task is placed behind A's and waits for it.
  Trace trace;
  Job a;
  a.submit_time = 0;
  a.task_durations = {SecondsToUs(100)};
  Job b;
  b.submit_time = SecondsToUs(1);
  b.task_durations = {SecondsToUs(10)};
  trace.Add(a);
  trace.Add(b);
  trace.SortAndRenumber();
  const RunResult result = RunExperiment(trace, Config(1), "centralized");
  // A: delay + 100 s. B finishes when A's task (started at 0.5ms) completes
  // plus 10 s; B's runtime subtracts its 1 s submit offset.
  EXPECT_EQ(result.jobs[0].runtime_us, kDelay + SecondsToUs(100));
  EXPECT_EQ(result.jobs[1].finish_time, kDelay + SecondsToUs(110));
}

TEST(DriverScenarioTest, CentralizedAvoidsBusyWorkerViaEstimates) {
  // Two workers. Job A (1 long task, est 100 s) then job B (1 long task):
  // B must be placed on the other worker even though A is still running.
  Trace trace;
  Job a;
  a.submit_time = 0;
  a.task_durations = {SecondsToUs(100)};
  Job b;
  b.submit_time = SecondsToUs(1);
  b.task_durations = {SecondsToUs(10)};
  trace.Add(a);
  trace.Add(b);
  trace.SortAndRenumber();
  const RunResult result = RunExperiment(trace, Config(2), "centralized");
  EXPECT_EQ(result.jobs[1].runtime_us, kDelay + SecondsToUs(10));  // No queueing.
}

TEST(DriverScenarioTest, HawkStealRescuesBlockedShortTask) {
  // Cluster of 2 (general: worker 0; short partition: worker 1, with
  // fraction 0.5). A long job (1 task, 2000 s) occupies worker 0; a short
  // job's probes land behind it (both probes must go to... the whole
  // cluster). Worker 1 is idle, so the short job runs there or is stolen —
  // either way it must NOT wait 2000 s.
  Trace trace;
  Job long_job;
  long_job.submit_time = 0;
  long_job.task_durations = {SecondsToUs(2000)};
  Job short_job;
  short_job.submit_time = SecondsToUs(1);
  short_job.task_durations = {SecondsToUs(10)};
  trace.Add(long_job);
  trace.Add(short_job);
  trace.SortAndRenumber();
  HawkConfig config = Config(2);
  config.short_partition_fraction = 0.5;
  const RunResult result = RunExperiment(trace, config, "hawk");
  EXPECT_LT(result.jobs[1].runtime_us, SecondsToUs(20));
}

TEST(DriverScenarioTest, StealOnlyPathRescuesBlockedShort) {
  // Force the steal path deterministically: 2 general workers, no short
  // partition. Worker capacity is saturated by two long tasks; a short job's
  // two probes land behind them (one per worker, without replacement). When
  // the first long task completes, that worker pulls the short probe from
  // its own queue; but the OTHER worker's short probe is now surplus.
  // Meanwhile a mid-length filler keeps one worker busy long enough that a
  // successful steal is observable via counters at some point in the run.
  Trace trace;
  Job long_a;
  long_a.submit_time = 0;
  long_a.task_durations = {SecondsToUs(3000), SecondsToUs(3000)};
  Job short_b;
  short_b.submit_time = SecondsToUs(1);
  short_b.task_durations = {SecondsToUs(10), SecondsToUs(10)};
  trace.Add(long_a);
  trace.Add(short_b);
  trace.SortAndRenumber();
  HawkConfig config = Config(2);
  config.short_partition_fraction = 0.0;
  config.classify_mode = ClassifyMode::kCutoff;
  const RunResult result = RunExperiment(trace, config, "hawk");
  // Both long tasks run in parallel for 3000 s; the short tasks are queued
  // behind them with nobody idle to steal -> short job waits for a long
  // completion. This documents the "no idle worker, no rescue" boundary.
  EXPECT_GE(result.jobs[1].runtime_us, SecondsToUs(2990));
}

TEST(DriverScenarioTest, UtilizationSamplesMatchKnownSchedule) {
  // One worker, one 250 s task: utilization is 1.0 at samples t=100 s and
  // t=200 s, and the sampler stops once the job finished.
  const Trace trace = SingleJob({SecondsToUs(250)});
  const RunResult result = RunExperiment(trace, Config(1), "centralized");
  ASSERT_GE(result.utilization_samples.size(), 2u);
  EXPECT_DOUBLE_EQ(result.utilization_samples[0], 1.0);
  EXPECT_DOUBLE_EQ(result.utilization_samples[1], 1.0);
  EXPECT_LE(result.utilization_samples.size(), 3u);
}

TEST(DriverScenarioTest, QueueWaitTelemetryExactValue) {
  // Single worker, two directly-placed tasks: the second waits exactly the
  // first task's duration.
  Trace trace;
  Job job;
  job.submit_time = 0;
  job.task_durations = {SecondsToUs(100), SecondsToUs(10)};
  job.long_hint = true;
  trace.Add(job);
  trace.SortAndRenumber();
  HawkConfig config = Config(1);
  config.classify_mode = ClassifyMode::kHint;
  const RunResult result = RunExperiment(trace, config, "centralized");
  // Task 1 waits 0; task 2 waits 100 s (placed at the same instant).
  EXPECT_EQ(result.counters.long_queue_wait_us, static_cast<uint64_t>(SecondsToUs(100)));
}

TEST(DriverScenarioTest, LateArrivalSeesEmptyCluster) {
  // A job submitted at t=10 000 s on an idle cluster behaves identically to
  // one at t=0 (clock translation invariance).
  const Trace at_zero = SingleJob({SecondsToUs(5)}, 0);
  const Trace late = SingleJob({SecondsToUs(5)}, SecondsToUs(10000));
  const RunResult r0 = RunExperiment(at_zero, Config(4), "sparrow");
  const RunResult r1 = RunExperiment(late, Config(4), "sparrow");
  EXPECT_EQ(r0.jobs[0].runtime_us, r1.jobs[0].runtime_us);
}

// --- metamorphic properties --------------------------------------------------
// Relations that must hold between *pairs* of runs, checked against both the
// serial executor (sim_shards=1) and the sharded one (sim_shards=4). These
// catch semantic bugs no single-run pin can: accidental dependence on trace
// add-order, non-linear time arithmetic, or worker-identity leaks.

void ExpectSameOutcome(const RunResult& r1, const RunResult& r2) {
  ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
  for (size_t i = 0; i < r1.jobs.size(); ++i) {
    ASSERT_EQ(r1.jobs[i].id, r2.jobs[i].id);
    ASSERT_EQ(r1.jobs[i].submit_time, r2.jobs[i].submit_time) << "job " << i;
    ASSERT_EQ(r1.jobs[i].finish_time, r2.jobs[i].finish_time) << "job " << i;
  }
  EXPECT_EQ(r1.makespan_us, r2.makespan_us);
  EXPECT_EQ(r1.total_busy_us, r2.total_busy_us);
  EXPECT_EQ(r1.utilization_samples, r2.utilization_samples);
}

// Same-shape job cohorts at shared submit instants: feeding them to Trace in
// any add-order must be invisible after SortAndRenumber, through the whole
// simulation. Guards against add-order leaking into ids/placement.
TEST(MetamorphicTest, EqualTimeArrivalOrderIsInvisible) {
  const std::vector<DurationUs> shapes[] = {
      {SecondsToUs(5), SecondsToUs(7)},
      {SecondsToUs(10)},
      {SecondsToUs(2000), SecondsToUs(2000)},  // Long cohort (hinted).
      {SecondsToUs(1), SecondsToUs(1), SecondsToUs(1)},
  };
  std::vector<Job> jobs;
  for (size_t cohort = 0; cohort < 4; ++cohort) {
    for (int copy = 0; copy < 3; ++copy) {
      Job job;
      job.submit_time = SecondsToUs(static_cast<double>(cohort));
      job.task_durations = shapes[cohort];
      job.long_hint = cohort == 2;
      jobs.push_back(job);
    }
  }
  auto make_trace = [&jobs](size_t rotate) {
    Trace trace;
    for (size_t i = 0; i < jobs.size(); ++i) {
      trace.Add(jobs[(i + rotate) % jobs.size()]);
    }
    trace.SortAndRenumber();
    return trace;
  };
  const Trace canonical = make_trace(0);
  const Trace rotated = make_trace(5);    // Splits every cohort across the seam.
  const Trace reversed = [&jobs] {
    Trace trace;
    for (size_t i = jobs.size(); i > 0; --i) {
      trace.Add(jobs[i - 1]);
    }
    trace.SortAndRenumber();
    return trace;
  }();
  for (const char* scheduler : {"sparrow", "hawk"}) {
    for (const uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(std::string(scheduler) + " shards=" + std::to_string(shards));
      HawkConfig config = Config(10);
      config.classify_mode = ClassifyMode::kHint;
      config.sim_shards = shards;
      const RunResult base = RunExperiment(canonical, config, scheduler);
      ExpectSameOutcome(base, RunExperiment(rotated, config, scheduler));
      ExpectSameOutcome(base, RunExperiment(reversed, config, scheduler));
    }
  }
}

// Scaling every time input by k=2 (task durations, submit times, and the
// config's time knobs: network delay, classification cutoff, sample period,
// steal-retry interval) must scale every output time by exactly 2. k is a
// power of two so even the double-valued runtime estimates scale exactly.
// Noise and faults stay off: their draws are not time-linear.
TEST(MetamorphicTest, DoublingAllTimeInputsDoublesAllOutputs) {
  constexpr int64_t kScale = 2;
  Trace base_trace = GenerateClusterWorkload(FacebookParams(120, 5));
  {
    Rng arrivals_rng(11);
    AssignPoissonArrivals(&base_trace, SecondsToUs(2.0), &arrivals_rng);
  }
  Trace scaled_trace;
  for (const Job& job : base_trace.jobs()) {
    Job scaled = job;
    scaled.submit_time *= kScale;
    for (DurationUs& duration : scaled.task_durations) {
      duration *= kScale;
    }
    scaled_trace.Add(scaled);
  }
  scaled_trace.SortAndRenumber();

  HawkConfig base_config;
  base_config.num_workers = 60;
  base_config.classify_mode = ClassifyMode::kHint;
  base_config.seed = 7;
  HawkConfig scaled_config = base_config;
  scaled_config.net_delay_us *= kScale;
  scaled_config.cutoff_us *= kScale;
  scaled_config.util_sample_period_us *= kScale;
  scaled_config.steal_retry_interval_us *= kScale;

  for (const char* scheduler : {"sparrow", "centralized", "hawk", "split"}) {
    for (const uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(std::string(scheduler) + " shards=" + std::to_string(shards));
      HawkConfig b = base_config;
      b.sim_shards = shards;
      HawkConfig s = scaled_config;
      s.sim_shards = shards;
      const RunResult r1 = RunExperiment(base_trace, b, scheduler);
      const RunResult r2 = RunExperiment(scaled_trace, s, scheduler);
      ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
      for (size_t i = 0; i < r1.jobs.size(); ++i) {
        ASSERT_EQ(r1.jobs[i].id, r2.jobs[i].id);
        ASSERT_EQ(kScale * r1.jobs[i].finish_time, r2.jobs[i].finish_time) << "job " << i;
        ASSERT_EQ(kScale * r1.jobs[i].runtime_us, r2.jobs[i].runtime_us) << "job " << i;
      }
      EXPECT_EQ(kScale * r1.makespan_us, r2.makespan_us);
      EXPECT_EQ(kScale * r1.total_busy_us, r2.total_busy_us);
    }
  }
}

// Forwards every placement through a worker-id permutation and every
// execution callback through its inverse, so the wrapped policy lives in the
// relabeled cluster without knowing it.
class RelabelContext : public SchedulerContext {
 public:
  RelabelContext(SchedulerContext* real, std::vector<WorkerId> perm)
      : real_(real), perm_(std::move(perm)) {}
  SimTime Now() const override { return real_->Now(); }
  Rng& SchedRng() override { return real_->SchedRng(); }
  Cluster& GetCluster() override { return real_->GetCluster(); }
  JobTracker& Tracker() override { return real_->Tracker(); }
  RunCounters& Counters() override { return real_->Counters(); }
  void PlaceProbe(WorkerId worker, JobId job, bool is_long) override {
    real_->PlaceProbe(perm_[worker], job, is_long);
  }
  void PlaceTask(WorkerId worker, JobId job, TaskIndex task_index, DurationUs duration,
                 bool is_long) override {
    real_->PlaceTask(perm_[worker], job, task_index, duration, is_long);
  }
  void PlaceSpeculative(WorkerId worker, JobId job, TaskIndex task_index, DurationUs duration,
                        bool is_long) override {
    real_->PlaceSpeculative(perm_[worker], job, task_index, duration, is_long);
  }
  void DeliverStolen(WorkerId thief, const std::vector<QueueEntry>& entries) override {
    real_->DeliverStolen(perm_[thief], entries);
  }

 private:
  SchedulerContext* real_;
  std::vector<WorkerId> perm_;
};

class RelabelPolicy : public SchedulerPolicy {
 public:
  RelabelPolicy(std::unique_ptr<SchedulerPolicy> inner, std::vector<WorkerId> perm)
      : inner_(std::move(inner)), perm_(std::move(perm)), inverse_(perm_.size()) {
    for (size_t w = 0; w < perm_.size(); ++w) {
      inverse_[perm_[w]] = static_cast<WorkerId>(w);
    }
  }
  void Attach(SchedulerContext* ctx) override {
    SchedulerPolicy::Attach(ctx);
    relabel_ = std::make_unique<RelabelContext>(ctx, perm_);
    inner_->Attach(relabel_.get());
  }
  RuntimeShape ShapeForRuntime(const HawkConfig& config) const override {
    return inner_->ShapeForRuntime(config);
  }
  double SpeculationThreshold(const HawkConfig& config) const override {
    return inner_->SpeculationThreshold(config);
  }
  void OnJobArrival(const Job& job, const JobClass& cls) override {
    inner_->OnJobArrival(job, cls);
  }
  void OnWorkerIdle(WorkerId worker) override { inner_->OnWorkerIdle(inverse_[worker]); }
  void OnTaskStart(WorkerId worker, const QueueEntry& task) override {
    inner_->OnTaskStart(inverse_[worker], task);
  }
  void OnTaskFinish(WorkerId worker, JobId job, bool is_long) override {
    inner_->OnTaskFinish(inverse_[worker], job, is_long);
  }
  void OnTaskLost(JobId job, bool is_long) override { inner_->OnTaskLost(job, is_long); }
  void OnProbeLost(JobId job, bool is_long) override { inner_->OnProbeLost(job, is_long); }
  void OnTaskStraggling(JobId job, TaskIndex task_index, DurationUs duration,
                        bool is_long) override {
    inner_->OnTaskStraggling(job, task_index, duration, is_long);
  }
  std::string_view Name() const override { return "relabel"; }

 private:
  std::unique_ptr<SchedulerPolicy> inner_;
  std::vector<WorkerId> perm_;
  std::vector<WorkerId> inverse_;
  std::unique_ptr<RelabelContext> relabel_;
};

// Uniform workers are exchangeable: routing sparrow (no partition, no
// stealing) through a worker-id reversal must be invisible. The serial
// executor resolves same-instant ties by placement order — a relabeling-
// equivariant key — so there the invariance is bit-exact: every job time,
// the busy total and the utilization series match. The sharded executor's
// canonical commit order is (due, worker id): relabeling reorders
// same-microsecond commits between workers (e.g. which of two simultaneous
// grants takes which task duration), so worker identity is semantically
// load-bearing at epoch barriers and only the *distribution* is invariant —
// work conservation exactly, runtime statistics tightly.
TEST(MetamorphicTest, WorkerRelabelingIsInvisible) {
  Trace trace = GenerateClusterWorkload(FacebookParams(80, 5));
  {
    Rng arrivals_rng(11);
    AssignPoissonArrivals(&trace, SecondsToUs(2.0), &arrivals_rng);
  }
  HawkConfig config;
  config.num_workers = 40;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = 7;
  std::vector<WorkerId> reversal(config.num_workers);
  for (WorkerId w = 0; w < config.num_workers; ++w) {
    reversal[w] = config.num_workers - 1 - w;
  }
  auto run = [&trace](const HawkConfig& c, std::unique_ptr<SchedulerPolicy> policy) {
    if (c.sim_shards > 1) {
      ShardedSimulationDriver driver(&trace, c, c.num_workers, policy.get());
      return driver.Run();
    }
    SimulationDriver driver(&trace, c, c.num_workers, policy.get());
    return driver.Run();
  };
  const SchedulerRegistry::Factory& sparrow = SchedulerRegistry::Global().Find("sparrow")->factory;
  auto relabeled_policy = [&reversal, &config, &sparrow] {
    return std::make_unique<RelabelPolicy>(sparrow(config), reversal);
  };

  // Serial: bit-exact.
  const RunResult serial_base = run(config, sparrow(config));
  ExpectSameOutcome(serial_base, run(config, relabeled_policy()));

  // Sharded: exact conservation, statistical runtime invariance.
  HawkConfig sharded = config;
  sharded.sim_shards = 4;
  const RunResult base = run(sharded, sparrow(config));
  const RunResult relabel = run(sharded, relabeled_policy());
  ASSERT_EQ(base.jobs.size(), relabel.jobs.size());
  EXPECT_EQ(base.total_busy_us, relabel.total_busy_us);  // Same work, done once.
  EXPECT_EQ(base.counters.tasks_launched, relabel.counters.tasks_launched);
  double base_mean = 0.0;
  double relabel_mean = 0.0;
  // Mean of per-job runtimes (equal weights, so plain sums compare safely).
  for (size_t i = 0; i < base.jobs.size(); ++i) {
    base_mean += static_cast<double>(base.jobs[i].runtime_us);
    relabel_mean += static_cast<double>(relabel.jobs[i].runtime_us);
  }
  base_mean /= static_cast<double>(base.jobs.size());
  relabel_mean /= static_cast<double>(relabel.jobs.size());
  EXPECT_NEAR(relabel_mean / base_mean, 1.0, 0.02);
  const double makespan_ratio =
      static_cast<double>(relabel.makespan_us) / static_cast<double>(base.makespan_us);
  EXPECT_NEAR(makespan_ratio, 1.0, 0.02);
}

}  // namespace
}  // namespace hawk
