#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench/e2e/layer_trace.h"
#include "src/common/random.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace hawk {
namespace e2e {
namespace {

// Every workload offers this load to its reference cluster size (the paper's
// high-but-not-saturated operating point).
constexpr double kTargetUtil = 0.93;

// The fig-5 grid: 9 cluster sizes (paper 10k..50k nodes at 1/10 scale) x 4
// schedulers, calibrated at 1,500 workers.
constexpr uint32_t kSweepMinWorkers = 1000;
constexpr uint32_t kSweepStepWorkers = 500;
constexpr uint32_t kSweepSizes = 9;
constexpr uint32_t kSweepRefWorkers = 1500;
const std::vector<std::string>& SweepSchedulers() {
  static const std::vector<std::string> names = {"sparrow", "centralized", "split", "hawk"};
  return names;
}

// Fault mix for faults-15k. The crash rate is expressed per worker over the
// trace's longest task: well above 1/longest_task the tail restarts forever.
constexpr double kCrashesPerLongestTask = 0.1;
constexpr double kLossRate = 0.05;
constexpr DurationUs kJitterUs = 500;
constexpr double kStragglerRate = 0.05;

DurationUs LongestTaskUs(const Trace& trace) {
  DurationUs longest = 1;
  for (const Job& job : trace.jobs()) {
    for (const DurationUs duration : job.task_durations) {
      longest = std::max(longest, duration);
    }
  }
  return longest;
}

// Paper §4.1 Google-trace parameters.
HawkConfig GoogleConfig(uint32_t num_workers, uint64_t seed) {
  HawkConfig config;
  config.num_workers = num_workers;
  config.short_partition_fraction = 0.17;
  config.cutoff_us = SecondsToUs(1129.0);
  config.classify_mode = ClassifyMode::kCutoff;
  config.seed = seed;
  return config;
}

class Fnv1a {
 public:
  void MixU64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void MixI64(int64_t value) { MixU64(static_cast<uint64_t>(value)); }
  void MixDouble(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    MixU64(bits);
  }
  uint64_t Digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

uint64_t DigestResult(const RunResult& result) {
  Fnv1a h;
  h.MixU64(result.jobs.size());
  for (const JobResult& job : result.jobs) {
    h.MixU64(job.id);
    h.MixU64(job.is_long ? 1 : 0);
    h.MixI64(job.submit_time);
    h.MixI64(job.finish_time);
    h.MixI64(job.runtime_us);
  }
  h.MixI64(result.makespan_us);
  h.MixI64(result.total_busy_us);
  h.MixU64(result.utilization_samples.size());
  for (const double sample : result.utilization_samples) {
    h.MixDouble(sample);
  }
  const RunCounters& c = result.counters;
  for (const uint64_t v :
       {c.jobs, c.tasks_launched, c.probes_placed, c.probe_requests, c.cancels,
        c.central_tasks_placed, c.steal_attempts, c.steal_victim_probes, c.steal_successes,
        c.entries_stolen, c.events, c.short_tasks_started, c.long_tasks_started,
        c.short_queue_wait_us, c.long_queue_wait_us, c.worker_crashes, c.worker_departures,
        c.worker_rejoins, c.messages_dropped, c.message_retries, c.tasks_re_dispatched,
        c.probes_lost, c.duplicate_completions, c.wasted_work_us, c.tasks_speculated,
        c.speculative_wins, c.speculative_wasted_us, c.retries_suppressed, c.tasks_abandoned,
        c.node_suspicions}) {
    h.MixU64(v);
  }
  return h.Digest();
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"google-15k", "hawk", 1500, 200000, 1, false, false},
      {"scale-1m", "hawk", 1000000, 30000, 1, false, false},
      {"sharded-1m", "hawk", 1000000, 30000, 4, false, false},
      {"faults-15k", "hawk-spec", 1500, 150000, 1, true, false},
      {"sweep-fig5", "", kSweepRefWorkers, 30000, 1, false, true},
  };
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

uint32_t BenchThreads() {
  const uint32_t hw = std::max<uint32_t>(1, std::thread::hardware_concurrency());
  return std::min<uint32_t>(4, hw);
}

Inputs MakeInputs(const Workload& workload, uint64_t seed, double scale) {
  Inputs in;
  const auto jobs = static_cast<uint32_t>(
      std::max(1.0, std::round(static_cast<double>(workload.jobs) * scale)));
  const uint32_t min_workers = workload.sweep ? kSweepMinWorkers : workload.workers;

  const int64_t t0 = HostNowNs();
  GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  Trace generated = GenerateGoogleTrace(params);
  const int64_t t1 = HostNowNs();
  // Tasks per job are capped for the smallest cluster (2t probes must fit),
  // then Poisson arrivals are calibrated once for the reference size.
  in.trace = std::make_unique<Trace>(CapTasksPreserveWork(generated, min_workers / 2));
  // Straggler drag stretches executed work by rate x (slowdown - 1). The
  // fault workload offers the target load with the drag included, so its
  // backlog stays bounded instead of growing with the trace.
  double util = kTargetUtil;
  if (workload.faults) {
    util /= 1.0 + kStragglerRate * (HawkConfig().straggler_slowdown_factor - 1.0);
  }
  Rng rng(seed ^ 0xA5A5A5A5ULL);
  AssignPoissonArrivals(in.trace.get(),
                        MeanInterarrivalForUtilization(*in.trace, util, workload.workers), &rng);
  const int64_t t2 = HostNowNs();
  in.generate_s = static_cast<double>(t1 - t0) * 1e-9;
  in.prepare_s = static_cast<double>(t2 - t1) * 1e-9;

  in.config = GoogleConfig(workload.workers, seed);
  if (workload.sim_shards > 1) {
    // The coordinator is the pool's extra thread: 3 phase threads + 1 = 4.
    in.config.sim_shards = workload.sim_shards;
    in.config.sim_threads = std::max<uint32_t>(1, BenchThreads() - 1);
  }
  if (workload.faults) {
    const double longest_s = static_cast<double>(LongestTaskUs(*in.trace)) * 1e-6;
    in.config.worker_crash_rate = kCrashesPerLongestTask / longest_s;
    in.config.message_loss_rate = kLossRate;
    in.config.message_delay_jitter_us = kJitterUs;
    in.config.straggler_rate = kStragglerRate;
    in.config.fault_seed = seed;
  }
  return in;
}

std::vector<RunResult> RunWorkload(const Workload& workload, const Inputs& inputs,
                                   bool traced) {
  const auto name = [traced](std::string_view scheduler) {
    return traced ? TracedName(scheduler) : std::string(scheduler);
  };
  if (!workload.sweep) {
    std::vector<RunResult> results;
    results.push_back(RunExperiment(*inputs.trace, inputs.config, name(workload.scheduler)));
    return results;
  }
  std::vector<double> sizes;
  for (uint32_t i = 0; i < kSweepSizes; ++i) {
    sizes.push_back(kSweepMinWorkers + i * kSweepStepWorkers);
  }
  std::vector<std::string> schedulers;
  for (const std::string& s : SweepSchedulers()) {
    schedulers.push_back(name(s));
  }
  SweepSpec sweep(ExperimentSpec().WithConfig(inputs.config).WithTrace(inputs.trace.get()));
  sweep.Vary("num_workers", sizes).VarySchedulers(schedulers);
  std::vector<SweepRun> runs = RunSweep(sweep, BenchThreads());
  std::vector<RunResult> results;
  results.reserve(runs.size());
  for (SweepRun& run : runs) {
    results.push_back(std::move(run.result));
  }
  return results;
}

size_t ReferencePoint(const Workload& workload) {
  if (!workload.sweep) {
    return 0;
  }
  const size_t size_index = (kSweepRefWorkers - kSweepMinWorkers) / kSweepStepWorkers;
  const auto& names = SweepSchedulers();
  const auto hawk = std::find(names.begin(), names.end(), "hawk") - names.begin();
  return size_index * names.size() + static_cast<size_t>(hawk);
}

uint64_t PaperEvents(const RunCounters& c) {
  return c.jobs + c.probes_placed + c.central_tasks_placed + 2 * c.tasks_launched;
}

uint64_t DigestResults(const std::vector<RunResult>& results) {
  Fnv1a h;
  for (const RunResult& result : results) {
    h.MixU64(DigestResult(result));
  }
  return h.Digest();
}

std::string CheckResult(const Trace& trace, const RunResult& result, bool faults) {
  if (result.jobs.size() != trace.NumJobs()) {
    return "completed " + std::to_string(result.jobs.size()) + " of " +
           std::to_string(trace.NumJobs()) + " jobs";
  }
  const auto work = static_cast<uint64_t>(trace.TotalWorkUs());
  if (static_cast<uint64_t>(result.total_busy_us) != work + result.counters.wasted_work_us) {
    return "busy " + std::to_string(result.total_busy_us) + " us != total work " +
           std::to_string(work) + " + wasted " + std::to_string(result.counters.wasted_work_us);
  }
  if (!faults && result.counters.tasks_launched != trace.TotalTasks()) {
    return "launched " + std::to_string(result.counters.tasks_launched) + " of " +
           std::to_string(trace.TotalTasks()) + " tasks";
  }
  return "";
}

}  // namespace e2e
}  // namespace hawk
