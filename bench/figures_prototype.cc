// Figures 16–17 (§4.10), prototype implementation vs simulation, as a
// figure-table entry.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/figures.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/hawk_scheduler.h"
#include "src/metrics/report.h"
#include "src/runtime/prototype_cluster.h"
#include "src/scheduler/registry.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace hawk::figures {
namespace {

// The externally registered policy (same spirit as examples/custom_policy.cpp,
// compacted): Hawk whose distributed side sends each probe to the less-loaded
// of two random slots' owners. On the prototype its RuntimeShape — inherited
// from HawkPolicy — drives the control plane with uniform probing, which is
// precisely the paper's point about stale state over a real network.
class HawkLbPolicy : public HawkPolicy {
 public:
  explicit HawkLbPolicy(const HawkConfig& config)
      : HawkPolicy(config, RuntimeShape{}, "hawk-lb") {}

  void OnJobArrival(const Job& job, const JobClass& cls) override {
    if (cls.is_long_sched) {
      HawkPolicy::OnJobArrival(job, cls);
      return;
    }
    Cluster& cluster = ctx_->GetCluster();
    const uint64_t n = cluster.TotalSlots();
    for (uint32_t p = 0; p < config().probe_ratio * job.NumTasks(); ++p) {
      const auto a = cluster.WorkerOfSlot(static_cast<SlotId>(ctx_->SchedRng().NextBounded(n)));
      const auto b = cluster.WorkerOfSlot(static_cast<SlotId>(ctx_->SchedRng().NextBounded(n)));
      const WorkerStore& workers = cluster.workers();
      const size_t qa = workers.QueueSize(a) + workers.OccupiedSlots(a);
      const size_t qb = workers.QueueSize(b) + workers.OccupiedSlots(b);
      ctx_->PlaceProbe(qa <= qb ? a : b, job.id, false);
    }
  }
};

struct GridPoint {
  double ratio = 0.0;
  uint32_t slots = 0;
  std::string scheduler;
  RunComparison impl;  // Scheduler normalized to sparrow, prototype.
  RunComparison sim;   // Same, simulated.
};

// Figures 16 & 17 (§4.10): prototype implementation vs simulation.
//
// The paper runs a 3300-job sample of the Google trace on a 100-node cluster
// (1 centralized + 10 distributed schedulers), with task durations scaled
// down 1000x into sleep tasks and tasks-per-job capped by the cluster-size
// ratio, then varies load through the mean job inter-arrival time as a
// multiple of the mean task runtime (1 .. 2.25). Hawk is normalized to
// Sparrow at the 50th/90th percentile for short (Fig 16) and long (Fig 17)
// jobs, with the corresponding simulation results alongside.
//
// Here both worlds are driven by the SAME ExperimentSpec per grid point:
// RunExperiment simulates it, runtime::RunPrototype deploys it on the
// in-process threaded runtime (real node-monitor threads, sleep tasks, RPC
// bus). The grid covers sparrow, hawk, and "hawk-lb" — a least-loaded Hawk
// variant registered from OUTSIDE src/ right here — at one and four slots
// per node (constant total capacity). Defaults are sized for a few minutes
// of wall time; --jobs / --work-seconds / --num-ratios scale it
// (scripts/bench.sh smoke-runs it small and emits BENCH_impl_vs_sim.json).
int Fig16To17(const Flags& flags) {
  // Registered on first use, not at namespace scope: the registry-wide
  // ablations (faults, stragglers) must see the same schedulers as without
  // this entry.
  static const SchedulerRegistration register_hawk_lb(
      "hawk-lb",
      [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
        return std::make_unique<HawkLbPolicy>(config);
      },
      [](const HawkConfig& config) { return config.GeneralCount(); });

  const uint32_t jobs = ScaledJobs(flags, 120);
  const uint64_t seed = Seed(flags, 5);
  // Total capacity in slots, a multiple of the largest slot layout (4) so
  // every grid row carries exactly the same capacity.
  constexpr uint32_t kNodes = 100;
  // Total task-work in the scaled trace, in wall-clock seconds; governs how
  // long the prototype runs (the paper's 1000x scaling is the same idea).
  const double work_seconds = flags.GetDouble("work-seconds", 60.0);

  // Google sample, capped for 2t probes on kNodes workers (§4.1's scaling
  // rule), then time-scaled so the total work matches `work_seconds`.
  GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  Trace base = CapTasksPreserveWork(GenerateGoogleTrace(params), kNodes / 2);
  base = RescaleTime(base, work_seconds * 1e6 / static_cast<double>(base.TotalWorkUs()));
  const double mean_job_work_us =
      static_cast<double>(base.TotalWorkUs()) / static_cast<double>(base.NumJobs());
  // Calibrate so that ratio 1.0 offers ~95% utilization, declining as the
  // inter-arrival multiple grows (the paper's load sweep direction).
  const double base_interarrival_us = mean_job_work_us / (0.95 * kNodes);

  std::vector<double> ratios = {1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.25};
  const auto keep = static_cast<size_t>(flags.GetInt("num-ratios", 7));
  if (keep < ratios.size()) {
    ratios.resize(std::max<size_t>(keep, 1));
  }

  PrintHeader("Figures 16-17: implementation vs simulation, normalized to Sparrow (" +
              std::to_string(jobs) + "-job Google sample, " + std::to_string(kNodes) +
              " execution slots, 10 distributed + 1 centralized schedulers, slots/node in {1,4})");

  std::vector<GridPoint> points;
  for (const double ratio : ratios) {
    Trace trace = base;
    Rng arrivals_rng(seed ^ 0xBEEF);
    AssignPoissonArrivals(&trace, static_cast<DurationUs>(base_interarrival_us * ratio),
                          &arrivals_rng);
    // Sampling resolution: ~60 utilization snapshots over the submission
    // span (the simulator's "every 100 s" scaled to this trace's time base).
    const DurationUs sample_period_us = std::max<DurationUs>(2000, trace.SpanUs() / 60);

    // Constant-capacity slot layouts: kNodes single-slot monitors vs
    // kNodes/4 monitors with 4 slots each.
    for (const uint32_t slots : {1u, 4u}) {
      HawkConfig config;
      config.num_workers = kNodes / slots;
      config.slots_per_worker = slots;
      config.short_partition_fraction = 0.17;
      config.classify_mode = ClassifyMode::kHint;
      config.util_sample_period_us = sample_period_us;
      config.seed = seed;
      runtime::PrototypeConfig runtime_knobs;
      runtime_knobs.num_frontends = 10;
      // The sampler period is a wall-clock knob and comes from the runtime
      // config on the spec-driven path; match the simulator's resolution.
      runtime_knobs.hawk.util_sample_period_us = sample_period_us;

      // The same spec per scheduler drives RunExperiment and RunPrototype.
      const auto spec_for = [&](const std::string& scheduler) {
        return ExperimentSpec(scheduler).WithConfig(config).WithTrace(&trace);
      };
      const auto prototype = [&](const std::string& scheduler) {
        const StatusOr<RunResult> result =
            runtime::RunPrototype(spec_for(scheduler), runtime_knobs);
        HAWK_CHECK(result.ok()) << result.status().message();
        return result.value();
      };
      const RunResult sim_sparrow = RunExperiment(spec_for("sparrow"));
      const RunResult impl_sparrow = prototype("sparrow");
      for (const std::string scheduler : {"hawk", "hawk-lb"}) {
        const RunResult sim = RunExperiment(spec_for(scheduler));
        const RunResult impl = prototype(scheduler);
        points.push_back({ratio, slots, scheduler, CompareRuns(impl, impl_sparrow),
                          CompareRuns(sim, sim_sparrow)});
        std::printf("  [ratio %.2f slots %u %s done: impl messages=%llu, steals=%llu]\n", ratio,
                    slots, scheduler.c_str(),
                    static_cast<unsigned long long>(impl.counters.events),
                    static_cast<unsigned long long>(impl.counters.entries_stolen));
      }
    }
  }

  Table fig16({"interarrival/runtime", "slots", "scheduler", "impl p50 short", "impl p90 short",
               "sim p50 short", "sim p90 short", "sparrow med util"});
  Table fig17({"interarrival/runtime", "slots", "scheduler", "impl p50 long", "impl p90 long",
               "sim p50 long", "sim p90 long", "sparrow med util"});
  for (const GridPoint& point : points) {
    const std::vector<std::string> key = {Table::Num(point.ratio, 2), std::to_string(point.slots),
                                          point.scheduler};
    const std::string util = Table::Pct(point.impl.baseline_median_util);
    fig16.AddRow(
        Cells({key, Ratios(point.impl.short_jobs), Ratios(point.sim.short_jobs), {util}}));
    fig17.AddRow(Cells({key, Ratios(point.impl.long_jobs), Ratios(point.sim.long_jobs), {util}}));
  }
  std::printf("\nFigure 16: short jobs, implementation vs simulation\n");
  fig16.Print();
  std::printf("\nFigure 17: long jobs, implementation vs simulation\n");
  fig17.Print();

  return Export(flags, points.size(), [&points](size_t i) {
    const GridPoint& point = points[i];
    char row[512];
    std::snprintf(row, sizeof(row),
                  "{\"ratio\": %.2f, \"slots\": %u, \"scheduler\": \"%s\", "
                  "\"impl_p50_short\": %.4f, \"impl_p90_short\": %.4f, "
                  "\"impl_p50_long\": %.4f, \"impl_p90_long\": %.4f, "
                  "\"sim_p50_short\": %.4f, \"sim_p90_short\": %.4f, "
                  "\"sim_p50_long\": %.4f, \"sim_p90_long\": %.4f, "
                  "\"sparrow_median_util\": %.4f}",
                  point.ratio, point.slots, point.scheduler.c_str(),
                  point.impl.short_jobs.p50_ratio, point.impl.short_jobs.p90_ratio,
                  point.impl.long_jobs.p50_ratio, point.impl.long_jobs.p90_ratio,
                  point.sim.short_jobs.p50_ratio, point.sim.short_jobs.p90_ratio,
                  point.sim.long_jobs.p50_ratio, point.sim.long_jobs.p90_ratio,
                  point.impl.baseline_median_util);
    return std::string(row);
  });
}

}  // namespace

std::vector<Figure> PrototypeFigures() {
  return {{"fig16-17", "prototype vs simulation across load, 1 and 4 slots per node (§4.10)",
           Fig16To17}};
}

}  // namespace hawk::figures
