// Extending the library: write a new scheduling policy against the public
// policy interface (here by subclassing HawkPolicy), register it in the
// SchedulerRegistry from OUTSIDE src/, and run and sweep it through the exact
// same experiment API as the built-in schedulers.
//
// The example policy, "hawk-lb", is a Hawk variant whose distributed side
// probes the LEAST-LOADED of two random slots' owners per probe (power-of-
// two-choices on queue length) instead of plain uniform placement — a
// natural "what if" on top of the paper's design. It subclasses HawkPolicy
// and overrides only short-job placement; the central long-job lane, its
// waiting-time feedback, fault re-dispatch and stealing are Hawk's own. One
// SchedulerRegistration line makes it a first-class experiment citizen:
// RunExperiment("hawk-lb"), sweep axes, CSV export — everything built-ins get.
#include <cstdio>
#include <memory>

#include "src/common/flags.h"
#include "src/core/hawk_config.h"
#include "src/core/hawk_scheduler.h"
#include "src/metrics/comparison.h"
#include "src/metrics/report.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/registry.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace {

class HawkLeastLoadedPolicy : public hawk::HawkPolicy {
 public:
  explicit HawkLeastLoadedPolicy(const hawk::HawkConfig& config)
      : hawk::HawkPolicy(config, hawk::RuntimeShape{}, "hawk-lb") {}

  void OnJobArrival(const hawk::Job& job, const hawk::JobClass& cls) override {
    if (cls.is_long_sched) {
      hawk::HawkPolicy::OnJobArrival(job, cls);
      return;
    }
    // Each probe samples two random *slots* (so big workers are
    // proportionally more likely candidates) and goes to the less-loaded
    // owning worker (queue length plus occupied slots).
    hawk::Cluster& cluster = ctx_->GetCluster();
    const uint64_t n = cluster.TotalSlots();
    for (uint32_t p = 0; p < config().probe_ratio * job.NumTasks(); ++p) {
      const auto a = cluster.WorkerOfSlot(
          static_cast<hawk::SlotId>(ctx_->SchedRng().NextBounded(n)));
      const auto b = cluster.WorkerOfSlot(
          static_cast<hawk::SlotId>(ctx_->SchedRng().NextBounded(n)));
      const hawk::WorkerStore& workers = cluster.workers();
      const size_t qa = workers.QueueSize(a) + workers.OccupiedSlots(a);
      const size_t qb = workers.QueueSize(b) + workers.OccupiedSlots(b);
      ctx_->PlaceProbe(qa <= qb ? a : b, job.id, false);
    }
  }
};

// The extension point: one registration line and "hawk-lb" can be run,
// swept and compared through the same path as the built-ins. The policy's
// general partition mirrors Hawk's (centralized long jobs over the general
// partition).
const hawk::SchedulerRegistration kRegisterHawkLb(
    "hawk-lb",
    [](const hawk::HawkConfig& config) -> std::unique_ptr<hawk::SchedulerPolicy> {
      return std::make_unique<HawkLeastLoadedPolicy>(config);
    },
    [](const hawk::HawkConfig& config) { return config.GeneralCount(); });

}  // namespace

int main(int argc, char** argv) {
  hawk::Flags flags(argc, argv);
  const auto workers = static_cast<uint32_t>(flags.GetInt("workers", 1500));
  const auto jobs = static_cast<uint32_t>(flags.GetInt("jobs", 3000));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  hawk::GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  hawk::Trace trace = hawk::CapTasksPreserveWork(hawk::GenerateGoogleTrace(params),
                                                 workers / 2);
  hawk::Rng rng(seed);
  hawk::AssignPoissonArrivals(
      &trace, hawk::MeanInterarrivalForUtilization(trace, 0.93, workers), &rng);

  hawk::HawkConfig config;
  config.num_workers = workers;
  config.seed = seed;

  // The registered custom policy runs through the exact same entry point as
  // the built-ins — one declarative sweep over all three schedulers.
  hawk::SweepSpec sweep(hawk::ExperimentSpec().WithConfig(config).WithTrace(&trace));
  sweep.VarySchedulers({"hawk-lb", "hawk", "sparrow"});
  const std::vector<hawk::SweepRun> runs =
      hawk::RunSweep(sweep, static_cast<uint32_t>(flags.GetInt("threads", 0)));

  hawk::Table table({"policy", "p50 short (s)", "p90 short (s)", "p50 long (s)",
                     "p90 long (s)"});
  for (const hawk::SweepRun& run : runs) {
    const hawk::Samples shorts = run.result.RuntimesSeconds(false);
    const hawk::Samples longs = run.result.RuntimesSeconds(true);
    table.AddRow({run.spec.scheduler == "hawk-lb" ? "hawk-lb (custom)" : run.spec.scheduler,
                  hawk::Table::Num(shorts.Percentile(50), 0),
                  hawk::Table::Num(shorts.Percentile(90), 0),
                  hawk::Table::Num(longs.Percentile(50), 0),
                  hawk::Table::Num(longs.Percentile(90), 0)});
  }
  table.Print();
  std::printf("\nNote: power-of-two-choices probing sees queue lengths that plain\n"
              "Sparrow cannot; the paper argues such state is impractical to keep\n"
              "fresh at cluster scale — treat hawk-lb as an informed upper bound.\n");
  return 0;
}
