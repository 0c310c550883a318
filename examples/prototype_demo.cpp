// Run the threaded prototype runtime (the paper's "real cluster run", §4.10)
// on a down-scaled Google trace sample: N node-monitor threads executing
// sleep tasks, 10 distributed schedulers, 1 centralized scheduler, all over
// an RPC bus with injected latency. Any registered scheduler runs here
// through the same ExperimentSpec the simulator uses; this demo sweeps the
// spec over hawk and sparrow and compares them.
//
//   prototype_demo [--nodes=100] [--slots=1] [--jobs=80] [--work-seconds=20]
//                  [--seed=5] [--scheds=hawk,sparrow]
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/metrics/comparison.h"
#include "src/metrics/report.h"
#include "src/runtime/prototype_cluster.h"
#include "src/scheduler/experiment.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace {

// Comma-separated scheduler names ("hawk,sparrow,hawk-dchoice").
std::vector<std::string> ParseSchedulers(const std::string& list) {
  std::vector<std::string> names;
  std::string::size_type begin = 0;
  while (begin <= list.size()) {
    const std::string::size_type comma = list.find(',', begin);
    const std::string name = list.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (!name.empty()) {
      names.push_back(name);
    }
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  hawk::Flags flags(argc, argv);
  const auto nodes = static_cast<uint32_t>(flags.GetInt("nodes", 100));
  const auto slots = static_cast<uint32_t>(flags.GetInt("slots", 1));
  const auto jobs = static_cast<uint32_t>(flags.GetInt("jobs", 80));
  const double work_seconds = flags.GetDouble("work-seconds", 20.0);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 5));
  const std::vector<std::string> schedulers =
      ParseSchedulers(flags.GetString("scheds", "hawk,sparrow"));
  if (schedulers.empty()) {
    std::fprintf(stderr, "--scheds must name at least one registered scheduler\n");
    return 1;
  }

  // Google sample scaled the way the paper scales it for the prototype:
  // tasks capped by the cluster-size ratio, durations scaled into sleeps.
  hawk::GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  hawk::Trace trace = hawk::CapTasksPreserveWork(hawk::GenerateGoogleTrace(params), nodes / 2);
  trace = hawk::RescaleTime(trace, work_seconds * 1e6 /
                                       static_cast<double>(trace.TotalWorkUs()));
  hawk::Rng rng(seed);
  hawk::AssignPoissonArrivals(
      &trace, hawk::MeanInterarrivalForUtilization(trace, 0.9, nodes * slots), &rng);

  std::printf("Prototype: %u node monitors x %u slot(s), 10 frontends + 1 backend, %zu jobs, "
              "~%.0f s of sleep-task work, 0.5 ms RPC latency.\n\n",
              nodes, slots, trace.NumJobs(), work_seconds);

  // The shared config: same type, same validation, same fields as a
  // simulation of this cluster. The prototype's wall-clock knobs (frontends,
  // timeouts, the utilization sampler's 100 ms period) stay at their
  // PrototypeConfig defaults.
  hawk::HawkConfig config;
  config.num_workers = nodes;
  config.slots_per_worker = slots;
  config.classify_mode = hawk::ClassifyMode::kHint;
  config.seed = seed;

  // The declarative grid: one base spec, one scheduler axis — exactly how a
  // simulation sweep would be declared — executed on the prototype.
  hawk::SweepSpec sweep(hawk::ExperimentSpec("hawk").WithConfig(config).WithTrace(&trace)
                            .WithLabel("proto"));
  sweep.VarySchedulers(schedulers);
  const auto runs_or = hawk::runtime::RunPrototypeSweep(sweep);
  if (!runs_or.ok()) {
    std::fprintf(stderr, "prototype sweep failed: %s\n", runs_or.status().message().c_str());
    return 1;
  }
  const std::vector<hawk::SweepRun>& runs = runs_or.value();

  hawk::Table table({"scheduler", "p50 short (ms)", "p90 short (ms)", "p50 long (ms)",
                     "rpc messages", "entries stolen"});
  for (const hawk::SweepRun& run : runs) {
    const hawk::Samples shorts = run.result.RuntimesSeconds(false);
    const hawk::Samples longs = run.result.RuntimesSeconds(true);
    table.AddRow({run.spec.Label(),
                  hawk::Table::Num(shorts.Percentile(50) * 1000.0, 1),
                  hawk::Table::Num(shorts.Percentile(90) * 1000.0, 1),
                  longs.Empty() ? "-" : hawk::Table::Num(longs.Percentile(50) * 1000.0, 1),
                  std::to_string(run.result.counters.events),
                  std::to_string(run.result.counters.entries_stolen)});
  }
  table.Print();

  if (runs.size() >= 2) {
    // The last scheduler is the baseline (sparrow in the default pair).
    const hawk::RunComparison cmp =
        hawk::CompareRuns(runs.front().result, runs.back().result);
    std::printf("\n%s vs %s on the prototype: short p50 %.2f, short p90 %.2f, "
                "long p50 %.2f (lower is better)\n",
                schedulers.front().c_str(), schedulers.back().c_str(),
                cmp.short_jobs.p50_ratio, cmp.short_jobs.p90_ratio,
                cmp.long_jobs.p50_ratio);
  }
  return 0;
}
