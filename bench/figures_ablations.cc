// Ablations beyond the paper's figures, as figure-table entries: partition
// size, probe ratio and power of d, steal retry, arrival burstiness,
// heterogeneous capacity, injected faults and stragglers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/figures.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/partition.h"
#include "src/metrics/report.h"
#include "src/runtime/prototype_cluster.h"
#include "src/scheduler/registry.h"
#include "src/workload/arrival_patterns.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"
#include "src/workload/trace_stats.h"

namespace hawk::figures {
namespace {

using Mutators = std::vector<std::pair<std::string, SweepSpec::ConfigMutator>>;

// Percentile `pct` of `samples`, or 0 when there are none.
double Pctl(const Samples& samples, double pct) {
  return samples.Empty() ? 0.0 : samples.Percentile(pct);
}

// Absolute short p50 and p90 and long p50 runtimes (s), one decimal.
std::vector<std::string> Latencies(const RunResult& result) {
  const Samples shorts = result.RuntimesSeconds(false);
  return {Table::Num(Pctl(shorts, 50), 1), Table::Num(Pctl(shorts, 90), 1),
          Table::Num(Pctl(result.RuntimesSeconds(true), 50), 1)};
}

DurationUs LongestTaskUs(const Trace& trace) {
  DurationUs longest = 1;
  for (const Job& job : trace.jobs()) {
    for (const DurationUs duration : job.task_durations) {
      longest = std::max(longest, duration);
    }
  }
  return longest;
}

// The tiny prototype grid of the faults and stragglers ablations: a handful
// of node monitors, sleep tasks, and one fault-layer seed for both executors.
constexpr uint32_t kProtoWorkers = 8;
constexpr uint64_t kFaultSeed = 1;

// A few seconds of sleep-task work (--proto-work-seconds) from a
// --proto-jobs Google sample, capped for kProtoWorkers and loaded to 80%.
Trace ProtoTrace(const Flags& flags, uint64_t seed, uint32_t default_jobs,
                 double default_work_s) {
  GoogleTraceParams params;
  params.num_jobs = static_cast<uint32_t>(flags.GetInt("proto-jobs", default_jobs));
  params.seed = seed;
  Trace trace = CapTasksPreserveWork(GenerateGoogleTrace(params), kProtoWorkers / 2);
  const double work_s = flags.GetDouble("proto-work-seconds", default_work_s);
  trace = RescaleTime(trace, work_s * 1e6 / static_cast<double>(trace.TotalWorkUs()));
  Rng arrivals_rng(seed ^ 0xFACEULL);
  AssignPoissonArrivals(&trace, MeanInterarrivalForUtilization(trace, 0.8, kProtoWorkers),
                        &arrivals_rng);
  return trace;
}

// The prototype config both ablations start from.
HawkConfig ProtoConfig(uint64_t seed) {
  HawkConfig config;
  config.num_workers = kProtoWorkers;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = seed;
  config.fault_seed = kFaultSeed;
  return config;
}

// One wall-clock run of `config` under `scheduler`; aborts on failure.
RunResult RunProto(const Trace& trace, const std::string& scheduler, const HawkConfig& config) {
  runtime::PrototypeConfig knobs;
  knobs.num_frontends = 4;
  knobs.fault_detection_timeout = std::chrono::milliseconds(300);
  knobs.reap_period = std::chrono::milliseconds(50);
  const StatusOr<RunResult> result = runtime::RunPrototype(
      ExperimentSpec(scheduler).WithConfig(config).WithTrace(&trace), knobs);
  HAWK_CHECK(result.ok()) << scheduler << ": " << result.status().message();
  return result.value();
}

// Ablation (beyond the paper's figures): short-partition size sweep.
//
// §3.4 sizes the short partition by the short jobs' task-seconds share (17%
// for the Google trace). This ablation sweeps the fraction to show the rule
// lands near the sweet spot: too small starves short jobs of reserved
// capacity; too large starves long jobs of general capacity.
int PartitionSize(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  // What §3.4's rule derives from this trace's measured mix:
  const double rule_fraction =
      ShortPartitionFractionForTrace(g.trace, LongByCutoff(SecondsToUs(1129.0)));
  const RunResult sparrow = RunExperiment(g.trace, g.config, "sparrow");
  PrintHeader(
      "Ablation: short partition size, Hawk vs Sparrow (Google trace, 15k-equivalent "
      "nodes). Task-seconds rule gives " +
      Table::Pct(rule_fraction) + " (paper uses 17%)");

  // 0% is Hawk without the partition (§4.4): the whole cluster is general.
  const std::vector<double> fractions = {0.0, 0.05, 0.10, 0.17, 0.25, 0.35, 0.50};
  SweepSpec sweep(ExperimentSpec("hawk").WithConfig(g.config).WithTrace(&g.trace));
  sweep.Vary("short_partition_fraction", fractions);
  const std::vector<RunComparison> cmps = CompareTo(Run(sweep, flags), sparrow);

  Table table({"short partition", "p50 short", "p90 short", "p50 long", "p90 long"});
  for (size_t i = 0; i < fractions.size(); ++i) {
    table.AddRow(Cells({{Table::Pct(fractions[i], 0)}, Ratios(cmps[i].short_jobs),
                        Ratios(cmps[i].long_jobs)}));
  }
  table.Print();
  return 0;
}

// Ablation (beyond the paper's figures): Sparrow probe ratio sweep.
//
// The paper fixes the probe ratio at 2 "because the authors of Sparrow have
// found two to be the best probe ratio" and notes that more probes are
// counterproductive due to messaging overhead. This ablation verifies the
// choice inside our simulator: absolute Sparrow percentiles and message
// counts per probe ratio, plus Hawk (which probes short jobs only) under the
// same ratios.
int ProbeRatio(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  PrintHeader("Ablation: probe ratio (Google trace, 15k-equivalent nodes)");
  SweepSpec sweep(ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace));
  sweep.VarySchedulers({"sparrow", "hawk"}).Vary("probe_ratio", {1, 2, 3, 4});

  Table table({"scheduler", "ratio", "p50 short (s)", "p90 short (s)", "p50 long (s)",
               "probes placed"});
  for (const SweepRun& run : Run(sweep, flags)) {
    table.AddRow(Cells({{run.spec.scheduler, std::to_string(run.spec.config.probe_ratio)},
                        Latencies(run.result),
                        {std::to_string(run.result.counters.probes_placed)}}));
  }
  table.Print();
  return 0;
}

// Ablation (beyond the paper): power-of-d-choices probing at scale.
//
// "The Power of d Choices in Scheduling for Data Centers with Heterogeneous
// Servers" (PAPERS.md) studies how the number of probes per task changes
// placement quality. Hawk fixes d = 2 (§4.1); this sweep varies the probe
// ratio d over {1, 2, 4, 8} for both Sparrow (all jobs probed) and Hawk
// (short jobs only) across cluster sizes, as one SweepSpec declaration.
//
// scripts/bench.sh runs this with --json=BENCH_sweep.json so the sweep
// becomes part of the repo's tracked benchmark artifacts; --csv=PATH emits
// the same grid through the metrics CSV exporter.
int PowerOfD(const Flags& flags) {
  const std::vector<uint32_t> paper_sizes = {10000, 15000, 20000};
  const GoogleSweep g = MakeGoogleSweep(flags);
  SweepSpec sweep(
      ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace).WithLabel("power_of_d"));
  sweep.VarySchedulers({"sparrow", "hawk"})
      .Vary("probe_ratio", {1, 2, 4, 8})
      .Vary("num_workers", SimSizes(paper_sizes));
  const std::vector<SweepRun> runs = Run(sweep, flags);

  PrintHeader(
      "Ablation: power-of-d probing, Sparrow (all jobs) and Hawk (short jobs) "
      "(Google trace, " +
      std::to_string(g.jobs) + " jobs, " + std::to_string(runs.size()) + " sweep points)");
  Table table({"scheduler", "d", "nodes(paper)", "p50 short (s)", "p90 short (s)",
               "p50 long (s)", "probes placed"});
  for (size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& run = runs[i];
    table.AddRow(Cells({{run.spec.scheduler, std::to_string(run.spec.config.probe_ratio),
                         std::to_string(paper_sizes[i % paper_sizes.size()])},
                        Latencies(run.result),
                        {std::to_string(run.result.counters.probes_placed)}}));
  }
  table.Print();
  std::printf("\nd=2 is the paper's choice; larger d trades messaging for placement "
              "quality and saturates quickly.\n");

  return Export(
      flags, runs.size(),
      [&runs](size_t i) {
        const SweepRun& run = runs[i];
        const Samples shorts = run.result.RuntimesSeconds(false);
        const Samples longs = run.result.RuntimesSeconds(true);
        char row[512];
        std::snprintf(row, sizeof(row),
                      "{\"label\": \"%s\", \"scheduler\": \"%s\", \"probe_ratio\": %u, "
                      "\"num_workers\": %u, \"p50_short_s\": %.6f, \"p90_short_s\": %.6f, "
                      "\"p50_long_s\": %.6f, \"p90_long_s\": %.6f, \"median_util\": %.6f}",
                      run.spec.Label().c_str(), run.spec.scheduler.c_str(),
                      run.spec.config.probe_ratio, run.spec.config.num_workers,
                      Pctl(shorts, 50), Pctl(shorts, 90), Pctl(longs, 50), Pctl(longs, 90),
                      run.result.MedianUtilization());
        return std::string(row);
      },
      &runs);
}

// Ablation (extension beyond the paper): steal-retry policy and d-choice
// victim selection.
//
// Hawk's stealing is one bounded round per idle transition (§3.6). This
// ablation lets idle workers retry after a configurable interval and
// measures what that buys: additional short-job improvement at the cost of
// more victim probes (messaging). The sweep runs the grid for both plain
// hawk and the registered "hawk-dchoice" variant (steal sample contacted
// most-loaded-first), so the victim-ordering effect on probe cost is read
// off the same table. Also reports the per-class queueing-delay telemetry
// that explains the effect.
int StealRetry(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  const RunResult base = RunExperiment(g.trace, g.config, "hawk");
  PrintHeader(
      "Ablation: steal retry interval x victim selection, normalized to one-shot "
      "random-victim Hawk (Google trace, 15k-equivalent nodes)");
  Table table({"scheduler", "retry interval", "p50 short", "p90 short", "p50 long",
               "victim probes", "avg short wait (s)"});
  table.AddRow({"hawk", "off (paper)", "1.000", "1.000", "1.000",
                std::to_string(base.counters.steal_victim_probes),
                Table::Num(base.counters.AvgQueueWaitSeconds(false), 1)});

  // Retry interval x victim-selection variant. 0 = the paper's one-shot
  // round, so the d-choice variant also gets a no-retry row.
  std::vector<double> intervals_us;
  for (const double interval_s : {0.0, 100.0, 30.0, 10.0, 3.0, 1.0}) {
    intervals_us.push_back(static_cast<double>(SecondsToUs(interval_s)));
  }
  SweepSpec sweep(ExperimentSpec("hawk").WithConfig(g.config).WithTrace(&g.trace));
  sweep.VarySchedulers({"hawk", "hawk-dchoice"}).Vary("steal_retry_interval_us", intervals_us);
  const std::vector<SweepRun> runs = Run(sweep, flags);
  // The hawk / interval=0 point reproduces `base` exactly; it stays in the
  // table as a sanity row (all ratios print 1.000).
  const std::vector<RunComparison> cmps = CompareTo(runs, base);
  for (size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& run = runs[i];
    const double interval_s = static_cast<double>(run.spec.config.steal_retry_interval_us) / 1e6;
    table.AddRow(Cells({{run.spec.scheduler,
                         interval_s == 0.0 ? "off (paper)" : Table::Num(interval_s, 0) + " s"},
                        Ratios(cmps[i].short_jobs),
                        {Table::Num(cmps[i].long_jobs.p50_ratio),
                         std::to_string(run.result.counters.steal_victim_probes),
                         Table::Num(run.result.counters.AvgQueueWaitSeconds(false), 1)}}));
  }
  table.Print();
  std::printf("\nSmaller ratios = the variant helps; victim probes = messaging cost "
              "(d-choice aims to cut probes per successful steal).\n");
  return 0;
}

// Ablation (extension beyond the paper): arrival-pattern robustness.
//
// The paper evaluates with homogeneous Poisson arrivals; real traces are
// diurnal and bursty. This ablation re-runs the Figure-5-style comparison at
// the 15k-equivalent point under Poisson, diurnal (sinusoidal rate), and
// MMPP bursty arrivals at the SAME mean load, to check that Hawk's advantage
// over Sparrow is not an artifact of smooth arrivals.
int Burstiness(const Flags& flags) {
  const uint32_t jobs = ScaledJobs(flags, 3000);
  const uint64_t seed = Seed(flags, 1);
  const uint32_t workers = SimSize(15000);

  // One job population; each pattern assigns its own arrivals to a copy.
  GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  const Trace base = CapTasksPreserveWork(GenerateGoogleTrace(params), workers / 2);
  const DurationUs mean_interarrival = MeanInterarrivalForUtilization(base, 0.93, workers);
  Trace poisson = base;
  Rng poisson_rng(seed ^ 0x1);
  AssignPoissonArrivals(&poisson, mean_interarrival, &poisson_rng);
  Trace diurnal_trace = base;
  DiurnalParams diurnal;
  diurnal.mean_interarrival_us = mean_interarrival;
  diurnal.amplitude = 0.6;
  diurnal.period_us = mean_interarrival * static_cast<DurationUs>(jobs) / 4;
  Rng diurnal_rng(seed ^ 0x2);
  AssignDiurnalArrivals(&diurnal_trace, diurnal, &diurnal_rng);
  Trace bursty_trace = base;
  BurstyParams bursty;
  bursty.mean_interarrival_us = mean_interarrival;
  bursty.burst_duty = 0.3;
  bursty.burstiness = 3.0;
  bursty.cycle_us = mean_interarrival * 100;
  Rng bursty_rng(seed ^ 0x3);
  AssignBurstyArrivals(&bursty_trace, bursty, &bursty_rng);

  PrintHeader(
      "Ablation: arrival-pattern robustness, Hawk vs Sparrow at equal mean load "
      "(Google trace, 15k-equivalent nodes)");
  const std::vector<std::pair<std::string, const Trace*>> patterns = {
      {"poisson (paper)", &poisson},
      {"diurnal (amp 0.6)", &diurnal_trace},
      {"bursty (mmpp 3x)", &bursty_trace}};
  SweepSpec sweep(ExperimentSpec().WithConfig(GoogleConfig(workers, seed)));
  sweep.VaryTraces(patterns).VarySchedulers({"hawk", "sparrow"});
  const std::vector<RunComparison> cmps = ComparePoints(Run(sweep, flags), 2);

  Table table({"arrivals", "p50 short", "p90 short", "p50 long", "p90 long",
               "sparrow med util"});
  for (size_t i = 0; i < patterns.size(); ++i) {
    table.AddRow(Cells({{patterns[i].first}, Ratios(cmps[i].short_jobs),
                        Ratios(cmps[i].long_jobs), {Table::Pct(cmps[i].baseline_median_util)}}));
  }
  table.Print();
  return 0;
}

// Ablation (beyond the paper): multi-slot and heterogeneous-capacity workers.
//
// "The Power of d Choices in Scheduling for Data Centers with Heterogeneous
// Servers" (PAPERS.md) asks how random placement behaves when servers have
// unequal capacity. Hawk's evaluation assumes identical single-slot machines;
// this sweep holds total slot capacity fixed and redistributes it across
// layouts — many small workers, fewer big multi-slot workers, and mixed
// fleets where an evenly spread fraction of workers is upgraded — for both
// Sparrow and Hawk. Probe placement and steal-victim selection sample the
// slot space, so capacity weights placement automatically; the interesting
// question is what concentrating capacity does to head-of-line blocking and
// tail latencies at equal aggregate throughput.
//
// Layouts (one VaryConfig axis; ~1500 slots at the reference scale):
//   uniform-1x    1500 workers x 1 slot   (the paper's world)
//   uniform-2x     750 workers x 2 slots
//   uniform-4x     375 workers x 4 slots
//   mixed-20pct-4x 937 workers, 20% upgraded to 4 slots (750x1 + 187x4 = 1498)
//
// --json=PATH / --csv=PATH emit machine-readable artifacts like the other
// ablations; CI smoke-runs a reduced-scale grid.
int HeteroSlots(const Flags& flags) {
  const uint32_t ref_workers = SimSize(15000);  // 1500 slots total.
  // Arrivals are calibrated against the reference capacity; the smallest
  // layout (375 workers) caps tasks per job so 2t probes always fit.
  const GoogleSweep g = MakeGoogleSweep(flags, 3000, 1, ref_workers / 4, ref_workers);

  struct Layout {
    const char* name;
    uint32_t workers;
    uint32_t slots;
    double big_fraction;
    uint32_t big_slots;
  };
  const Layout layouts[] = {{"uniform-1x", ref_workers, 1, 0.0, 0},
                            {"uniform-2x", ref_workers / 2, 2, 0.0, 0},
                            {"uniform-4x", ref_workers / 4, 4, 0.0, 0},
                            {"mixed-20pct-4x", ref_workers * 10 / 16, 1, 0.2, 4}};
  Mutators points;
  for (const Layout& layout : layouts) {
    points.emplace_back(layout.name, [layout](HawkConfig& c) {
      c.num_workers = layout.workers;
      c.slots_per_worker = layout.slots;
      c.big_worker_fraction = layout.big_fraction;
      c.big_worker_slots = layout.big_slots;
    });
  }
  SweepSpec sweep(
      ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace).WithLabel("hetero_slots"));
  sweep.VarySchedulers({"sparrow", "hawk"}).VaryConfig("layout", points);
  const std::vector<SweepRun> runs = Run(sweep, flags);

  PrintHeader("Ablation: capacity layout at fixed total slots (Google trace, " +
              std::to_string(g.jobs) + " jobs, " + std::to_string(runs.size()) +
              " sweep points)");
  Table table({"scheduler", "layout", "workers", "p50 short (s)", "p90 short (s)",
               "p50 long (s)", "median util"});
  for (const SweepRun& run : runs) {
    const std::string& label = run.spec.Label();
    table.AddRow(Cells({{run.spec.scheduler, label.substr(label.rfind('/') + 1),
                         std::to_string(run.spec.config.num_workers)},
                        Latencies(run.result),
                        {Table::Num(run.result.MedianUtilization(), 3)}}));
  }
  table.Print();
  std::printf("\nFewer, bigger workers concentrate each FIFO queue over more slots;\n"
              "slot-weighted probing keeps placement capacity-proportional.\n");

  return Export(
      flags, runs.size(),
      [&runs](size_t i) {
        const SweepRun& run = runs[i];
        const HawkConfig& c = run.spec.config;
        const Samples shorts = run.result.RuntimesSeconds(false);
        char row[512];
        std::snprintf(row, sizeof(row),
                      "{\"label\": \"%s\", \"scheduler\": \"%s\", \"num_workers\": %u, "
                      "\"slots_per_worker\": %u, \"big_worker_fraction\": %.3f, "
                      "\"big_worker_slots\": %u, \"p50_short_s\": %.6f, \"p90_short_s\": %.6f, "
                      "\"p50_long_s\": %.6f, \"median_util\": %.6f}",
                      run.spec.Label().c_str(), run.spec.scheduler.c_str(), c.num_workers,
                      c.slots_per_worker, c.big_worker_fraction, c.big_worker_slots,
                      Pctl(shorts, 50), Pctl(shorts, 90),
                      Pctl(run.result.RuntimesSeconds(true), 50),
                      run.result.MedianUtilization());
        return std::string(row);
      },
      &runs);
}

// Ablation (beyond the paper): scheduler robustness under injected faults.
//
// Hawk's evaluation assumes a healthy cluster; the fault layer asks how each
// policy degrades when workers fail-stop and the network loses messages.
// The sweep grids worker_crash_rate x message_loss_rate over EVERY scheduler
// in the registry, in both executors: the deterministic simulator and — at a
// tiny wall-clock scale (--proto=0 skips it) — the threaded prototype, whose
// crashes are real silent node monitors recovered by timeout re-dispatch.
//
// Crash rates are expressed as expected crashes per worker over the trace's
// LONGEST task: a rate much above ~1/longest_task makes the tail restart
// forever (true on a real cluster too), so sweeping that dimensionless
// multiple keeps the grid meaningful at any --scale.
//
// scripts/bench.sh runs this with --json=BENCH_faults.json.
int Faults(const Flags& flags) {
  struct Row {
    std::string executor;
    std::string scheduler;
    double crash_rate = 0.0;
    double loss_rate = 0.0;
    RunResult result;
  };
  const uint32_t workers = SimSize(10000);
  GoogleSweep g = MakeGoogleSweep(flags, 1200, 3, workers, workers, 0.85);
  const std::vector<std::string> schedulers = SchedulerRegistry::Global().Names();
  const double longest_s = static_cast<double>(LongestTaskUs(g.trace)) / 1e6;
  // Crash-rate axis: {0, 0.1, 0.3} expected crashes per worker per
  // longest-task; loss axis in absolute drop probability.
  std::vector<double> crash_rates;
  for (const double multiple : {0.0, 0.1, 0.3}) {
    crash_rates.push_back(multiple / longest_s);
  }
  g.config.worker_downtime_us = SecondsToUs(30.0);
  g.config.message_delay_jitter_us = 500;
  g.config.fault_seed = kFaultSeed;

  PrintHeader(
      "Ablation: fault injection — crash rate x loss rate x every registered "
      "scheduler (" +
      std::to_string(g.jobs) + "-job Google sample, " + std::to_string(workers) +
      " workers, longest task " + std::to_string(longest_s) + " s)");

  SweepSpec sweep(ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace));
  sweep.VarySchedulers(schedulers)
      .Vary("worker_crash_rate", crash_rates)
      .Vary("message_loss_rate", {0.0, 0.05, 0.2});
  std::vector<Row> rows;
  for (const SweepRun& run : Run(sweep, flags)) {
    rows.push_back({"sim", run.spec.scheduler, run.spec.config.worker_crash_rate,
                    run.spec.config.message_loss_rate, run.result});
  }

  // Real crashes on the threaded runtime, healthy vs crashing at ~0.3
  // expected crashes per worker per longest task — the same dimensionless
  // point as the sim's middle crash setting.
  if (flags.GetInt("proto", 1) != 0) {
    const Trace proto_trace = ProtoTrace(flags, g.seed, 40, 6.0);
    const double proto_longest_s = static_cast<double>(LongestTaskUs(proto_trace)) / 1e6;
    for (const std::string& scheduler : schedulers) {
      for (const double crash_multiple : {0.0, 0.3}) {
        HawkConfig point = ProtoConfig(g.seed);
        point.worker_downtime_us = 200'000;
        point.worker_crash_rate = crash_multiple / proto_longest_s;
        const Row& row = rows.emplace_back(Row{"prototype", scheduler, point.worker_crash_rate,
                                               0.0, RunProto(proto_trace, scheduler, point)});
        std::printf("  [prototype %s crash=%.2e done: %zu jobs, %llu crashes]\n",
                    scheduler.c_str(), row.crash_rate, row.result.jobs.size(),
                    static_cast<unsigned long long>(row.result.counters.worker_crashes));
      }
    }
  }

  std::printf("\n");
  Table table({"executor", "scheduler", "crash rate (/w/s)", "loss", "p50 short (s)",
               "p90 short (s)", "crashes", "dropped", "re-disp", "wasted (s)"});
  for (const Row& row : rows) {
    const Samples shorts = row.result.RuntimesSeconds(false);
    const RunCounters& c = row.result.counters;
    char crash[32];
    std::snprintf(crash, sizeof(crash), "%.2e", row.crash_rate);
    table.AddRow({row.executor, row.scheduler, crash, Table::Num(row.loss_rate, 2),
                  Table::Num(Pctl(shorts, 50), 1), Table::Num(Pctl(shorts, 90), 1),
                  std::to_string(c.worker_crashes), std::to_string(c.messages_dropped),
                  std::to_string(c.tasks_re_dispatched),
                  Table::Num(static_cast<double>(c.wasted_work_us) / 1e6, 1)});
  }
  table.Print();
  std::printf("\nLate binding re-probes around losses; the waiting-time queue absorbs\n"
              "re-dispatched long tasks — degradation stays graceful until the crash\n"
              "rate nears 1/longest_task, where tail restarts dominate.\n");

  return Export(flags, rows.size(), [&rows](size_t i) {
    const Row& row = rows[i];
    const Samples shorts = row.result.RuntimesSeconds(false);
    const RunCounters& c = row.result.counters;
    char text[640];
    std::snprintf(text, sizeof(text),
                  "{\"executor\": \"%s\", \"scheduler\": \"%s\", \"crash_rate\": %.3e, "
                  "\"loss_rate\": %.3f, \"p50_short_s\": %.6f, \"p90_short_s\": %.6f, "
                  "\"p50_long_s\": %.6f, \"crashes\": %llu, \"rejoins\": %llu, "
                  "\"dropped\": %llu, \"re_dispatched\": %llu, \"duplicates\": %llu, "
                  "\"wasted_work_us\": %llu, \"makespan_us\": %llu}",
                  row.executor.c_str(), row.scheduler.c_str(), row.crash_rate, row.loss_rate,
                  Pctl(shorts, 50), Pctl(shorts, 90), Pctl(row.result.RuntimesSeconds(true), 50),
                  static_cast<unsigned long long>(c.worker_crashes),
                  static_cast<unsigned long long>(c.worker_rejoins),
                  static_cast<unsigned long long>(c.messages_dropped),
                  static_cast<unsigned long long>(c.tasks_re_dispatched),
                  static_cast<unsigned long long>(c.duplicate_completions),
                  static_cast<unsigned long long>(c.wasted_work_us),
                  static_cast<unsigned long long>(row.result.makespan_us));
    return std::string(text);
  });
}

// Per-job degradation against the matched zero-rate baseline. Both results
// come from the same trace and are sorted by job id, so rows pair up.
Samples NormalizedRuntimes(const RunResult& run, const RunResult& base) {
  Samples samples;
  const size_t n = std::min(run.jobs.size(), base.jobs.size());
  for (size_t i = 0; i < n; ++i) {
    if (base.jobs[i].runtime_us > 0) {
      samples.Add(static_cast<double>(run.jobs[i].runtime_us) /
                  static_cast<double>(base.jobs[i].runtime_us));
    }
  }
  return samples;
}

// Ablation (beyond the paper): scheduler robustness under straggling tasks.
//
// Crash injection models workers that die; stragglers model the quieter
// failure mode the Hawk evaluation never exercises — a task whose execution
// silently drags N x its duration on a node that stays alive and responsive.
// The sweep grids straggler_rate over EVERY registered scheduler (the
// "hawk-spec" variant shows what speculative re-execution buys back), in
// both executors: the deterministic simulator and — at a tiny wall-clock
// scale (--proto=0 skips it) — the threaded prototype, where a stricken
// executor slot really sleeps slowdown x the nominal duration.
//
// The headline metric is the NORMALIZED runtime: each job's runtime divided
// by the same job's runtime in the zero-straggler run of the same scheduler,
// so p50/p99 read directly as degradation factors (1.0 = unharmed). A
// scheduler that keeps p99 near 1.0 as the rate climbs is absorbing
// stragglers; one whose p99 tracks the slowdown factor is hostage to them.
//
// scripts/bench.sh runs this with --json=BENCH_stragglers.json.
int Stragglers(const Flags& flags) {
  struct Row {
    std::string executor;
    std::string scheduler;
    double straggler_rate = 0.0;
    RunResult result;
    double p50_norm = 0.0;
    double p99_norm = 0.0;
  };
  // Adds `result` normalized to `base` to the table rows.
  std::vector<Row> rows;
  const auto add_row = [&rows](std::string executor, std::string scheduler, double rate,
                               const RunResult& result, const RunResult& base) {
    Row& row = rows.emplace_back(Row{std::move(executor), std::move(scheduler), rate, result});
    const Samples norm = NormalizedRuntimes(result, base);
    row.p50_norm = Pctl(norm, 50);
    row.p99_norm = Pctl(norm, 99);
  };
  const uint32_t workers = SimSize(10000);
  constexpr double kSlowdown = 8.0;
  GoogleSweep g = MakeGoogleSweep(flags, 1200, 3, workers, workers, 0.85);
  const std::vector<std::string> schedulers = SchedulerRegistry::Global().Names();
  g.config.straggler_slowdown_factor = kSlowdown;
  g.config.fault_seed = kFaultSeed;

  PrintHeader("Ablation: stragglers — rate x every registered scheduler at " +
              std::to_string(kSlowdown) + "x slowdown (" + std::to_string(g.jobs) +
              "-job Google sample, " + std::to_string(workers) + " workers)");

  SweepSpec sweep(ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace));
  sweep.VarySchedulers(schedulers).Vary("straggler_rate", {0.0, 0.05, 0.2});
  const std::vector<SweepRun> runs = Run(sweep, flags);
  // Each scheduler's zero-rate run is its baseline.
  std::map<std::string, const RunResult*> baselines;
  for (const SweepRun& run : runs) {
    if (run.spec.config.straggler_rate == 0.0) {
      baselines.emplace(run.spec.scheduler, &run.result);
    }
  }
  for (const SweepRun& run : runs) {
    add_row("sim", run.spec.scheduler, run.spec.config.straggler_rate, run.result,
            *baselines.at(run.spec.scheduler));
  }

  // Real slowdowns on the threaded runtime: a stricken sleep task actually
  // sleeps 4x longer. Healthy vs rate 0.2, every registered scheduler.
  if (flags.GetInt("proto", 1) != 0) {
    const Trace proto_trace = ProtoTrace(flags, g.seed, 30, 4.0);
    for (const std::string& scheduler : schedulers) {
      std::vector<std::pair<double, RunResult>> proto_runs;
      for (const double rate : {0.0, 0.2}) {
        HawkConfig point = ProtoConfig(g.seed);
        point.straggler_rate = rate;
        point.straggler_slowdown_factor = 4.0;
        const RunResult& result =
            proto_runs.emplace_back(rate, RunProto(proto_trace, scheduler, point)).second;
        std::printf("  [prototype %s rate=%.2f done: %zu jobs, %llu us wasted]\n",
                    scheduler.c_str(), rate, result.jobs.size(),
                    static_cast<unsigned long long>(result.counters.wasted_work_us));
      }
      for (const auto& [rate, result] : proto_runs) {
        add_row("prototype", scheduler, rate, result, proto_runs.front().second);
      }
    }
  }

  std::printf("\n");
  Table table({"executor", "scheduler", "rate", "p50 norm", "p99 norm", "speculated",
               "spec wins", "wasted (s)"});
  for (const Row& row : rows) {
    const RunCounters& c = row.result.counters;
    table.AddRow({row.executor, row.scheduler, Table::Num(row.straggler_rate, 2),
                  Table::Num(row.p50_norm, 3), Table::Num(row.p99_norm, 3),
                  std::to_string(c.tasks_speculated), std::to_string(c.speculative_wins),
                  Table::Num(static_cast<double>(c.wasted_work_us) / 1e6, 1)});
  }
  table.Print();
  std::printf("\nStealing drains the queues stragglers leave behind and the waiting-time\n"
              "queue routes around slow-draining workers, so hawk's p99 degrades slower\n"
              "than sparrow's; hawk-spec additionally caps the straggler itself by\n"
              "racing a duplicate against it (at the spec_wasted_us cost shown).\n");

  return Export(flags, rows.size(), [&rows](size_t i) {
    const Row& row = rows[i];
    const Samples shorts = row.result.RuntimesSeconds(false);
    const RunCounters& c = row.result.counters;
    char text[640];
    std::snprintf(text, sizeof(text),
                  "{\"executor\": \"%s\", \"scheduler\": \"%s\", \"straggler_rate\": %.3f, "
                  "\"p50_norm\": %.4f, \"p99_norm\": %.4f, \"p50_short_s\": %.6f, "
                  "\"p99_short_s\": %.6f, \"speculated\": %llu, \"spec_wins\": %llu, "
                  "\"spec_wasted_us\": %llu, \"wasted_work_us\": %llu, "
                  "\"re_dispatched\": %llu, \"abandoned\": %llu, \"makespan_us\": %llu}",
                  row.executor.c_str(), row.scheduler.c_str(), row.straggler_rate,
                  row.p50_norm, row.p99_norm, Pctl(shorts, 50), Pctl(shorts, 99),
                  static_cast<unsigned long long>(c.tasks_speculated),
                  static_cast<unsigned long long>(c.speculative_wins),
                  static_cast<unsigned long long>(c.speculative_wasted_us),
                  static_cast<unsigned long long>(c.wasted_work_us),
                  static_cast<unsigned long long>(c.tasks_re_dispatched),
                  static_cast<unsigned long long>(c.tasks_abandoned),
                  static_cast<unsigned long long>(row.result.makespan_us));
    return std::string(text);
  });
}

}  // namespace

std::vector<Figure> AblationFigures() {
  return {
      {"ablation-partition-size", "short-partition size sweep (§3.4 rule)", PartitionSize},
      {"ablation-probe-ratio", "Sparrow and Hawk across probe ratios", ProbeRatio},
      {"ablation-power-of-d", "probe ratio d x cluster size (--json, --csv)", PowerOfD},
      {"ablation-steal-retry", "steal retry interval x victim selection", StealRetry},
      {"ablation-burstiness", "Poisson vs diurnal vs bursty arrivals", Burstiness},
      {"ablation-hetero-slots", "capacity layouts at fixed total slots (--json, --csv)",
       HeteroSlots},
      {"ablation-faults", "crash rate x loss rate x every scheduler (--json, --proto)", Faults},
      {"ablation-stragglers", "straggler rate x every scheduler (--json, --proto)", Stragglers},
  };
}

}  // namespace hawk::figures
