// The paper's own figures and tables (§2 and §4.2–§4.9) as figure-table
// entries. Figures 16–17 (prototype vs simulation) live in
// figures_prototype.cc.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/figures.h"
#include "src/metrics/report.h"
#include "src/workload/cluster_workloads.h"
#include "src/workload/google_trace.h"
#include "src/workload/trace_stats.h"

namespace hawk::figures {
namespace {

// Paper cluster sizes of the Google-trace size sweeps (Figs. 5, 8–11).
const std::vector<uint32_t> kPaperSizes = {10000, 15000, 20000, 25000, 30000,
                                           35000, 40000, 45000, 50000};

// The four §4.1 workloads with the values the paper reports for them.
struct PaperWorkload {
  const char* name;
  double pct_long;          // Table 1: % of jobs that are long.
  double pct_task_seconds;  // Table 1: % of task-seconds in long jobs.
  uint32_t jobs;            // Table 2: trace size.
};
constexpr PaperWorkload kWorkloads[] = {{"google-2011", 10.00, 83.65, 506460},
                                        {"cloudera-c", 5.02, 92.79, 21030},
                                        {"facebook-2010", 2.01, 99.79, 1169184},
                                        {"yahoo-2011", 9.41, 98.31, 24262}};

// Workload `i` of kWorkloads at `jobs` jobs; `is_long` receives its classes
// (the Google cutoff, the generators' cluster labels for the others).
Trace GenerateWorkload(size_t i, uint32_t jobs, uint64_t seed, LongJobPredicate* is_long) {
  if (i == 0) {
    GoogleTraceParams params;
    params.num_jobs = jobs;
    params.seed = seed;
    *is_long = LongByCutoff(SecondsToUs(1129.0));
    return GenerateGoogleTrace(params);
  }
  *is_long = LongByHint();
  return GenerateClusterWorkload(i == 1   ? ClouderaParams(jobs, seed)
                                 : i == 2 ? FacebookParams(jobs, seed)
                                          : YahooParams(jobs, seed));
}

// Figure 1 (§2.3): CDF of short-job runtime under Sparrow in a loaded,
// heterogeneous cluster — the motivating head-of-line-blocking experiment.
//
// Paper scenario: 15000 servers, 1000 jobs, 95% short (100 tasks x 100 s),
// 5% long (1000 tasks x 20000 s), Poisson arrivals with 50 s mean. Median
// utilization 86%, max 97.8%; yet "a large fraction of short jobs exhibit
// runtimes of more than 15000 seconds, far in excess of their [100 s]
// execution time". Simulated here at 1/10 scale (1500 workers, long jobs
// scaled to 100 tasks with durations unchanged), which preserves the
// offered-load ratio.
int Fig1(const Flags& flags) {
  const uint32_t jobs = ScaledJobs(flags, 1000);
  const uint32_t workers = SimSize(15000);
  const uint64_t seed = Seed(flags, 42);
  HawkConfig config;
  config.num_workers = workers;
  config.seed = seed;
  const RunResult run =
      RunExperiment(GenerateMotivationTrace(jobs, 0.1, seed), config, "sparrow");

  PrintHeader("Figure 1: short-job runtime CDF under Sparrow, loaded cluster (" +
              std::to_string(jobs) + " jobs, " + std::to_string(workers) + " workers)");
  const Samples short_runtimes = run.RuntimesSeconds(/*long_jobs=*/false);
  PrintCdf("short job runtime (seconds); execution time alone would be 100 s", short_runtimes,
           20);
  std::printf("\nmedian cluster utilization: %.1f%% (paper: 86%%)\n",
              run.MedianUtilization() * 100.0);
  std::printf("max cluster utilization:    %.1f%% (paper: 97.8%%)\n",
              run.MaxUtilization() * 100.0);
  std::printf("short jobs with runtime > 15000 s: %.1f%% (paper: \"a large fraction\")\n",
              (1.0 - short_runtimes.CdfAt(15000.0)) * 100.0);
  return 0;
}

// Figure 4 (a-d): workload properties — CDFs of average task duration per job
// and of the number of tasks per job, for long and short jobs, across the
// four workloads.
//
// Paper ranges: long task durations reach ~15000 s (4a); short durations stay
// below ~800 s (4b); long jobs reach thousands of tasks (4c); short jobs stay
// below ~180 tasks (4d).
int Fig4(const Flags& flags) {
  const uint32_t jobs = ScaledJobs(flags, 6000);
  const uint64_t seed = Seed(flags, 7);
  constexpr size_t kPoints = 10;

  PrintHeader("Figure 4: workload properties (" + std::to_string(jobs) +
              " jobs per workload)");
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    LongJobPredicate is_long;
    const Trace trace = GenerateWorkload(i, jobs, seed, &is_long);
    const WorkloadCdfs cdfs = ComputeCdfs(trace, is_long);
    const std::string name = kWorkloads[i].name;
    std::printf("\n--- %s ---\n", name.substr(0, name.find('-')).c_str());
    PrintCdf("Fig 4a: avg task duration per job (s), long jobs", cdfs.long_avg_task_duration_s,
             kPoints);
    PrintCdf("Fig 4b: avg task duration per job (s), short jobs",
             cdfs.short_avg_task_duration_s, kPoints);
    PrintCdf("Fig 4c: tasks per job, long jobs", cdfs.long_tasks_per_job, kPoints);
    PrintCdf("Fig 4d: tasks per job, short jobs", cdfs.short_tasks_per_job, kPoints);
  }
  return 0;
}

// Figure 5 (a, b, c): Hawk normalized to Sparrow on the Google trace, as a
// function of cluster size.
//
// Paper series:
//   5a: 50th/90th percentile runtime ratio, long jobs + Sparrow median util.
//   5b: 50th/90th percentile runtime ratio, short jobs + Sparrow median util.
//   5c: fraction of jobs Hawk improves (>=) and average runtime ratio, both
//       classes.
// Paper results to compare against: at high-but-not-saturated load
// (15k-25k nodes) Hawk improves short p50 by up to 80% and p90 by up to 90%;
// long jobs improve up to 35% (p50) / 10% (p90); under overload (10k) Hawk is
// slightly worse for long jobs; at 40k+ both converge.
int Fig5(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  PrintHeader("Figure 5: Hawk normalized to Sparrow, Google trace (" + std::to_string(g.jobs) +
              " jobs; sizes are paper-equivalent, simulated at 1/10 scale)");

  SweepSpec sweep(ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace));
  sweep.Vary("num_workers", SimSizes(kPaperSizes)).VarySchedulers({"hawk", "sparrow"});
  const std::vector<RunComparison> cmps = ComparePoints(Run(sweep, flags), 2);

  Table fig5a({"nodes(paper)", "p50 long", "p90 long", "sparrow med util"});
  Table fig5b({"nodes(paper)", "p50 short", "p90 short", "sparrow med util"});
  Table fig5c({"nodes(paper)", "frac long improved", "avg ratio long", "frac short improved",
               "avg ratio short"});
  for (size_t i = 0; i < kPaperSizes.size(); ++i) {
    const RunComparison& cmp = cmps[i];
    const std::string nodes = std::to_string(kPaperSizes[i]);
    const std::string util = Table::Pct(cmp.baseline_median_util);
    fig5a.AddRow(Cells({{nodes}, Ratios(cmp.long_jobs), {util}}));
    fig5b.AddRow(Cells({{nodes}, Ratios(cmp.short_jobs), {util}}));
    fig5c.AddRow({nodes, Table::Pct(cmp.long_jobs.fraction_improved_or_equal),
                  Table::Num(cmp.long_jobs.avg_ratio),
                  Table::Pct(cmp.short_jobs.fraction_improved_or_equal),
                  Table::Num(cmp.short_jobs.avg_ratio)});
  }
  std::printf("\nFigure 5a: long jobs (ratios < 1 mean Hawk is better)\n");
  fig5a.Print();
  std::printf("\nFigure 5b: short jobs\n");
  fig5b.Print();
  std::printf("\nFigure 5c: additional metrics\n");
  fig5c.Print();
  return 0;
}

// Figure 6 (a, b, c): Hawk normalized to Sparrow on the Cloudera, Facebook
// and Yahoo traces — 90th percentile runtimes for long and short jobs across
// cluster sizes.
//
// Paper observations: "Hawk's benefits hold across all traces", with larger
// short-job improvements than on the Google trace because the short
// partitions are less utilized, so there are more chances for stealing.
// Short partitions (§4.1): Cloudera 9%, Facebook 2%, Yahoo 2%. Long/short
// classes come from the generator's cluster labels (§4.1). Cluster sizes are
// the paper's divided by 10.
int Fig6(const Flags& flags) {
  const uint32_t jobs = ScaledJobs(flags, 3000);
  const uint64_t seed = Seed(flags, 2);
  struct TraceSpec {
    const char* name;
    ClusterWorkloadParams params;
    double short_partition_fraction;
    std::vector<uint32_t> paper_sizes;
  };
  const TraceSpec specs[] = {
      {"cloudera (Fig 6a)", ClouderaParams(jobs, seed), 0.09,
       {15000, 20000, 25000, 30000, 35000, 40000, 45000, 50000}},
      {"facebook (Fig 6b)", FacebookParams(jobs, seed), 0.02,
       {70000, 90000, 110000, 130000, 150000, 170000}},
      {"yahoo (Fig 6c)", YahooParams(jobs, seed), 0.02,
       {5000, 7000, 9000, 11000, 13000, 15000, 17000, 19000}}};

  PrintHeader("Figure 6: Hawk normalized to Sparrow, Cloudera/Facebook/Yahoo traces (" +
              std::to_string(jobs) + " jobs each; paper-equivalent sizes, 1/10 scale)");
  for (const TraceSpec& spec : specs) {
    // Unlike Fig. 5 (whose 10k point is deliberately overloaded, §4.2), the
    // Fig. 6 sweeps start at "highly loaded but not overloaded": calibrate
    // the offered load (90%) at the smallest cluster of each sweep.
    const uint32_t min_workers = SimSize(spec.paper_sizes.front());
    const Trace trace = PrepareSweepTrace(GenerateClusterWorkload(spec.params), seed,
                                          min_workers, min_workers, 0.9);
    HawkConfig base;
    base.short_partition_fraction = spec.short_partition_fraction;
    base.classify_mode = ClassifyMode::kHint;
    base.seed = seed;
    SweepSpec sweep(ExperimentSpec().WithConfig(base).WithTrace(&trace));
    sweep.Vary("num_workers", SimSizes(spec.paper_sizes)).VarySchedulers({"hawk", "sparrow"});
    const std::vector<RunComparison> cmps = ComparePoints(Run(sweep, flags), 2);

    Table table({"nodes(paper)", "p90 long", "p90 short", "sparrow med util", "short part util"});
    for (size_t i = 0; i < spec.paper_sizes.size(); ++i) {
      table.AddRow({std::to_string(spec.paper_sizes[i]), Table::Num(cmps[i].long_jobs.p90_ratio),
                    Table::Num(cmps[i].short_jobs.p90_ratio),
                    Table::Pct(cmps[i].baseline_median_util),
                    Table::Pct(cmps[i].treatment_median_util)});
    }
    std::printf("\n--- %s, short partition %.0f%% ---\n", spec.name,
                spec.short_partition_fraction * 100.0);
    table.Print();
  }
  return 0;
}

// Figure 7 (§4.4): break-down of Hawk's benefits — job runtimes of Hawk with
// one component disabled, normalized to full Hawk. Google trace, 15k nodes.
//
// Paper observations:
//   - without centralized scheduling, long jobs take a significant hit and
//     short jobs improve slightly;
//   - without the partition, short jobs suffer and long jobs improve a bit;
//   - without stealing, both suffer, short jobs dramatically.
int Fig7(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  const RunResult full = RunExperiment(g.trace, g.config, "hawk");
  PrintHeader(
      "Figure 7: component breakdown, normalized to full Hawk (Google trace, "
      "15k-equivalent nodes, " +
      std::to_string(g.jobs) + " jobs; >1 means worse than Hawk)");

  SweepSpec sweep(ExperimentSpec("hawk").WithConfig(g.config).WithTrace(&g.trace));
  sweep.VaryConfig(
      "variant",
      {{"hawk w/out centralized", [](HawkConfig& c) { c.use_centralized_long = false; }},
       {"hawk w/out partition", [](HawkConfig& c) { c.short_partition_fraction = 0.0; }},
       {"hawk w/out stealing", [](HawkConfig& c) { c.steal_cap = 0; }}});
  const std::vector<SweepRun> runs = Run(sweep, flags);
  const std::vector<RunComparison> cmps = CompareTo(runs, full);

  Table table({"variant", "p50 short", "p90 short", "p50 long", "p90 long"});
  for (size_t i = 0; i < runs.size(); ++i) {
    // "hawk/<variant>" -> "<variant>" for the table row.
    const std::string& label = runs[i].spec.Label();
    table.AddRow(Cells({{label.substr(label.find('/') + 1)}, Ratios(cmps[i].short_jobs),
                        Ratios(cmps[i].long_jobs)}));
  }
  table.Print();
  return 0;
}

// Figures 8 & 9 (§4.5): Hawk normalized to a fully centralized scheduler
// (the §3.7 algorithm applied to all jobs, whole cluster, no partition, no
// stealing). Google trace, cluster-size sweep. The "(lb)" columns are the
// late-binding hybrid variant (hawk-latebind, §3.5).
//
// Paper observations: the centralized scheduler penalizes short jobs under
// heavy load (Hawk ratio < 1 at 10k-15k, converging at 50k); for long jobs
// the centralized approach is slightly better because they can use the whole
// cluster (Hawk ratio slightly > 1).
int Fig8To9(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  SweepSpec sweep(ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace));
  sweep.Vary("num_workers", SimSizes(kPaperSizes))
      .VarySchedulers({"hawk", "hawk-latebind", "centralized"});
  const std::vector<RunComparison> cmps = ComparePoints(Run(sweep, flags), 3);

  PrintHeader("Figures 8-9: Hawk normalized to fully centralized (Google trace, " +
              std::to_string(g.jobs) + " jobs)");
  Table fig8({"nodes(paper)", "p50 short", "p90 short", "p50 short(lb)", "p90 short(lb)"});
  Table fig9({"nodes(paper)", "p50 long", "p90 long", "p50 long(lb)", "p90 long(lb)"});
  for (size_t i = 0; i < kPaperSizes.size(); ++i) {
    const RunComparison& hawk = cmps[2 * i];
    const RunComparison& lb = cmps[2 * i + 1];
    const std::string nodes = std::to_string(kPaperSizes[i]);
    fig8.AddRow(Cells({{nodes}, Ratios(hawk.short_jobs), Ratios(lb.short_jobs)}));
    fig9.AddRow(Cells({{nodes}, Ratios(hawk.long_jobs), Ratios(lb.long_jobs)}));
  }
  std::printf("\nFigure 8: short jobs (Hawk better where < 1)\n");
  fig8.Print();
  std::printf("\nFigure 9: long jobs (centralized slightly better => ratios slightly > 1)\n");
  fig9.Print();
  return 0;
}

// Figures 10 & 11 (§4.6): Hawk normalized to a split cluster — disjoint long
// (83%, centralized) and short (17%, distributed) partitions, no stealing,
// no shared general partition. Google trace, cluster-size sweep.
//
// Paper observations: Hawk fares significantly better for short jobs (the
// split cluster's short partition cannot use idle general capacity and shows
// "extreme degradation" at intermediate sizes), while the split cluster is
// slightly better for long jobs (no short tasks in its long partition).
int Fig10To11(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  PrintHeader("Figures 10-11: Hawk normalized to split cluster (Google trace, " +
              std::to_string(g.jobs) + " jobs; 17%/83% split)");
  SweepSpec sweep(ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace));
  sweep.Vary("num_workers", SimSizes(kPaperSizes)).VarySchedulers({"hawk", "split"});
  const std::vector<RunComparison> cmps = ComparePoints(Run(sweep, flags), 2);

  Table fig10({"nodes(paper)", "p50 short", "p90 short"});
  Table fig11({"nodes(paper)", "p50 long", "p90 long"});
  for (size_t i = 0; i < kPaperSizes.size(); ++i) {
    const std::string nodes = std::to_string(kPaperSizes[i]);
    fig10.AddRow(Cells({{nodes}, Ratios(cmps[i].short_jobs)}));
    fig11.AddRow(Cells({{nodes}, Ratios(cmps[i].long_jobs)}));
  }
  std::printf("\nFigure 10: short jobs (Hawk much better at intermediate sizes)\n");
  fig10.Print();
  std::printf("\nFigure 11: long jobs (split slightly better => ratios slightly > 1)\n");
  fig11.Print();
  return 0;
}

// Figures 12 & 13 (§4.7): sensitivity to the long/short cutoff threshold.
// Hawk normalized to Sparrow on the Google trace at 15k-equivalent nodes,
// with the cutoff swept over {750, 1000, 1129, 1300, 1500, 2000} seconds.
//
// Paper observations: Hawk yields benefits over the whole range. Smaller
// cutoffs classify more jobs as long, loading the general partition and
// affecting the long p90; larger cutoffs classify more jobs as short,
// leaving the short partition underloaded with more stealing opportunity.
// Both runs of each pair use the cutoff-consistent job classes for metrics:
// Sparrow schedules all jobs identically, the cutoff only decides which of
// its jobs are *reported* as long.
int Fig12To13(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  const std::vector<uint32_t> cutoffs_s = {750, 1000, 1129, 1300, 1500, 2000};
  PrintHeader(
      "Figures 12-13: cutoff sensitivity, Hawk normalized to Sparrow (Google trace, "
      "15k-equivalent nodes, " +
      std::to_string(g.jobs) + " jobs)");

  std::vector<double> cutoffs_us;
  for (const uint32_t cutoff_s : cutoffs_s) {
    cutoffs_us.push_back(static_cast<double>(SecondsToUs(cutoff_s)));
  }
  SweepSpec sweep(ExperimentSpec().WithConfig(g.config).WithTrace(&g.trace));
  sweep.Vary("cutoff_us", cutoffs_us).VarySchedulers({"hawk", "sparrow"});
  const std::vector<RunComparison> cmps = ComparePoints(Run(sweep, flags), 2);

  Table fig12({"cutoff (s)", "% jobs long", "p50 long", "p90 long"});
  Table fig13({"cutoff (s)", "p50 short", "p90 short"});
  for (size_t i = 0; i < cutoffs_s.size(); ++i) {
    const RunComparison& cmp = cmps[i];
    const std::string cutoff = std::to_string(cutoffs_s[i]);
    const double pct_long = 100.0 * static_cast<double>(cmp.long_jobs.jobs) /
                            static_cast<double>(cmp.long_jobs.jobs + cmp.short_jobs.jobs);
    fig12.AddRow(Cells({{cutoff, Table::Num(pct_long, 1)}, Ratios(cmp.long_jobs)}));
    fig13.AddRow(Cells({{cutoff}, Ratios(cmp.short_jobs)}));
  }
  std::printf("\nFigure 12: long jobs\n");
  fig12.Print();
  std::printf("\nFigure 13: short jobs\n");
  fig13.Print();
  return 0;
}

// Figure 14 (§4.8): sensitivity to task runtime mis-estimation. Each job's
// estimate is multiplied by a uniform random factor from ranges 0.1-1.9
// through 0.7-1.3; results are long-job runtimes normalized to Sparrow,
// averaged over several seeds (the paper averages ten runs), for the set of
// jobs classified as long *without* mis-estimation.
//
// Paper observation: Hawk is robust; opposing mis-classifications cancel,
// and at 15k nodes long jobs even improve slightly at the 90th percentile
// with larger noise because long-classified-as-short jobs benefit from the
// less-loaded short partition.
int Fig14(const Flags& flags) {
  const GoogleSweep g = MakeGoogleSweep(flags);
  constexpr size_t kRuns = 5;
  PrintHeader(
      "Figure 14: mis-estimation sensitivity, long jobs, Hawk normalized to Sparrow "
      "(Google trace, 15k-equivalent nodes, avg of " +
      std::to_string(kRuns) + " runs)");
  const RunResult sparrow = RunExperiment(g.trace, g.config, "sparrow");

  // Noise ranges x repeated seeds as one grid (ranges slowest).
  std::vector<std::pair<std::string, SweepSpec::ConfigMutator>> noise;
  const std::pair<double, double> ranges[] = {{0.1, 1.9}, {0.2, 1.8}, {0.3, 1.7}, {0.4, 1.6},
                                              {0.5, 1.5}, {0.6, 1.4}, {0.7, 1.3}};
  for (const auto& [lo, hi] : ranges) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f-%.1f", lo, hi);
    noise.emplace_back(label, [lo = lo, hi = hi](HawkConfig& c) {
      c.estimate_noise_lo = lo;
      c.estimate_noise_hi = hi;
    });
  }
  std::vector<double> run_seeds;
  for (size_t r = 0; r < kRuns; ++r) {
    run_seeds.push_back(static_cast<double>(g.seed + r * 7919));
  }
  SweepSpec sweep(ExperimentSpec("hawk").WithConfig(g.config).WithTrace(&g.trace));
  sweep.VaryConfig("noise", noise).Vary("seed", run_seeds);
  // Metrics classification inside the runs is noise-free (Fig. 14
  // protocol), so CompareRuns groups by the unperturbed classes.
  const std::vector<RunComparison> cmps = CompareTo(Run(sweep, flags), sparrow);

  Table table({"misestimation", "p50 long", "p90 long"});
  for (size_t i = 0; i < noise.size(); ++i) {
    double p50_sum = 0.0;
    double p90_sum = 0.0;
    for (size_t r = 0; r < kRuns; ++r) {
      p50_sum += cmps[i * kRuns + r].long_jobs.p50_ratio;
      p90_sum += cmps[i * kRuns + r].long_jobs.p90_ratio;
    }
    table.AddRow({noise[i].first, Table::Num(p50_sum / static_cast<double>(kRuns)),
                  Table::Num(p90_sum / static_cast<double>(kRuns))});
  }
  table.Print();
  return 0;
}

// Figure 15 (§4.9): sensitivity to the number of stealing attempts. Hawk
// with the per-idle-transition victim cap swept over 1..250, normalized to
// Hawk with cap 1, short jobs, Google trace at 15k-equivalent nodes.
//
// Paper observation: performance increases with the cap, but even a low
// value (10) gives a significant benefit.
int Fig15(const Flags& flags) {
  GoogleSweep g = MakeGoogleSweep(flags);
  const std::vector<double> caps = {1, 2, 3, 4, 5, 10, 15, 20, 25, 50, 75, 100, 250};
  PrintHeader(
      "Figure 15: stealing-attempt cap, short jobs, normalized to cap=1 (Google trace, "
      "15k-equivalent nodes, " +
      std::to_string(g.jobs) + " jobs)");

  g.config.steal_cap = 1;
  const RunResult cap1 = RunExperiment(g.trace, g.config, "hawk");
  SweepSpec sweep(ExperimentSpec("hawk").WithConfig(g.config).WithTrace(&g.trace));
  sweep.Vary("steal_cap", caps);
  const std::vector<SweepRun> runs = Run(sweep, flags);
  const std::vector<RunComparison> cmps = CompareTo(runs, cap1);

  Table table({"cap", "p50 short", "p90 short", "steal success rate"});
  for (size_t i = 0; i < caps.size(); ++i) {
    const RunCounters& counters = runs[i].result.counters;
    const double success_rate = counters.steal_attempts > 0
                                    ? static_cast<double>(counters.steal_successes) /
                                          static_cast<double>(counters.steal_attempts)
                                    : 0.0;
    table.AddRow(Cells({{std::to_string(static_cast<int>(caps[i]))},
                        Ratios(cmps[i].short_jobs), {Table::Pct(success_rate)}}));
  }
  table.Print();
  return 0;
}

// Table 1: "Long jobs in heterogeneous workloads form a small fraction of the
// total number of jobs, but use a large amount of resources."
//
// Paper values (measured -> printed for comparison):
//   Google 2011    10.00% long jobs   83.65% task-seconds
//   Cloudera-c     5.02%              92.79%
//   Facebook 2010  2.01%              99.79%
//   Yahoo 2011     9.41%              98.31%
// Also prints the §2.1 text statistics for the Google trace: the share of
// tasks in long jobs (paper: 28%) and the ratio of average task durations
// (paper: 7.34x).
int Table1(const Flags& flags) {
  const uint32_t jobs = ScaledJobs(flags, 12000);
  const uint64_t seed = Seed(flags, 7);
  PrintHeader("Table 1: long-job share of jobs and of task-seconds (" + std::to_string(jobs) +
              " jobs per workload)");

  Table table({"workload", "% long jobs", "paper", "% task-seconds", "paper"});
  std::vector<WorkloadMix> mixes;
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    LongJobPredicate is_long;
    const Trace trace = GenerateWorkload(i, jobs, seed, &is_long);
    const WorkloadMix& mix = mixes.emplace_back(ComputeMix(trace, is_long));
    table.AddRow({kWorkloads[i].name, Table::Num(mix.pct_long_jobs, 2),
                  Table::Num(kWorkloads[i].pct_long, 2), Table::Num(mix.pct_task_seconds_long, 2),
                  Table::Num(kWorkloads[i].pct_task_seconds, 2)});
  }
  table.Print();

  std::printf("\nSection 2.1 text statistics, Google trace:\n");
  std::printf("  share of tasks in long jobs: %.1f%% (paper: 28%%)\n", mixes[0].pct_tasks_long);
  std::printf("  avg task duration ratio long/short: %.2fx (paper: 7.34x)\n",
              mixes[0].avg_task_duration_ratio);
  return 0;
}

// Table 2: number of long jobs and total number of jobs per workload.
//
// Paper values: Google 10.00% of 506460, Cloudera-c 5.02% of 21030,
// Facebook 2.01% of 1169184, Yahoo 9.41% of 24262. Trace sizes here are
// scaled down (DESIGN.md §2; divided by ~100 by default, then by --scale);
// the class percentages are the reproduction target, and the paper's
// absolute counts are printed alongside.
int Table2(const Flags& flags) {
  const uint64_t seed = Seed(flags, 7);
  const double scale = BenchScale(flags);
  PrintHeader("Table 2: number of long jobs and total jobs");
  Table table({"workload", "% long jobs", "paper %", "total jobs", "paper total (unscaled)"});
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    const uint32_t jobs = static_cast<uint32_t>(kWorkloads[i].jobs / 100.0 * scale) + 1;
    LongJobPredicate is_long;
    const Trace trace = GenerateWorkload(i, jobs, seed, &is_long);
    const WorkloadMix mix = ComputeMix(trace, is_long);
    table.AddRow({kWorkloads[i].name, Table::Num(mix.pct_long_jobs, 2),
                  Table::Num(kWorkloads[i].pct_long, 2), std::to_string(mix.total_jobs),
                  std::to_string(kWorkloads[i].jobs)});
  }
  table.Print();
  return 0;
}

}  // namespace

std::vector<Figure> PaperFigures() {
  return {
      {"fig1", "Sparrow's short-job runtime CDF in a loaded cluster (§2.3)", Fig1},
      {"fig4", "workload properties: task-duration and tasks-per-job CDFs", Fig4},
      {"fig5", "Hawk vs Sparrow across cluster sizes, Google trace (§4.2)", Fig5},
      {"fig6", "Hawk vs Sparrow on the Cloudera, Facebook and Yahoo traces (§4.3)", Fig6},
      {"fig7", "Hawk with one component disabled vs full Hawk (§4.4)", Fig7},
      {"fig8-9", "Hawk vs a fully centralized scheduler (§4.5)", Fig8To9},
      {"fig10-11", "Hawk vs a split cluster (§4.6)", Fig10To11},
      {"fig12-13", "sensitivity to the long/short cutoff (§4.7)", Fig12To13},
      {"fig14", "sensitivity to runtime mis-estimation (§4.8)", Fig14},
      {"fig15", "sensitivity to the stealing-attempt cap (§4.9)", Fig15},
      {"table1", "long-job share of jobs and task-seconds per workload", Table1},
      {"table2", "long jobs and total jobs per workload", Table2},
  };
}

}  // namespace hawk::figures
