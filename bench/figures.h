// The figure table behind hawk_figures: one named entry per figure, table and
// ablation of the paper's §4 evaluation, plus the setup the entries share.
//
// Scaling convention (DESIGN.md §2): simulated cluster sizes are the paper's
// divided by 10 and traces have thousands of jobs instead of ~506k; rows are
// labelled with the paper-equivalent sizes. HAWK_BENCH_SCALE (env var or
// --scale flag) multiplies the default job counts for bigger runs.
#ifndef HAWK_BENCH_FIGURES_H_
#define HAWK_BENCH_FIGURES_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/cluster/results.h"
#include "src/common/flags.h"
#include "src/core/hawk_config.h"
#include "src/metrics/comparison.h"
#include "src/scheduler/experiment.h"
#include "src/workload/trace.h"

namespace hawk::figures {

// One table entry, a name plus its callback in one value: `name` is the
// --figure value, `title` its line in the usage text, and `run` prints the
// figure and returns the process exit code.
struct Figure {
  std::string name;
  std::string title;
  std::function<int(const Flags&)> run;
};

// Every flag an entry reads; hawk_figures rejects any other name.
inline const std::vector<std::string> kFlagNames = {
    "figure", "jobs",       "scale", "seed",      "threads",            "json",
    "csv",    "proto",      "proto-jobs",         "proto-work-seconds", "work-seconds",
    "num-ratios"};

std::vector<Figure> PaperFigures();      // figures_paper.cc
std::vector<Figure> AblationFigures();   // figures_ablations.cc
std::vector<Figure> PrototypeFigures();  // figures_prototype.cc

// --- Scale and shared flags ------------------------------------------------

// Paper cluster size (in nodes) -> simulated size: the simulation runs the
// paper's clusters at 1/10 scale.
inline uint32_t SimSize(uint32_t paper_nodes) { return paper_nodes / 10; }
std::vector<double> SimSizes(const std::vector<uint32_t>& paper_sizes);

// --scale, else HAWK_BENCH_SCALE (strictly parsed), else 1.
double BenchScale(const Flags& flags);
// --jobs, else `default_jobs` x BenchScale; at least 1.
uint32_t ScaledJobs(const Flags& flags, uint32_t default_jobs);
uint64_t Seed(const Flags& flags, uint64_t default_seed);
// RunSweep on --threads workers (0, the default: hardware concurrency).
std::vector<SweepRun> Run(const SweepSpec& sweep, const Flags& flags);

// --- Traces and configs ----------------------------------------------------

// Builds a trace ready for a cluster-size sweep: tasks-per-job capped for the
// smallest cluster (2t probes must fit; the paper applies the same transform
// for its prototype, §4.1) and Poisson arrivals calibrated once so that the
// *reference* cluster size sees `target_util` offered load. Larger clusters
// in the sweep are then progressively less loaded, smaller ones overloaded —
// the paper's load knob.
Trace PrepareSweepTrace(Trace trace, uint64_t seed, uint32_t min_workers, uint32_t ref_workers,
                        double target_util);

// Default Google-trace experiment configuration (paper §4.1 parameters).
HawkConfig GoogleConfig(uint32_t num_workers, uint64_t seed);

// The Google-trace setup most entries start from: the job count and seed
// from the flags, a sweep trace and the §4.1 config on `workers`.
struct GoogleSweep {
  uint32_t jobs;
  uint64_t seed;
  Trace trace;
  HawkConfig config;
};
GoogleSweep MakeGoogleSweep(const Flags& flags, uint32_t default_jobs = 3000,
                            uint64_t default_seed = 1, uint32_t min_workers = SimSize(10000),
                            uint32_t workers = SimSize(15000), double util = 0.93);

// --- Comparisons and printing ----------------------------------------------

// Sweeps whose innermost axis is {treatments..., baseline}: every treatment
// normalized to the baseline of its own axis point, in sweep order.
std::vector<RunComparison> ComparePoints(const std::vector<SweepRun>& runs, size_t per_point);
// Every run normalized to one shared baseline run.
std::vector<RunComparison> CompareTo(const std::vector<SweepRun>& runs,
                                     const RunResult& baseline);

// The p50 and p90 ratio cells of one job class.
std::vector<std::string> Ratios(const ClassComparison& jobs);
// One table row out of row fragments.
std::vector<std::string> Cells(std::initializer_list<std::vector<std::string>> parts);

void PrintHeader(const std::string& title);

// --json=PATH writes `count` JSON objects, `json_row(i)` each; --csv=PATH
// writes `csv_runs` through the metrics CSV exporter (entries without one
// ignore --csv). Prints "Wrote PATH" per file; returns the exit code.
int Export(const Flags& flags, size_t count, const std::function<std::string(size_t)>& json_row,
           const std::vector<SweepRun>* csv_runs = nullptr);

}  // namespace hawk::figures

#endif  // HAWK_BENCH_FIGURES_H_
