#include "bench/figures.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/metrics/csv_export.h"
#include "src/metrics/report.h"
#include "src/workload/arrivals.h"
#include "src/workload/google_trace.h"
#include "src/workload/scaling.h"

namespace hawk::figures {

std::vector<double> SimSizes(const std::vector<uint32_t>& paper_sizes) {
  std::vector<double> sizes;
  for (const uint32_t paper_size : paper_sizes) {
    sizes.push_back(SimSize(paper_size));
  }
  return sizes;
}

double BenchScale(const Flags& flags) {
  double env_scale = 1.0;
  if (const char* env = std::getenv("HAWK_BENCH_SCALE"); env != nullptr && *env != '\0') {
    // Strict parse: a malformed value must fail loudly, not silently run the
    // default-scale configuration (std::atof would quietly yield 0).
    char* end = nullptr;
    env_scale = std::strtod(env, &end);
    while (end != nullptr && std::isspace(static_cast<unsigned char>(*end))) {
      ++end;
    }
    HAWK_CHECK(end != nullptr && *end == '\0' && end != env)
        << "HAWK_BENCH_SCALE is not a number: \"" << env << "\"";
    HAWK_CHECK_GT(env_scale, 0.0) << "HAWK_BENCH_SCALE must be > 0, got \"" << env << "\"";
  }
  return flags.GetDouble("scale", env_scale);
}

uint32_t ScaledJobs(const Flags& flags, uint32_t default_jobs) {
  const auto jobs = static_cast<uint32_t>(
      flags.GetInt("jobs", static_cast<int64_t>(default_jobs * BenchScale(flags))));
  return jobs > 0 ? jobs : 1;
}

uint64_t Seed(const Flags& flags, uint64_t default_seed) {
  return static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(default_seed)));
}

std::vector<SweepRun> Run(const SweepSpec& sweep, const Flags& flags) {
  return RunSweep(sweep, static_cast<uint32_t>(flags.GetInt("threads", 0)));
}

Trace PrepareSweepTrace(Trace trace, uint64_t seed, uint32_t min_workers, uint32_t ref_workers,
                        double target_util) {
  trace = CapTasksPreserveWork(trace, min_workers / 2);
  Rng rng(seed ^ 0xA5A5A5A5ULL);
  const DurationUs interarrival =
      MeanInterarrivalForUtilization(trace, target_util, ref_workers);
  AssignPoissonArrivals(&trace, interarrival, &rng);
  return trace;
}

HawkConfig GoogleConfig(uint32_t num_workers, uint64_t seed) {
  HawkConfig config;
  config.num_workers = num_workers;
  config.short_partition_fraction = 0.17;  // 17% for the Google trace.
  config.cutoff_us = SecondsToUs(1129.0);
  config.classify_mode = ClassifyMode::kCutoff;
  config.seed = seed;
  return config;
}

GoogleSweep MakeGoogleSweep(const Flags& flags, uint32_t default_jobs, uint64_t default_seed,
                            uint32_t min_workers, uint32_t workers, double util) {
  const uint32_t jobs = ScaledJobs(flags, default_jobs);
  const uint64_t seed = Seed(flags, default_seed);
  GoogleTraceParams params;
  params.num_jobs = jobs;
  params.seed = seed;
  return {jobs, seed,
          PrepareSweepTrace(GenerateGoogleTrace(params), seed, min_workers, workers, util),
          GoogleConfig(workers, seed)};
}

std::vector<RunComparison> ComparePoints(const std::vector<SweepRun>& runs, size_t per_point) {
  std::vector<RunComparison> out;
  for (size_t base = per_point - 1; base < runs.size(); base += per_point) {
    for (size_t i = base + 1 - per_point; i < base; ++i) {
      out.push_back(CompareRuns(runs[i].result, runs[base].result));
    }
  }
  return out;
}

std::vector<RunComparison> CompareTo(const std::vector<SweepRun>& runs,
                                     const RunResult& baseline) {
  std::vector<RunComparison> out;
  for (const SweepRun& run : runs) {
    out.push_back(CompareRuns(run.result, baseline));
  }
  return out;
}

std::vector<std::string> Ratios(const ClassComparison& jobs) {
  return {Table::Num(jobs.p50_ratio), Table::Num(jobs.p90_ratio)};
}

std::vector<std::string> Cells(std::initializer_list<std::vector<std::string>> parts) {
  std::vector<std::string> row;
  for (const std::vector<std::string>& part : parts) {
    row.insert(row.end(), part.begin(), part.end());
  }
  return row;
}

void PrintHeader(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

namespace {

Status WriteJsonRows(const std::string& path, size_t count,
                     const std::function<std::string(size_t)>& json_row) {
  std::ofstream out(path);
  if (!out) {
    return Status::Error("cannot open for writing: " + path);
  }
  out << "[\n";
  for (size_t i = 0; i < count; ++i) {
    out << "  " << json_row(i) << (i + 1 < count ? "," : "") << "\n";
  }
  out << "]\n";
  if (!out) {
    return Status::Error("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace

int Export(const Flags& flags, size_t count, const std::function<std::string(size_t)>& json_row,
           const std::vector<SweepRun>* csv_runs) {
  const auto write = [&flags](const char* kind, const Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s export failed: %s\n", kind, status.message().c_str());
      return false;
    }
    std::printf("Wrote %s\n", flags.GetString(kind, "").c_str());
    return true;
  };
  if (flags.Has("json") &&
      !write("json", WriteJsonRows(flags.GetString("json", ""), count, json_row))) {
    return 1;
  }
  if (csv_runs != nullptr && flags.Has("csv") &&
      !write("csv", WriteSweepSummaryCsv(flags.GetString("csv", ""), *csv_runs))) {
    return 1;
  }
  return 0;
}

}  // namespace hawk::figures
