#include "src/metrics/csv_export.h"

#include <fstream>

namespace hawk {
namespace {

// Sweep labels are user-supplied (VaryConfig point names may contain commas
// or quotes); quote them per RFC 4180 so rows stay parseable.
std::string EscapeCsv(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    return field;
  }
  std::string escaped = "\"";
  for (const char c : field) {
    if (c == '"') {
      escaped += '"';
    }
    escaped += c;
  }
  escaped += '"';
  return escaped;
}

}  // namespace

Status WriteJobResultsCsv(const std::string& path, const RunResult& result) {
  std::ofstream out(path);
  if (!out) {
    return Status::Error("cannot open for writing: " + path);
  }
  out << "job_id,is_long,submit_us,finish_us,runtime_us\n";
  for (const JobResult& job : result.jobs) {
    out << job.id << ',' << (job.is_long ? 1 : 0) << ',' << job.submit_time << ','
        << job.finish_time << ',' << job.runtime_us << '\n';
  }
  if (!out) {
    return Status::Error("write failed: " + path);
  }
  return Status::Ok();
}

Status WriteSweepSummaryCsv(const std::string& path, const std::vector<SweepRun>& runs) {
  std::ofstream out(path);
  if (!out) {
    return Status::Error("cannot open for writing: " + path);
  }
  out << "label,scheduler,num_workers,probe_ratio,seed,jobs,"
         "p50_short_s,p90_short_s,p50_long_s,p90_long_s,median_util\n";
  for (const SweepRun& run : runs) {
    const Samples shorts = run.result.RuntimesSeconds(false);
    const Samples longs = run.result.RuntimesSeconds(true);
    out << EscapeCsv(run.spec.Label()) << ',' << EscapeCsv(run.spec.scheduler) << ','
        << run.spec.config.num_workers << ',' << run.spec.config.probe_ratio << ','
        << run.spec.config.seed << ',' << run.result.jobs.size() << ','
        << (shorts.Empty() ? 0.0 : shorts.Percentile(50)) << ','
        << (shorts.Empty() ? 0.0 : shorts.Percentile(90)) << ','
        << (longs.Empty() ? 0.0 : longs.Percentile(50)) << ','
        << (longs.Empty() ? 0.0 : longs.Percentile(90)) << ','
        << run.result.MedianUtilization() << '\n';
  }
  if (!out) {
    return Status::Error("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace hawk
