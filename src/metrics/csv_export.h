// CSV export of experiment outputs, for plotting the figures with external
// tools. One row per job (results) or per sweep point (sweep summaries).
#ifndef HAWK_METRICS_CSV_EXPORT_H_
#define HAWK_METRICS_CSV_EXPORT_H_

#include <string>
#include <vector>

#include "src/cluster/results.h"
#include "src/common/status.h"
#include "src/scheduler/experiment.h"

namespace hawk {

// Columns: job_id,is_long,submit_us,finish_us,runtime_us
Status WriteJobResultsCsv(const std::string& path, const RunResult& result);

// One summary row per labelled sweep point, in sweep order. Columns:
// label,scheduler,num_workers,probe_ratio,seed,jobs,
// p50_short_s,p90_short_s,p50_long_s,p90_long_s,median_util
Status WriteSweepSummaryCsv(const std::string& path, const std::vector<SweepRun>& runs);

}  // namespace hawk

#endif  // HAWK_METRICS_CSV_EXPORT_H_
