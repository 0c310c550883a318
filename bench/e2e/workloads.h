// The five hawk_e2e workloads, their generated inputs, and the checks and
// fingerprints applied to every result.
//
// The Google-trace preparation, the paper-event count and the result digest
// are copies of bench/bench_util.h and tests/result_digest.h, kept here on
// purpose: a benchmark compares two commits, so nothing outside bench/e2e may
// change what a metric means or what "same result" means.
#ifndef HAWK_BENCH_E2E_WORKLOADS_H_
#define HAWK_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/results.h"
#include "src/core/hawk_config.h"
#include "src/workload/trace.h"

namespace hawk {
namespace e2e {

struct Workload {
  std::string_view name;
  std::string_view scheduler;  // Single-run workloads; the sweep varies it.
  uint32_t workers = 0;        // Single-run cluster size; the sweep's reference size.
  uint32_t jobs = 0;           // At --scale 1.
  uint32_t sim_shards = 1;     // > 1 selects the sharded executor.
  bool faults = false;         // Crashes, loss, jitter and stragglers on.
  bool sweep = false;          // The fig-5 grid through RunSweep.
};

// All workloads, in the order `run.sh` runs them.
const std::vector<Workload>& Workloads();

// Null when `name` is not a workload.
const Workload* FindWorkload(std::string_view name);

// Host threads one workload may use: min(4, hardware concurrency).
uint32_t BenchThreads();

// One generated input. The trace lives behind a pointer because experiment
// specs refer to it by address.
struct Inputs {
  std::unique_ptr<Trace> trace;
  HawkConfig config;        // The single run's config, or the sweep's base.
  double generate_s = 0.0;  // GenerateGoogleTrace.
  double prepare_s = 0.0;   // Task cap, load calibration, Poisson arrivals.
};

// Generates the workload's inputs from `seed`; `scale` multiplies the job
// count (--smoke runs at 0.02). Same seed and scale, same inputs.
Inputs MakeInputs(const Workload& workload, uint64_t seed, double scale);

// Runs the workload's one experiment call (RunExperiment, or RunSweep over
// the fig-5 grid) and returns every result in spec order. With `traced`, each
// scheduler name is replaced by its layer-tracing wrapper (layer_trace.h).
std::vector<RunResult> RunWorkload(const Workload& workload, const Inputs& inputs,
                                   bool traced);

// For the sweep: the index of the hawk / 1,500-worker point, whose simulated
// latencies stand for the workload. 0 for single runs.
size_t ReferencePoint(const Workload& workload);

// Executor-independent control-plane event count: job arrivals, probe
// placements, centralized task placements, and one start plus one finish per
// launched task.
uint64_t PaperEvents(const RunCounters& c);

// Order-sensitive FNV-1a digest of every per-job time, every counter, every
// utilization sample and the aggregate times; equal iff bit-identical.
uint64_t DigestResults(const std::vector<RunResult>& results);

// Checks one result against its trace. Returns an empty string when every
// check holds, else the first failure.
std::string CheckResult(const Trace& trace, const RunResult& result, bool faults);

}  // namespace e2e
}  // namespace hawk

#endif  // HAWK_BENCH_E2E_WORKLOADS_H_
