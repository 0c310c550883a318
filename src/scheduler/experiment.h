// The experiment API: declarative specs over the open scheduler registry.
//
// An ExperimentSpec names one simulation — (scheduler name, config, trace,
// label) — and RunExperiment() executes it through the registry (see
// registry.h) and the simulation driver. SweepSpec declares cross-product
// axes over config fields, schedulers, and traces, expands to a vector of
// labelled specs, and RunSweep() fans the grid across SweepRunner threads.
// Every result is bit-identical to a serial run of the same spec: the
// parallelism is across runs, never inside one.
//
//   // One run:
//   RunResult r = RunExperiment(ExperimentSpec("hawk").WithTrace(&trace));
//
//   // A grid — schedulers x probe ratios x cluster sizes — in one decl:
//   SweepSpec sweep(ExperimentSpec("sparrow").WithTrace(&trace).WithConfig(base));
//   sweep.VarySchedulers({"sparrow", "hawk"})
//        .Vary("probe_ratio", {1, 2, 4, 8})
//        .Vary("num_workers", {1000, 1500, 2000});
//   std::vector<SweepRun> runs = RunSweep(sweep, /*num_threads=*/0);
#ifndef HAWK_SCHEDULER_EXPERIMENT_H_
#define HAWK_SCHEDULER_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cluster/results.h"
#include "src/common/status.h"
#include "src/core/hawk_config.h"
#include "src/scheduler/policy.h"
#include "src/workload/trace.h"

namespace hawk {

// Built-in scheduler names, registered whenever this experiment layer is
// linked in. New schedulers register through SchedulerRegistry (registry.h);
// anything registered is accepted wherever these names are.
inline constexpr std::string_view kSchedulerSparrow = "sparrow";
inline constexpr std::string_view kSchedulerCentralized = "centralized";
inline constexpr std::string_view kSchedulerHawk = "hawk";
inline constexpr std::string_view kSchedulerSplit = "split";

// A value-type description of one simulation run. Copyable and cheap to
// mutate — sweeps expand into vectors of these. The trace is referenced, not
// owned, and must outlive any run of the spec.
struct ExperimentSpec {
  std::string scheduler{kSchedulerHawk};
  HawkConfig config;
  const Trace* trace = nullptr;
  std::string label;  // Empty means "use the scheduler name"; see Label().

  ExperimentSpec() = default;
  explicit ExperimentSpec(std::string scheduler_name) : scheduler(std::move(scheduler_name)) {}

  // Fluent builder: each setter returns *this so specs read as one
  // declaration. All fields are also plain members — mutate directly when
  // that is clearer.
  ExperimentSpec& WithConfig(const HawkConfig& c) {
    config = c;
    return *this;
  }
  ExperimentSpec& WithTrace(const Trace* t) {
    trace = t;
    return *this;
  }
  ExperimentSpec& WithLabel(std::string l) {
    label = std::move(l);
    return *this;
  }

  const std::string& Label() const { return label.empty() ? scheduler : label; }
};

// A declarative cross-product grid: a base spec plus axes. Each axis
// multiplies the grid; Expand() emits the product in deterministic order with
// the FIRST declared axis varying slowest. Labels are
// "<base>/<axis>=<value>/..." and are unique as long as each axis's values
// are distinct.
class SweepSpec {
 public:
  using ConfigMutator = std::function<void(HawkConfig&)>;

  explicit SweepSpec(ExperimentSpec base) : base_(std::move(base)) {}

  // Axis over a named numeric config field (see ConfigFieldNames() in
  // hawk_config.h). Aborts on an unknown field name — a typo must not
  // silently sweep nothing.
  SweepSpec& Vary(std::string_view field, std::vector<double> values);

  // Axis over registered scheduler names.
  SweepSpec& VarySchedulers(std::vector<std::string> names);

  // Axis over traces, each with a display label.
  SweepSpec& VaryTraces(std::vector<std::pair<std::string, const Trace*>> traces);

  // Escape hatch for axes that are not a single numeric field: each point is
  // a label plus an arbitrary config edit (e.g. Fig. 7's §4.4 component
  // settings, or a (noise_lo, noise_hi) pair).
  SweepSpec& VaryConfig(std::string_view axis,
                        std::vector<std::pair<std::string, ConfigMutator>> points);

  const ExperimentSpec& base() const { return base_; }

  // Number of specs Expand() will produce (product of axis sizes).
  size_t Cardinality() const;

  // The full grid, labelled, first axis slowest-varying.
  std::vector<ExperimentSpec> Expand() const;

 private:
  struct AxisPoint {
    std::string label;                          // "<axis>=<value>".
    std::function<void(ExperimentSpec&)> apply;
  };
  struct Axis {
    std::string name;
    std::vector<AxisPoint> points;
  };

  ExperimentSpec base_;
  std::vector<Axis> axes_;
};

// A spec resolved for one run: its scheduler's freshly built policy and the
// size of the general partition that scheduler asks for.
struct ResolvedSpec {
  std::unique_ptr<SchedulerPolicy> policy;
  uint32_t general_count = 0;
};

// The one resolution both executors run a spec through: checks that it has
// a trace and a config that passes Validate, looks its scheduler up in the
// global registry, builds the policy and derives general_count (the whole
// cluster when the scheduler registered no partition sizing). Every failure
// is an error Status, so RunExperiment and runtime::RunPrototype reject the
// same specs with the same messages.
StatusOr<ResolvedSpec> ResolveSpec(const ExperimentSpec& spec);

// Runs one spec to completion: resolves it (aborting loudly on any error
// ResolveSpec reports) and drives the simulation. Deterministic: the spec
// fully determines the result.
RunResult RunExperiment(const ExperimentSpec& spec);

// Convenience for the common inline case.
RunResult RunExperiment(const Trace& trace, const HawkConfig& config,
                        std::string_view scheduler);

// One labelled sweep outcome; `spec` is the expanded grid point that
// produced `result`.
struct SweepRun {
  ExperimentSpec spec;
  RunResult result;
};

// Expands the sweep and fans it across a SweepRunner thread pool
// (num_threads == 0 picks hardware concurrency). Results come back in
// Expand() order, each bit-identical to RunExperiment on the same spec.
std::vector<SweepRun> RunSweep(const SweepSpec& sweep, uint32_t num_threads = 0);

// Same fan-out for a hand-built list of specs.
std::vector<SweepRun> RunExperiments(std::vector<ExperimentSpec> specs,
                                     uint32_t num_threads = 0);

}  // namespace hawk

#endif  // HAWK_SCHEDULER_EXPERIMENT_H_
