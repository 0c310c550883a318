#include "src/scheduler/experiment.h"

#include <cmath>
#include <cstdio>
#include <memory>

#include "src/common/check.h"
#include "src/core/hawk_scheduler.h"
#include "src/scheduler/driver.h"
#include "src/scheduler/registry.h"
#include "src/scheduler/sharded_driver.h"
#include "src/scheduler/sweep_runner.h"

namespace hawk {
namespace {

// The built-in schedulers self-register through the same public mechanism
// external variants use (see examples/custom_policy.cpp). Any binary that
// runs experiments links this translation unit, so the names are always
// available to RunExperiment/RunSweep. Every one is a HawkPolicy running a
// design shape: the paper's baselines are Hawk with parts taken away, and
// the same shape drives the prototype runtime.

// Sparrow (§2.3), the primary baseline: every job probed over the whole
// cluster; no central lane, no partition, no stealing.
RuntimeShape SparrowShape() {
  RuntimeShape shape;
  shape.centralized_long = false;
  shape.stealing = false;
  shape.long_probe_span = RuntimeShape::ProbeSpan::kWholeCluster;
  return shape;
}

const SchedulerRegistration kRegisterSparrow(
    std::string(kSchedulerSparrow),
    [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
      return std::make_unique<HawkPolicy>(config, SparrowShape(), kSchedulerSparrow);
    });

// Fully centralized (§4.5): every job, both classes, placed by the
// waiting-time queue over the whole cluster (no general_count hook, so the
// general partition is the whole cluster); no stealing.
RuntimeShape CentralizedShape() {
  RuntimeShape shape;
  shape.centralized_long = true;
  shape.centralized_short = true;
  shape.stealing = false;
  return shape;
}

const SchedulerRegistration kRegisterCentralized(
    std::string(kSchedulerCentralized),
    [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
      return std::make_unique<HawkPolicy>(config, CentralizedShape(), kSchedulerCentralized);
    });

const SchedulerRegistration kRegisterHawk(
    std::string(kSchedulerHawk),
    [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
      return std::make_unique<HawkPolicy>(config);
    },
    [](const HawkConfig& config) { return config.GeneralCount(); });

// Stealing variant (ROADMAP next-candidate): Hawk with power-of-d-choices
// victim selection — the steal sample is contacted most-loaded-first instead
// of in draw order, trading nothing for fewer victim probes per success.
// Swept beside plain hawk in `hawk_figures --figure=ablation-steal-retry`.
const SchedulerRegistration kRegisterHawkDChoice(
    "hawk-dchoice",
    [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
      RuntimeShape shape;
      shape.victim_selection = StealingPolicy::VictimSelection::kDChoice;
      return std::make_unique<HawkPolicy>(config, shape, "hawk-dchoice");
    },
    [](const HawkConfig& config) { return config.GeneralCount(); });

// Adaptive-recovery variant: Hawk with speculative re-execution on by
// default (see HawkSpecPolicy::SpeculationThreshold). Swept beside plain
// hawk in `hawk_figures --figure=ablation-stragglers`.
const SchedulerRegistration kRegisterHawkSpec(
    "hawk-spec",
    [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
      return std::make_unique<HawkSpecPolicy>(config);
    },
    [](const HawkConfig& config) { return config.GeneralCount(); });

// Late-binding centralized hybrid (ROADMAP carry-over): the long-job lane
// places probes on the minimum-wait workers and lets the §3.5 request
// machinery bind tasks at service time. Swept beside hawk and centralized in
// `hawk_figures --figure=fig8-9`.
const SchedulerRegistration kRegisterHawkLateBind(
    "hawk-latebind",
    [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
      return std::make_unique<HawkLateBindPolicy>(config);
    },
    [](const HawkConfig& config) { return config.GeneralCount(); });

// Split cluster (§4.6): long jobs placed centrally on the long partition,
// short jobs probed over the disjoint short partition; no sharing, no
// stealing. The non-empty-short-partition precondition is enforced in
// HawkPolicy::Attach (simulation) and by RunPrototype's span check (runtime,
// as a clean Status) — not here: factories must stay abort-free so the
// prototype can construct a policy just to read its RuntimeShape.
RuntimeShape SplitShape() {
  RuntimeShape shape;
  shape.centralized_long = true;
  shape.stealing = false;
  shape.short_probe_span = RuntimeShape::ProbeSpan::kShortPartition;
  return shape;
}

const SchedulerRegistration kRegisterSplit(
    std::string(kSchedulerSplit),
    [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
      return std::make_unique<HawkPolicy>(config, SplitShape(), kSchedulerSplit);
    },
    [](const HawkConfig& config) { return config.GeneralCount(); });

// Axis-label value formatting: integers print bare ("probe_ratio=4"),
// everything else compactly ("short_partition_fraction=0.17").
std::string FormatAxisValue(double value) {
  char buf[32];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%g", value);
  }
  return buf;
}

}  // namespace

SweepSpec& SweepSpec::Vary(std::string_view field, std::vector<double> values) {
  // Surface typos at declaration time, not after an hour of sweeping.
  {
    HawkConfig probe;
    const Status status = SetConfigField(&probe, field, 0.0);
    HAWK_CHECK(status.ok()) << status.message();
  }
  Axis axis;
  axis.name = std::string(field);
  axis.points.reserve(values.size());
  for (const double value : values) {
    AxisPoint point;
    point.label = axis.name + "=" + FormatAxisValue(value);
    point.apply = [name = axis.name, value](ExperimentSpec& spec) {
      const Status status = SetConfigField(&spec.config, name, value);
      HAWK_CHECK(status.ok()) << status.message();
    };
    axis.points.push_back(std::move(point));
  }
  axes_.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::VarySchedulers(std::vector<std::string> names) {
  Axis axis;
  axis.name = "scheduler";
  axis.points.reserve(names.size());
  for (std::string& name : names) {
    AxisPoint point;
    point.label = name;
    point.apply = [name](ExperimentSpec& spec) { spec.scheduler = name; };
    axis.points.push_back(std::move(point));
  }
  axes_.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::VaryTraces(std::vector<std::pair<std::string, const Trace*>> traces) {
  Axis axis;
  axis.name = "trace";
  axis.points.reserve(traces.size());
  for (auto& [label, trace] : traces) {
    HAWK_CHECK(trace != nullptr) << "VaryTraces: null trace for '" << label << "'";
    AxisPoint point;
    point.label = label;
    point.apply = [trace = trace](ExperimentSpec& spec) { spec.trace = trace; };
    axis.points.push_back(std::move(point));
  }
  axes_.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::VaryConfig(std::string_view axis_name,
                                 std::vector<std::pair<std::string, ConfigMutator>> points) {
  Axis axis;
  axis.name = std::string(axis_name);
  axis.points.reserve(points.size());
  for (auto& [label, mutate] : points) {
    HAWK_CHECK(mutate != nullptr) << "VaryConfig: null mutator for '" << label << "'";
    AxisPoint point;
    point.label = label;
    point.apply = [mutate = std::move(mutate)](ExperimentSpec& spec) { mutate(spec.config); };
    axis.points.push_back(std::move(point));
  }
  axes_.push_back(std::move(axis));
  return *this;
}

size_t SweepSpec::Cardinality() const {
  size_t count = 1;
  for (const Axis& axis : axes_) {
    count *= axis.points.size();
  }
  return count;
}

std::vector<ExperimentSpec> SweepSpec::Expand() const {
  std::vector<ExperimentSpec> specs;
  specs.reserve(Cardinality());
  {
    ExperimentSpec seed = base_;
    seed.label = base_.Label();
    specs.push_back(std::move(seed));
  }
  for (const Axis& axis : axes_) {
    std::vector<ExperimentSpec> next;
    next.reserve(specs.size() * axis.points.size());
    for (const ExperimentSpec& spec : specs) {
      for (const AxisPoint& point : axis.points) {
        ExperimentSpec expanded = spec;
        point.apply(expanded);
        expanded.label += "/" + point.label;
        next.push_back(std::move(expanded));
      }
    }
    specs = std::move(next);
  }
  return specs;
}

RunResult RunExperiment(const ExperimentSpec& spec) {
  HAWK_CHECK(spec.trace != nullptr) << "experiment '" << spec.Label() << "' has no trace";
  const Status status = spec.config.Validate();
  HAWK_CHECK(status.ok()) << "invalid config for experiment '" << spec.Label()
                          << "': " << status.message();
  const SchedulerRegistry::Entry* entry = SchedulerRegistry::Global().Find(spec.scheduler);
  if (entry == nullptr) {
    HAWK_CHECK(false) << "unknown scheduler '" << spec.scheduler
                      << "'; registered schedulers: "
                      << SchedulerRegistry::Global().JoinedNames();
  }
  const std::unique_ptr<SchedulerPolicy> policy = entry->factory(spec.config);
  HAWK_CHECK(policy != nullptr) << "scheduler '" << spec.scheduler
                                << "' factory returned null";
  const uint32_t general_count =
      entry->general_count ? entry->general_count(spec.config) : spec.config.num_workers;
  if (spec.config.sim_shards > 1) {
    ShardedSimulationDriver driver(spec.trace, spec.config, general_count, policy.get());
    return driver.Run();
  }
  SimulationDriver driver(spec.trace, spec.config, general_count, policy.get());
  return driver.Run();
}

RunResult RunExperiment(const Trace& trace, const HawkConfig& config,
                        std::string_view scheduler) {
  return RunExperiment(
      ExperimentSpec(std::string(scheduler)).WithConfig(config).WithTrace(&trace));
}

std::vector<SweepRun> RunExperiments(std::vector<ExperimentSpec> specs, uint32_t num_threads) {
  // Fail fast on the whole grid before burning any simulation time.
  for (const ExperimentSpec& spec : specs) {
    HAWK_CHECK(spec.trace != nullptr) << "experiment '" << spec.Label() << "' has no trace";
    const Status status = spec.config.Validate();
    HAWK_CHECK(status.ok()) << "invalid config for experiment '" << spec.Label()
                            << "': " << status.message();
    HAWK_CHECK(SchedulerRegistry::Global().Contains(spec.scheduler))
        << "unknown scheduler '" << spec.scheduler << "' in experiment '" << spec.Label()
        << "'";
  }
  const SweepRunner runner(num_threads);
  std::vector<RunResult> results =
      runner.Run(specs.size(), [&specs](size_t i) { return RunExperiment(specs[i]); });
  std::vector<SweepRun> runs;
  runs.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    runs.push_back(SweepRun{std::move(specs[i]), std::move(results[i])});
  }
  return runs;
}

std::vector<SweepRun> RunSweep(const SweepSpec& sweep, uint32_t num_threads) {
  return RunExperiments(sweep.Expand(), num_threads);
}

}  // namespace hawk
