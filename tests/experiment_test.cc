// The experiment API: scheduler registry, declarative specs, sweep
// expansion, and equivalence with the hand-built policy + driver path the
// registry replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/hawk_config.h"
#include "src/scheduler/driver.h"
#include "src/scheduler/experiment.h"
#include "src/scheduler/registry.h"
#include "src/workload/arrivals.h"
#include "src/workload/cluster_workloads.h"
#include "tests/test_util.h"

namespace hawk {
namespace {

using testing::ExpectBitIdentical;

Trace MakeTrace(uint32_t jobs, uint64_t seed) {
  Trace trace = GenerateClusterWorkload(FacebookParams(jobs, seed));
  Rng arrivals_rng(seed ^ 0xBEEF);
  AssignPoissonArrivals(&trace, SecondsToUs(2.0), &arrivals_rng);
  return trace;
}

HawkConfig SmallConfig(uint32_t workers = 100, uint64_t seed = 7) {
  HawkConfig config;
  config.num_workers = workers;
  config.classify_mode = ClassifyMode::kHint;
  config.seed = seed;
  return config;
}

// --- Registry ---------------------------------------------------------------

TEST(SchedulerRegistryTest, BuiltinsAreRegistered) {
  // The four paper schedulers plus the in-library d-choice stealing variant.
  for (const char* name : {"sparrow", "centralized", "hawk", "split", "hawk-dchoice"}) {
    EXPECT_TRUE(SchedulerRegistry::Global().Contains(name)) << name;
  }
}

TEST(SchedulerRegistryTest, EveryRegisteredNameRunsDeterministically) {
  // Whatever is registered — built-ins plus anything other tests added —
  // must construct through its factory and produce seed-determined results.
  const Trace trace = MakeTrace(80, 3);
  for (const std::string& name : SchedulerRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const RunResult a = RunExperiment(trace, SmallConfig(), name);
    const RunResult b = RunExperiment(trace, SmallConfig(), name);
    ExpectBitIdentical(a, b);
    EXPECT_EQ(a.counters.tasks_launched, trace.TotalTasks());
  }
}

TEST(SchedulerRegistryTest, DuplicateRegistrationIsRejected) {
  const Status status = SchedulerRegistry::Global().Register(
      "hawk", SchedulerRegistry::Global().Find("sparrow")->factory);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("already registered"), std::string::npos);
  // The original registration must still be in effect: "hawk" still places
  // long tasks centrally (sparrow's policy would place none).
  const Trace trace = MakeTrace(60, 5);
  const RunResult run = RunExperiment(trace, SmallConfig(), "hawk");
  EXPECT_GT(run.counters.central_tasks_placed, 0u);
}

TEST(SchedulerRegistryTest, EmptyNameAndNullFactoryRejected) {
  EXPECT_FALSE(SchedulerRegistry::Global()
                   .Register("", [](const HawkConfig&) -> std::unique_ptr<SchedulerPolicy> {
                     return nullptr;
                   })
                   .ok());
  EXPECT_FALSE(SchedulerRegistry::Global().Register("null-factory", nullptr).ok());
  EXPECT_FALSE(SchedulerRegistry::Global().Contains("null-factory"));
}

TEST(SchedulerRegistryTest, ExternalRegistrationIsFirstClass) {
  // Register a variant from outside the library (what
  // examples/custom_policy.cpp does with "hawk-lb") and run + sweep it
  // through the same entry points as the built-ins.
  const Status status = SchedulerRegistry::Global().Register(
      "test-wide-probe", [](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
        HawkConfig wide = config;
        wide.probe_ratio = 4;
        return SchedulerRegistry::Global().Find("sparrow")->factory(wide);
      });
  ASSERT_TRUE(status.ok()) << status.message();
  const Trace trace = MakeTrace(60, 9);
  const RunResult run = RunExperiment(trace, SmallConfig(), "test-wide-probe");
  EXPECT_EQ(run.counters.probes_placed, 4 * trace.TotalTasks());

  SweepSpec sweep(ExperimentSpec("test-wide-probe").WithConfig(SmallConfig()).WithTrace(&trace));
  sweep.Vary("num_workers", {80, 120});
  const std::vector<SweepRun> runs = RunSweep(sweep, 2);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].spec.Label(), "test-wide-probe/num_workers=80");
  EXPECT_EQ(runs[1].spec.Label(), "test-wide-probe/num_workers=120");
}

// --- Spec + builder ---------------------------------------------------------

TEST(ExperimentSpecTest, BuilderComposes) {
  const Trace trace = MakeTrace(30, 1);
  const HawkConfig config = SmallConfig(64, 11);
  const ExperimentSpec spec =
      ExperimentSpec("sparrow").WithConfig(config).WithTrace(&trace).WithLabel("probe2");
  EXPECT_EQ(spec.scheduler, "sparrow");
  EXPECT_EQ(spec.config.num_workers, 64u);
  EXPECT_EQ(spec.config.seed, 11u);
  EXPECT_EQ(spec.trace, &trace);
  EXPECT_EQ(spec.Label(), "probe2");
  EXPECT_EQ(ExperimentSpec("hawk").Label(), "hawk");  // Label defaults to the name.
}

TEST(ExperimentTest, ConvenienceOverloadMatchesSpecForm) {
  const Trace trace = MakeTrace(50, 13);
  const HawkConfig config = SmallConfig();
  ExpectBitIdentical(
      RunExperiment(trace, config, "hawk"),
      RunExperiment(ExperimentSpec("hawk").WithConfig(config).WithTrace(&trace)));
}

// --- Equivalence with the pre-registry path ---------------------------------

// RunExperiment must be bit-identical to what the old closed-world
// RunScheduler(kind) switch did: construct the policy directly (here through
// the registry's factory), size the general partition the same way, drive
// the same simulation.
TEST(ExperimentTest, BitIdenticalToHandBuiltDriverPath) {
  const Trace trace = MakeTrace(120, 17);
  const HawkConfig config = SmallConfig(110, 23);

  const auto run_direct = [&](std::string_view name, uint32_t general_count) {
    const std::unique_ptr<SchedulerPolicy> policy =
        SchedulerRegistry::Global().Find(name)->factory(config);
    SimulationDriver driver(&trace, config, general_count, policy.get());
    return driver.Run();
  };

  ExpectBitIdentical(RunExperiment(trace, config, "sparrow"),
                     run_direct("sparrow", config.num_workers));
  ExpectBitIdentical(RunExperiment(trace, config, "centralized"),
                     run_direct("centralized", config.num_workers));
  ExpectBitIdentical(RunExperiment(trace, config, "hawk"),
                     run_direct("hawk", config.GeneralCount()));
  ExpectBitIdentical(RunExperiment(trace, config, "split"),
                     run_direct("split", config.GeneralCount()));
}

// --- SweepSpec expansion -----------------------------------------------------

TEST(SweepSpecTest, CardinalityAndOrderingAreCrossProduct) {
  const Trace trace = MakeTrace(30, 1);
  SweepSpec sweep(ExperimentSpec("sparrow").WithConfig(SmallConfig()).WithTrace(&trace));
  sweep.Vary("num_workers", {100, 200}).VarySchedulers({"sparrow", "hawk"})
      .Vary("probe_ratio", {1, 2, 3});
  EXPECT_EQ(sweep.Cardinality(), 12u);
  const std::vector<ExperimentSpec> specs = sweep.Expand();
  ASSERT_EQ(specs.size(), 12u);
  // First axis slowest: workers=100 for the first six, 200 for the rest.
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(specs[i].config.num_workers, i < 6 ? 100u : 200u) << i;
    EXPECT_EQ(specs[i].scheduler, (i / 3) % 2 == 0 ? "sparrow" : "hawk") << i;
    EXPECT_EQ(specs[i].config.probe_ratio, i % 3 + 1) << i;
    EXPECT_EQ(specs[i].trace, &trace);
  }
  EXPECT_EQ(specs[0].Label(), "sparrow/num_workers=100/sparrow/probe_ratio=1");
  EXPECT_EQ(specs[11].Label(), "sparrow/num_workers=200/hawk/probe_ratio=3");
}

TEST(SweepSpecTest, LabelsAreUnique) {
  const Trace trace = MakeTrace(30, 1);
  SweepSpec sweep(ExperimentSpec("hawk").WithConfig(SmallConfig()).WithTrace(&trace));
  sweep.Vary("probe_ratio", {1, 2, 4, 8})
      .Vary("steal_cap", {1, 10})
      .VaryConfig("noise", {{"off", [](HawkConfig&) {}},
                            {"wide", [](HawkConfig& c) {
                               c.estimate_noise_lo = 0.5;
                               c.estimate_noise_hi = 1.5;
                             }}});
  const std::vector<ExperimentSpec> specs = sweep.Expand();
  ASSERT_EQ(specs.size(), 16u);
  std::set<std::string> labels;
  for (const ExperimentSpec& spec : specs) {
    labels.insert(spec.Label());
  }
  EXPECT_EQ(labels.size(), specs.size());
}

TEST(SweepSpecTest, VaryTracesAndEmptyAxes) {
  const Trace trace_a = MakeTrace(30, 1);
  const Trace trace_b = MakeTrace(40, 2);
  SweepSpec sweep(ExperimentSpec("hawk").WithConfig(SmallConfig()));
  sweep.VaryTraces({{"a", &trace_a}, {"b", &trace_b}});
  const std::vector<ExperimentSpec> specs = sweep.Expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].trace, &trace_a);
  EXPECT_EQ(specs[1].trace, &trace_b);
  EXPECT_EQ(specs[0].Label(), "hawk/a");

  // No axes: the sweep is the base spec alone.
  SweepSpec single(ExperimentSpec("hawk").WithConfig(SmallConfig()).WithTrace(&trace_a));
  EXPECT_EQ(single.Cardinality(), 1u);
  ASSERT_EQ(single.Expand().size(), 1u);
}

TEST(SweepSpecTest, RunSweepMatchesSerialExpansion) {
  const Trace trace = MakeTrace(80, 21);
  SweepSpec sweep(ExperimentSpec().WithConfig(SmallConfig()).WithTrace(&trace));
  sweep.VarySchedulers({"hawk", "sparrow"}).Vary("num_workers", {80, 120});
  const std::vector<SweepRun> runs = RunSweep(sweep, 4);
  const std::vector<ExperimentSpec> specs = sweep.Expand();
  ASSERT_EQ(runs.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].Label());
    EXPECT_EQ(runs[i].spec.Label(), specs[i].Label());
    ExpectBitIdentical(runs[i].result, RunExperiment(specs[i]));
  }
}

// --- Validation and failure paths -------------------------------------------

TEST(HawkConfigValidateTest, AcceptsDefaultsRejectsNonsense) {
  EXPECT_TRUE(HawkConfig().Validate().ok());

  HawkConfig config;
  config.num_workers = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = HawkConfig();
  config.probe_ratio = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = HawkConfig();
  config.short_partition_fraction = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config.short_partition_fraction = -0.1;
  EXPECT_FALSE(config.Validate().ok());

  config = HawkConfig();
  config.estimate_noise_lo = 1.5;
  config.estimate_noise_hi = 0.5;
  EXPECT_FALSE(config.Validate().ok());

  config = HawkConfig();
  config.util_sample_period_us = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(HawkConfigFieldTest, SetConfigFieldCoversEveryName) {
  HawkConfig config;
  for (const std::string_view name : ConfigFieldNames()) {
    EXPECT_TRUE(SetConfigField(&config, name, 1.0).ok()) << name;
  }
  EXPECT_FALSE(SetConfigField(&config, "no_such_field", 1.0).ok());

  ASSERT_TRUE(SetConfigField(&config, "probe_ratio", 8.0).ok());
  EXPECT_EQ(config.probe_ratio, 8u);
  ASSERT_TRUE(SetConfigField(&config, "use_centralized_long", 0.0).ok());
  EXPECT_FALSE(config.use_centralized_long);
  ASSERT_TRUE(SetConfigField(&config, "short_partition_fraction", 0.25).ok());
  EXPECT_DOUBLE_EQ(config.short_partition_fraction, 0.25);
}

TEST(HawkConfigFieldTest, OutOfRangeIntegerValuesAreRejected) {
  // A negative or huge double must not wrap into an unsigned field (that
  // would pass Validate() and silently run a nonsense sweep point).
  HawkConfig config;
  const HawkConfig untouched = config;
  EXPECT_FALSE(SetConfigField(&config, "probe_ratio", -1.0).ok());
  EXPECT_FALSE(SetConfigField(&config, "num_workers", -100.0).ok());
  EXPECT_FALSE(SetConfigField(&config, "num_workers", 5e18).ok());
  EXPECT_FALSE(SetConfigField(&config, "seed", -1.0).ok());
  EXPECT_FALSE(SetConfigField(&config, "cutoff_us", 1e19).ok());
  EXPECT_EQ(config.probe_ratio, untouched.probe_ratio);
  EXPECT_EQ(config.num_workers, untouched.num_workers);
  // Boundary values that are representable still work.
  EXPECT_TRUE(SetConfigField(&config, "num_workers", 4294967295.0).ok());
  EXPECT_EQ(config.num_workers, 4294967295u);
}

// A field's valid interval, written out here rather than read from the config
// code so that a changed range shows up as a failing row. An infinite end
// means the side is unbounded (up to the type's range for integer fields).
struct FieldRange {
  std::string_view name;
  bool integer;     // Steps by 1 instead of by one ulp.
  char lo_bracket;  // '[' closed, '(' open.
  double lo;
  double hi;
  char hi_bracket;  // ']' closed, ')' open.
};

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr FieldRange kFieldRanges[] = {
    {"big_worker_fraction", false, '[', 0, 1, ']'},
    {"cutoff_us", true, '[', 0, kInf, ']'},
    {"estimate_noise_hi", false, '[', -kInf, 1000, ']'},
    // Above: the cross-field lo <= hi rule, with the base's hi at its maximum.
    {"estimate_noise_lo", false, '(', 0, 1000, ']'},
    {"message_delay_jitter_us", true, '[', 0, kInf, ']'},
    {"message_loss_rate", false, '[', 0, 1, ')'},
    {"net_delay_us", true, '[', 0, kInf, ']'},
    {"num_workers", true, '[', 1, kInf, ']'},
    {"probe_ratio", true, '[', 1, kInf, ']'},
    {"retry_budget", true, '[', 1, kInf, ']'},
    {"short_partition_fraction", false, '[', 0, 1, ')'},
    {"sim_shards", true, '[', 1, kInf, ']'},
    {"slots_per_worker", true, '[', 1, 4096, ']'},
    {"speculation_threshold", false, '[', 0, kInf, ']'},
    {"steal_retry_interval_us", true, '[', 0, kInf, ']'},
    {"straggler_rate", false, '[', 0, 1, ']'},
    {"util_sample_period_us", true, '(', 0, kInf, ']'},
    {"worker_churn_rate", false, '[', 0, kInf, ']'},
    {"worker_crash_rate", false, '[', 0, kInf, ']'},
};

// Sets one field on `config` by name, then validates the result.
Status SetAndValidate(HawkConfig config, std::string_view name, double value) {
  const Status set = SetConfigField(&config, name, value);
  return set.ok() ? config.Validate() : set;
}

TEST(HawkConfigFieldTest, EveryFieldEnforcesItsRange) {
  // Satisfies every cross-field rule at every end below: big slots for a
  // nonzero big-worker fraction, and room above any estimate_noise_lo.
  HawkConfig base;
  base.big_worker_slots = 1;
  base.estimate_noise_hi = 1000;
  ASSERT_TRUE(base.Validate().ok());

  for (const FieldRange& range : kFieldRanges) {
    const std::string name(range.name);
    const auto expect = [&](double value, bool accepted) {
      const Status status = SetAndValidate(base, name, value);
      EXPECT_EQ(status.ok(), accepted) << name << " = " << value << ": " << status.message();
      if (!status.ok()) {
        EXPECT_NE(status.message().find(name), std::string::npos) << status.message();
      }
    };
    const auto step = [&](double end, double toward) {
      return range.integer ? end + (toward > end ? 1.0 : -1.0) : std::nextafter(end, toward);
    };
    if (std::isfinite(range.lo)) {
      const bool open = range.lo_bracket == '(';
      expect(range.lo, !open);
      expect(step(range.lo, -kInf), false);
      if (open) {
        expect(step(range.lo, kInf), true);
      }
    }
    if (std::isfinite(range.hi)) {
      const bool open = range.hi_bracket == ')';
      expect(range.hi, !open);
      expect(step(range.hi, kInf), false);
      if (open) {
        expect(step(range.hi, -kInf), true);
      }
    } else if (!range.integer) {
      expect(kInf, true);
    }
    if (!range.integer) {
      expect(std::numeric_limits<double>::quiet_NaN(), false);
    }
  }
}

// A zero lower noise bound used to pass Validate and then abort inside the
// Estimator; it is now a clean Status, and a small positive bound runs.
TEST(HawkConfigValidateTest, EstimateNoiseLoMustBePositive) {
  HawkConfig config = SmallConfig();
  config.classify_mode = ClassifyMode::kCutoff;
  config.estimate_noise_lo = 0.0;
  const Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("estimate_noise_lo"), std::string::npos) << status.message();

  config.estimate_noise_lo = 0.01;
  config.estimate_noise_hi = 1.0;
  ASSERT_TRUE(config.Validate().ok());
  const RunResult result = RunExperiment(MakeTrace(40, 3), config, "hawk");
  EXPECT_EQ(result.jobs.size(), 40u);
}

// An infinite upper noise bound used to pass Validate, then round to -2^63
// as an estimate and abort in the waiting-time queue. It is now a clean
// Status, and a run at the largest accepted bound completes.
TEST(HawkConfigValidateTest, EstimateNoiseHiIsBounded) {
  HawkConfig config = SmallConfig();
  config.classify_mode = ClassifyMode::kCutoff;
  config.estimate_noise_hi = kInf;
  const Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("estimate_noise_hi"), std::string::npos) << status.message();

  config.estimate_noise_lo = 1000.0;
  config.estimate_noise_hi = 1000.0;
  ASSERT_TRUE(config.Validate().ok());
  const RunResult result = RunExperiment(MakeTrace(40, 3), config, "hawk");
  EXPECT_EQ(result.jobs.size(), 40u);
}

TEST(ExperimentDeathTest, InvalidConfigFailsLoudly) {
  const Trace trace = MakeTrace(10, 1);
  HawkConfig config = SmallConfig();
  config.probe_ratio = 0;
  EXPECT_DEATH({ RunExperiment(trace, config, "hawk"); }, "probe_ratio");
}

TEST(ExperimentDeathTest, UnknownSchedulerFailsLoudly) {
  const Trace trace = MakeTrace(10, 1);
  EXPECT_DEATH({ RunExperiment(trace, SmallConfig(), "no-such-scheduler"); },
               "unknown scheduler");
}

TEST(ExperimentDeathTest, UnknownSweepFieldFailsAtDeclaration) {
  const Trace trace = MakeTrace(10, 1);
  SweepSpec sweep(ExperimentSpec("hawk").WithConfig(SmallConfig()).WithTrace(&trace));
  EXPECT_DEATH({ sweep.Vary("probe_ration", {1, 2}); }, "unknown config field");
}

TEST(ExperimentDeathTest, MissingTraceFailsLoudly) {
  EXPECT_DEATH({ RunExperiment(ExperimentSpec("hawk").WithConfig(SmallConfig())); },
               "has no trace");
}

}  // namespace
}  // namespace hawk
