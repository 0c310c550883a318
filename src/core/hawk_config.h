// Configuration for the Hawk scheduler and the experiment harness.
//
// Defaults follow the paper's §4.1 "Parameters": probe ratio 2, steal cap 10,
// cutoff 1129 s (Google trace), 0.5 ms one-way network delay, utilization
// sampled every 100 s, short partition sized from the long-job task-seconds
// share (17% for the Google trace).
#ifndef HAWK_CORE_HAWK_CONFIG_H_
#define HAWK_CORE_HAWK_CONFIG_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/cluster/worker_store.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace hawk {

// How jobs are split into long/short for scheduling and metrics.
enum class ClassifyMode : uint8_t {
  // Compare the (possibly noise-injected) per-job average task runtime
  // against the cutoff — the paper's mechanism (§3.3), used for Google runs.
  kCutoff,
  // Use the generator's ground-truth cluster label — the paper's definition
  // for the synthetic Cloudera/Facebook/Yahoo traces (§4.1).
  kHint,
};

struct HawkConfig {
  uint32_t num_workers = 1500;

  // Concurrent task slots per worker (paper §4.1 models multi-slot nodes as
  // more single-slot workers; here the slots share one FIFO queue). Probe
  // placement and steal-victim selection sample the slot space, so capacity
  // weights placement automatically.
  uint32_t slots_per_worker = 1;

  // Heterogeneous capacity: this fraction of workers (spread evenly across
  // the id space) is upgraded to `big_worker_slots` slots instead of
  // `slots_per_worker`. 0 / 0 disables the upgrade.
  double big_worker_fraction = 0.0;
  uint32_t big_worker_slots = 0;

  // Fraction of workers reserved for short tasks only (§3.4). Hawk sizes it
  // from the long jobs' task-seconds share; see PartitionFromMix().
  double short_partition_fraction = 0.17;

  // Long/short cutoff on estimated task runtime (§3.3).
  DurationUs cutoff_us = SecondsToUs(1129.0);
  ClassifyMode classify_mode = ClassifyMode::kCutoff;

  // Estimate mis-estimation range (§4.8): the true average is multiplied by
  // U(noise_lo, noise_hi). 1.0/1.0 disables noise.
  double estimate_noise_lo = 1.0;
  double estimate_noise_hi = 1.0;

  // Sparrow-style probing (§3.5): probes per task.
  uint32_t probe_ratio = 2;

  // Randomized stealing (§3.6): max random victims contacted per idle
  // transition. 0 disables stealing outright.
  uint32_t steal_cap = 10;

  // Extension beyond the paper: when > 0, a worker whose steal attempt found
  // nothing retries after this interval for as long as it stays idle (the
  // paper's design is one bounded round per idle transition). Exercised by
  // `hawk_figures --figure=ablation-steal-retry`.
  DurationUs steal_retry_interval_us = 0;

  // Feature toggles for the §4.4 component breakdown.
  bool use_centralized_long = true;  // Off: long jobs probe the general partition.
  bool use_partition = true;         // Off: the whole cluster is general.
  bool use_stealing = true;

  // Simulation cost model (§4.1): one-way network delay; scheduling and
  // stealing decisions are free.
  DurationUs net_delay_us = MillisToUs(0.5);

  DurationUs util_sample_period_us = SecondsToUs(100.0);

  uint64_t seed = 42;

  // --- sharded simulation ---------------------------------------------------
  // Number of worker-store shards the simulation executor may advance in
  // parallel within one run. 1 (the default) selects the serial driver and is
  // byte-identical to builds without the sharded executor. Values > 1 select
  // the epoch-synchronized sharded executor: results are bit-identical across
  // thread counts and across shard counts > 1 for a given seed, but are a
  // sanctioned divergence from sim_shards=1 (stealing commits at epoch
  // barriers and straggler draws use per-worker substreams; pinned by the
  // golden-result fixtures). Simulation-only: the prototype runtime ignores
  // this knob.
  uint32_t sim_shards = 1;

  // OS threads driving the shard phases. 0 (the default) uses
  // min(sim_shards, hardware concurrency). Non-semantic: any value yields
  // bit-identical results for a fixed sim_shards.
  uint32_t sim_threads = 0;

  // --- fault injection ------------------------------------------------------
  // All knobs default to zero: a zero-fault run draws nothing from the fault
  // RNG and is byte-identical to a build without the fault layer.

  // Fail-stop crashes per worker-second (Poisson). A crashed worker loses its
  // queue and its in-flight tasks; lost tasks are handed back to their
  // scheduler lane for re-dispatch and the worker rejoins empty after
  // `worker_downtime_us`.
  double worker_crash_rate = 0.0;

  // Graceful departures per worker-second (Poisson). A departing worker
  // bounces queued and newly arriving entries back to their schedulers but
  // lets executing tasks finish, then rejoins after `worker_downtime_us`.
  double worker_churn_rate = 0.0;

  // How long a crashed or departed worker stays out of service.
  DurationUs worker_downtime_us = SecondsToUs(30.0);

  // Probability in [0, 1) that a probe/task delivery is dropped. Drops are
  // detected by a sender timeout and retransmitted (4x net_delay_us per
  // retry), so no message is lost forever — only delayed.
  double message_loss_rate = 0.0;

  // Extra per-delivery latency, uniform in [0, jitter]. Nonzero jitter makes
  // delivery order differ from send order, like a real network.
  DurationUs message_delay_jitter_us = 0;

  // Extra seed mixed into the fault RNG stream: sweeping fault_seed re-rolls
  // crash times and message drops while keeping workload and scheduler
  // decisions pinned to `seed`.
  uint64_t fault_seed = 0;

  // Probability in [0, 1] that a task execution is stricken slow: the copy
  // runs straggler_slowdown_factor times its duration (the extra time is
  // wasted work). The node stays alive and responsive — only this execution
  // drags — which is the failure mode crash injection cannot model.
  double straggler_rate = 0.0;

  // How much slower a stricken execution runs (> 1). Inert at
  // straggler_rate == 0.
  double straggler_slowdown_factor = 8.0;

  // Speculative re-execution (> 0 enables): when a running task's elapsed
  // time exceeds speculation_threshold x the job's estimated task runtime,
  // one duplicate copy is launched; the first completion wins and the loser
  // is counted as speculative waste. 0 disables speculation entirely.
  double speculation_threshold = 0.0;

  // Max retransmits per delivery under message loss. When the budget is
  // spent the sender abandons the delivery (counted, recovered through the
  // same lost-task/lost-probe lanes a crash uses) instead of retrying
  // forever — a storm limiter, not a correctness knob.
  uint32_t retry_budget = 16;

  // True when any fault axis is active (drives the fault-only bookkeeping in
  // the driver and the prototype).
  bool FaultsEnabled() const {
    return worker_crash_rate > 0.0 || worker_churn_rate > 0.0 ||
           message_loss_rate > 0.0 || message_delay_jitter_us > 0 ||
           straggler_rate > 0.0;
  }

  // True when the speculative re-execution subsystem is on.
  bool SpeculationEnabled() const { return speculation_threshold > 0.0; }

  // Sanity-checks the configuration; run entry points call this so a bad
  // config fails loudly instead of silently producing a nonsense run.
  Status Validate() const;

  // Size of the general partition (workers [0, GeneralCount())), sized by
  // worker count; the general partition never vanishes entirely.
  uint32_t GeneralCount() const;

  // Per-worker capacity layout for Cluster/WorkerStore construction.
  SlotSpec Slots() const {
    SlotSpec spec;
    spec.slots_per_worker = slots_per_worker;
    spec.big_worker_fraction = big_worker_fraction;
    spec.big_worker_slots = big_worker_slots;
    return spec;
  }
};

// Named numeric access to HawkConfig fields — the hook SweepSpec::Vary uses
// to declare sweep axes by field name. Integer fields truncate the double;
// boolean toggles treat nonzero as true. Unknown names return an error.
Status SetConfigField(HawkConfig* config, std::string_view field, double value);

// All field names SetConfigField accepts, sorted.
std::vector<std::string_view> ConfigFieldNames();

}  // namespace hawk

#endif  // HAWK_CORE_HAWK_CONFIG_H_
