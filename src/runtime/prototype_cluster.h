// The prototype cluster harness (paper §4.10): N node monitors, a set of
// distributed scheduler frontends, and (when the policy's shape asks for
// one) a centralized backend, all communicating over the latency-injecting
// RPC bus. Tasks are sleeps whose durations come from a (typically 1000x
// down-scaled) trace; jobs are submitted in real time following the trace's
// submission times.
//
// This is the in-process equivalent of the paper's 100-node Spark deployment
// with 1 centralized and 10 distributed schedulers: the full scheduling and
// stealing control plane runs with real concurrency and real messaging; only
// the physical network and the Spark executor are replaced (sleep tasks are
// what the paper ran too).
//
// The runtime is registry-driven: a run names a scheduler, the
// SchedulerRegistry resolves it, and the policy's RuntimeShape
// (src/scheduler/policy.h) decides which control-plane pieces exist —
// so any registered scheduler, built-in or external, runs on the prototype
// through the same ExperimentSpec it is simulated with ("impl vs sim" for
// every variant, §4.10). Nodes are multi-slot: the shared HawkConfig's
// slots_per_worker / big_worker_fraction / big_worker_slots shape the fleet
// exactly as they shape the simulated cluster.
#ifndef HAWK_RUNTIME_PROTOTYPE_CLUSTER_H_
#define HAWK_RUNTIME_PROTOTYPE_CLUSTER_H_

#include <chrono>
#include <string>
#include <vector>

#include "src/cluster/results.h"
#include "src/common/status.h"
#include "src/core/hawk_config.h"
#include "src/scheduler/experiment.h"
#include "src/workload/trace.h"

namespace hawk {
namespace runtime {

// One validated config type end to end: everything the simulator also
// understands lives in the embedded HawkConfig (cluster size and slot
// layout, partition fraction, cutoff/classification, probe ratio, steal cap,
// seed); only genuinely wall-clock concerns are runtime fields.
struct PrototypeConfig {
  // Registered scheduler name, resolved through SchedulerRegistry::Global().
  std::string scheduler = "hawk";

  // Shared simulation/runtime parameters. `num_workers` is the node-monitor
  // count; `util_sample_period_us` and `net_delay_us` are interpreted on the
  // wall clock (the prototype's traces are already time-scaled, so simulated
  // microseconds are wall microseconds).
  HawkConfig hawk;

  // The paper deploys 10 distributed schedulers beside the centralized one.
  uint32_t num_frontends = 10;
  // Hard cap on a run (safety for stuck runs); a timeout logs the jobs still
  // outstanding and returns partial results.
  std::chrono::milliseconds timeout{120'000};

  // Fault recovery (active only when the embedded HawkConfig enables any
  // fault axis): how long past a task's expected completion its scheduler
  // waits before presuming the node dead and re-dispatching, and how often
  // the reaper scans for overdue work. Both are wall-clock; the fault axes
  // themselves (worker_crash_rate, message_loss_rate, ...) live in `hawk` so
  // one spec sweeps the simulator and the prototype identically. The
  // prototype implements crashes and wire faults; worker_churn_rate (a
  // simulator refinement of crashing — graceful drain) is ignored here.
  std::chrono::milliseconds fault_detection_timeout{750};
  std::chrono::milliseconds reap_period{100};
  // How often each live node monitor heartbeats the failure detector (only
  // spun up when a fault axis is active). The detector's suspicion floor is
  // FailureDetector::kMinIntervalsMissed x this period.
  std::chrono::milliseconds heartbeat_period{100};

  PrototypeConfig() {
    // Wall-clock-friendly defaults: the simulator's 0.5 ms delay is already
    // right, but 100 s between utilization samples would outlive most
    // prototype runs — sample every 100 ms instead.
    hawk.util_sample_period_us = 100'000;
  }

  // hawk.Validate() plus the runtime-only checks.
  Status Validate() const;
};

// Runs `trace` (already time-scaled to wall-clock-friendly durations) on the
// prototype and returns the same RunResult shape the simulator produces, so
// benches can compare prototype and simulation directly. An unknown
// scheduler name, an invalid config, or a shape the prototype cannot run
// (short tasks placed centrally while monitors steal) returns an error
// Status (runtime configs often come from flags) instead of aborting.
StatusOr<RunResult> RunPrototype(const Trace& trace, const PrototypeConfig& config);

// Spec-driven entry point: the scheduler name, HawkConfig, and trace come
// from `spec` — the exact spec a simulation of the same run would use — and
// the wall-clock knobs come from `runtime`: its frontend, timeout and
// recovery fields plus `runtime.hawk.util_sample_period_us` (the sampler
// period is a wall-clock concern; a spec tuned for the simulator usually
// carries the 100 s sim-time default). The rest of `runtime`'s
// scheduler/hawk fields are ignored. This is what lets one SweepSpec drive both RunSweep (sim)
// and the prototype.
StatusOr<RunResult> RunPrototype(const ExperimentSpec& spec,
                                 const PrototypeConfig& runtime = PrototypeConfig());

// Expands `sweep` and runs every grid point on the prototype, serially —
// wall-clock runs must not share the machine — returning labelled results in
// Expand() order. Stops at the first invalid spec.
StatusOr<std::vector<SweepRun>> RunPrototypeSweep(const SweepSpec& sweep,
                                                  const PrototypeConfig& runtime =
                                                      PrototypeConfig());

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_PROTOTYPE_CLUSTER_H_
