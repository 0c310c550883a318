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
// The runtime is registry-driven: a run is an ExperimentSpec, resolved by
// the same ResolveSpec the simulator uses, and the policy's RuntimeShape
// (src/scheduler/policy.h) decides which control-plane pieces exist —
// so any registered scheduler, built-in or external, runs on the prototype
// through the same spec it is simulated with ("impl vs sim" for every
// variant, §4.10). Nodes are multi-slot: the spec's slots_per_worker /
// big_worker_fraction / big_worker_slots shape the fleet exactly as they
// shape the simulated cluster.
#ifndef HAWK_RUNTIME_PROTOTYPE_CLUSTER_H_
#define HAWK_RUNTIME_PROTOTYPE_CLUSTER_H_

#include <chrono>
#include <vector>

#include "src/cluster/results.h"
#include "src/common/status.h"
#include "src/scheduler/experiment.h"

namespace hawk {
namespace runtime {

// The prototype's wall-clock harness knobs, and nothing else: the scheduler,
// the cluster's size and slot layout, the policy parameters, the network
// delay, the fault axes and the seeds all come from the ExperimentSpec, the
// same one the simulator runs (`net_delay_us` is read on the wall clock; the
// prototype's traces are already time-scaled, so simulated microseconds are
// wall microseconds).
struct PrototypeConfig {
  // The paper deploys 10 distributed schedulers beside the centralized one.
  uint32_t num_frontends = 10;
  // Hard cap on a run (safety for stuck runs); a timeout logs the jobs still
  // outstanding and returns partial results.
  std::chrono::milliseconds timeout{120'000};
  // Fault recovery, active only when the spec's config enables a fault axis:
  // how long past a task's expected completion its scheduler waits before
  // presuming the node dead and re-dispatching, and how often the reaper
  // scans for overdue work.
  std::chrono::milliseconds fault_detection_timeout{750};
  std::chrono::milliseconds reap_period{100};
  // How often each live node monitor heartbeats the failure detector (only
  // spun up when a fault axis is active). The detector's suspicion floor is
  // FailureDetector::kMinIntervalsMissed x this period.
  std::chrono::milliseconds heartbeat_period{100};
  // How often the utilization sampler snapshots executing slots. The spec's
  // util_sample_period_us is simulated time and is not read here: its 100 s
  // default would outlive most prototype runs.
  std::chrono::microseconds util_sample_period{100'000};

  // Every knob must be positive.
  Status Validate() const;
};

// Runs `spec` — scheduler, HawkConfig and trace (already time-scaled to
// wall-clock-friendly durations) — on the prototype, with the harness knobs
// from `runtime`, and returns the same RunResult shape the simulator
// produces, so benches can compare prototype and simulation directly. The
// spec resolves through ResolveSpec, like RunExperiment's, but any failure
// comes back as an error Status instead of an abort (runtime configs often
// come from flags): a spec RunExperiment rejects, an invalid `runtime`, a
// config the prototype cannot run (worker churn), or a shape it cannot
// execute (short tasks placed centrally while monitors steal, or probes over
// an empty short partition).
StatusOr<RunResult> RunPrototype(const ExperimentSpec& spec,
                                 const PrototypeConfig& runtime = PrototypeConfig());

// Expands `sweep` and runs every grid point on the prototype, serially —
// wall-clock runs must not share the machine — returning labelled results in
// Expand() order. Stops at the first failing point.
StatusOr<std::vector<SweepRun>> RunPrototypeSweep(const SweepSpec& sweep,
                                                  const PrototypeConfig& runtime =
                                                      PrototypeConfig());

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_PROTOTYPE_CLUSTER_H_
