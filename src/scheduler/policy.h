// Scheduler policy interface.
//
// A policy decides *where* probes and tasks go; the simulation driver owns
// *when* things happen (network delays, queue mechanics, late binding) and
// exposes the minimal placement API below. The threaded prototype runtime
// deploys the same registered policies from their RuntimeShape.
#ifndef HAWK_SCHEDULER_POLICY_H_
#define HAWK_SCHEDULER_POLICY_H_

#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job_tracker.h"
#include "src/cluster/results.h"
#include "src/common/random.h"
#include "src/core/job_classifier.h"
#include "src/core/stealing_policy.h"
#include "src/workload/job.h"

namespace hawk {

class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  virtual SimTime Now() const = 0;
  virtual Rng& SchedRng() = 0;
  virtual Cluster& GetCluster() = 0;
  virtual JobTracker& Tracker() = 0;
  virtual RunCounters& Counters() = 0;

  // Sends a probe for `job` to `worker`; arrives after one network delay.
  virtual void PlaceProbe(WorkerId worker, JobId job, bool is_long) = 0;

  // Sends a concrete task to `worker`; arrives after one network delay.
  virtual void PlaceTask(WorkerId worker, JobId job, TaskIndex task_index, DurationUs duration,
                         bool is_long) = 0;

  // Sends a *speculative duplicate* of an already-running task to `worker`.
  // The copy is outside JobTracker ownership: the first completion of the
  // pair wins, the loser is deduplicated and counted as speculative waste.
  // Only called from SchedulerPolicy::OnTaskStraggling implementations.
  virtual void PlaceSpeculative(WorkerId worker, JobId job, TaskIndex task_index,
                                DurationUs duration, bool is_long) = 0;

  // Appends stolen entries to the thief's queue. Only call for the worker the
  // current OnWorkerIdle() notification is about; the driver re-examines that
  // queue when the notification returns (stealing is free in the simulation
  // cost model, §4.1).
  virtual void DeliverStolen(WorkerId thief, const std::vector<QueueEntry>& entries) = 0;
};

// A scheduler's control-plane shape, read by both executors. The threaded
// prototype runtime (src/runtime/) assembles the matching frontends, backend
// and stealing configuration from it, since its state lives across
// node-monitor threads; in the simulator, HawkPolicy's callbacks branch on
// the same fields, and the driver gates steal retries on `stealing`. Every
// built-in scheduler is a HawkPolicy with its own design shape: the paper's
// baselines are Hawk with parts taken away. Probe placement is uniform over
// the declared slot span (the paper's §3.5 mechanism); a policy whose
// simulated placement inspects live queue state (e.g. the "hawk-lb" example)
// degrades to uniform probing on the prototype — exactly the paper's argument
// that such state is impractical to keep fresh over a real network.
struct RuntimeShape {
  // Slot spans, resolved against the runtime's cluster layout. The general
  // partition is a slot-id prefix, the short partition the complementary
  // suffix (see Cluster).
  enum class ProbeSpan : uint8_t { kWholeCluster, kGeneralPartition, kShortPartition };

  // Long jobs are placed centrally: by the §3.7 waiting-time queue over the
  // general partition (the prototype's backend, HawkPolicy's central queue).
  // Off: they are probed over long_probe_span.
  bool centralized_long = true;
  // Short jobs are placed centrally too (the §4.5 baseline).
  bool centralized_short = false;
  // Idle node monitors steal blocked short work (§3.6).
  bool stealing = true;
  // Steal-victim contact order (kDChoice degrades to kRandom on the
  // prototype: its static layout cluster carries no live queue state).
  StealingPolicy::VictimSelection victim_selection = StealingPolicy::VictimSelection::kRandom;
  ProbeSpan short_probe_span = ProbeSpan::kWholeCluster;
  ProbeSpan long_probe_span = ProbeSpan::kGeneralPartition;
};

// A slot-id range [first, first + count).
struct SlotSpan {
  SlotId first = 0;
  uint32_t count = 0;
};

// Resolves a probe span against `cluster`'s partition layout.
inline SlotSpan ResolveProbeSpan(const Cluster& cluster, RuntimeShape::ProbeSpan span) {
  const auto total = static_cast<uint32_t>(cluster.TotalSlots());
  switch (span) {
    case RuntimeShape::ProbeSpan::kWholeCluster:
      return SlotSpan{0, total};
    case RuntimeShape::ProbeSpan::kGeneralPartition:
      return SlotSpan{0, cluster.GeneralSlots()};
    case RuntimeShape::ProbeSpan::kShortPartition:
      return SlotSpan{cluster.GeneralSlots(), total - cluster.GeneralSlots()};
  }
  HAWK_CHECK(false) << "unhandled probe span";
  return SlotSpan{};
}

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual void Attach(SchedulerContext* ctx) { ctx_ = ctx; }

  // The shape both executors read (see RuntimeShape): the policy's design
  // shape resolved against the config's §4.4 component settings.
  // use_centralized_long=0 removes the long central lane, and steal_cap=0
  // removes stealing; short_partition_fraction=0 acts through the general-
  // partition size instead. Called on a fresh, unattached instance —
  // implementations must not touch ctx_.
  virtual RuntimeShape ShapeForRuntime(const HawkConfig& config) const {
    RuntimeShape shape = design_;
    shape.centralized_long = shape.centralized_long && config.use_centralized_long;
    shape.stealing = shape.stealing && config.steal_cap > 0;
    return shape;
  }

  // A job arrived; `cls` carries the scheduling and metrics classifications
  // and the (possibly noisy) runtime estimate.
  virtual void OnJobArrival(const Job& job, const JobClass& cls) = 0;

  // `worker` ran out of work (empty queue, nothing executing). Policies may
  // steal here via DeliverStolen().
  virtual void OnWorkerIdle(WorkerId worker) { (void)worker; }

  // Execution feedback — in the real system, node monitors report these to
  // the schedulers; centralized components use them to keep their waiting-
  // time view synchronized with reality (§3.7).
  virtual void OnTaskStart(WorkerId worker, const QueueEntry& task) {
    (void)worker;
    (void)task;
  }
  virtual void OnTaskFinish(WorkerId worker, JobId job, bool is_long) {
    (void)worker;
    (void)job;
    (void)is_long;
  }

  // --- fault re-dispatch ---------------------------------------------------
  // Only invoked by the fault layer; fault-free runs never call these.

  // A placed task died (its worker crashed, or its delivery was invalidated)
  // and was handed back through JobTracker::ReturnTask just before this call.
  // The policy must give the job a fresh path to a grant. The default
  // re-probes over the span the job's class is normally probed over (long ->
  // general partition, short -> whole cluster), which is right for every
  // probe-based policy; centralized policies override and re-place instead.
  virtual void OnTaskLost(JobId job, bool is_long) { ReProbe(job, is_long); }

  // A probe died with its worker (queued there, in flight to it, or parked
  // on a late-binding request). A replacement is probed only while the job
  // still has unassigned tasks — surplus probes would just resolve to
  // cancels, so they are not replaced.
  virtual void OnProbeLost(JobId job, bool is_long) {
    if (ctx_->Tracker().AllTasksAssigned(job)) {
      return;
    }
    ReProbe(job, is_long);
  }

  // --- speculative re-execution --------------------------------------------
  // Effective speculation threshold under `config`; <= 0 disables the
  // subsystem. The default passes the config knob through; the "hawk-spec"
  // registered variant overrides with a default-on threshold so speculation
  // falls out of the registry without touching the config. Called on a
  // fresh, unattached instance — implementations must not touch ctx_.
  virtual double SpeculationThreshold(const HawkConfig& config) const {
    return config.speculation_threshold;
  }

  // A running copy of (job, task_index) has exceeded
  // speculation_threshold x the job's estimated task runtime and the driver
  // decided to speculate. The policy picks where the duplicate goes and
  // places it via PlaceSpeculative; the default mirrors ReProbe's span rule
  // (long -> general partition, short -> anywhere), choosing a uniformly
  // random slot. Centralized placements are deliberately not reused here:
  // a straggler's duplicate must not queue behind the same backlog that
  // delayed the original, so a random lightly-loaded node is the point.
  virtual void OnTaskStraggling(JobId job, TaskIndex task_index, DurationUs duration,
                                bool is_long) {
    Cluster& cluster = ctx_->GetCluster();
    const uint64_t span = is_long ? cluster.GeneralSlots() : cluster.TotalSlots();
    const auto slot = static_cast<SlotId>(ctx_->SchedRng().NextBounded(span));
    ctx_->PlaceSpeculative(cluster.WorkerOfSlot(slot), job, task_index, duration, is_long);
  }

  virtual std::string_view Name() const = 0;

 protected:
  // One replacement probe on a uniformly random slot; long jobs stay inside
  // the general partition (§3.4 containment), short jobs may go anywhere.
  void ReProbe(JobId job, bool is_long) {
    Cluster& cluster = ctx_->GetCluster();
    const uint64_t span = is_long ? cluster.GeneralSlots() : cluster.TotalSlots();
    const auto slot = static_cast<SlotId>(ctx_->SchedRng().NextBounded(span));
    ctx_->PlaceProbe(cluster.WorkerOfSlot(slot), job, is_long);
  }

  SchedulerContext* ctx_ = nullptr;
  // The shape this policy is built to run before the §4.4 settings apply. The
  // default is Hawk's own, which externally registered Hawk variants share.
  RuntimeShape design_;
};

}  // namespace hawk

#endif  // HAWK_SCHEDULER_POLICY_H_
