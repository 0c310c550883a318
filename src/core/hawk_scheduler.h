// The Hawk hybrid scheduler (paper §3) — the primary contribution — and, run
// from other design shapes, every built-in baseline.
//
// A HawkPolicy executes a RuntimeShape, the description the prototype
// runtime assembles its control plane from. A class the shape centralizes is
// placed by the §3.7 waiting-time queue over the general partition; every
// other class is probed Sparrow-style over its slot span (§3.5); idle
// workers steal blocked short work from random general-partition victims
// when the shape steals (§3.6). Hawk's design shape is RuntimeShape{}; the
// paper's baselines are Hawk with parts taken away — sparrow, centralized and
// split are shape literals at their registration (experiment.cc) — and the
// §4.4 component settings ("Hawk w/out centralized / partition / stealing":
// use_centralized_long=0, short_partition_fraction=0, steal_cap=0) take
// parts away from whichever design the policy runs.
#ifndef HAWK_CORE_HAWK_SCHEDULER_H_
#define HAWK_CORE_HAWK_SCHEDULER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/hawk_config.h"
#include "src/core/slot_waiting_queue.h"
#include "src/core/stealing_policy.h"
#include "src/scheduler/policy.h"

namespace hawk {

class HawkPolicy : public SchedulerPolicy {
 public:
  // `design` is the shape before the config's §4.4 settings apply; `name` is what
  // Name() reports.
  explicit HawkPolicy(const HawkConfig& config, const RuntimeShape& design = RuntimeShape{},
                      std::string_view name = "hawk")
      : config_(config), name_(name) {
    design_ = design;
  }

  void Attach(SchedulerContext* ctx) override;

  void OnJobArrival(const Job& job, const JobClass& cls) override;
  void OnWorkerIdle(WorkerId worker) override;
  void OnTaskStart(WorkerId worker, const QueueEntry& task) override;
  void OnTaskFinish(WorkerId worker, JobId job, bool is_long) override;
  void OnTaskLost(JobId job, bool is_long) override;
  void OnProbeLost(JobId job, bool is_long) override;

  std::string_view Name() const override { return name_; }

  const HawkConfig& config() const { return config_; }

 protected:
  // Whether the resolved shape places `is_long`'s class centrally.
  bool Centralized(bool is_long) const {
    return is_long ? shape_.centralized_long : shape_.centralized_short;
  }

  // Places every task of a centrally placed job. Virtual so "hawk-latebind"
  // can aim probes at the minimum-wait workers instead of binding eagerly.
  virtual void ScheduleCentralized(const Job& job, bool is_long);

  SlotWaitingTimeQueue& central_queue() { return *central_queue_; }

 private:
  // Binds the job's next task to the minimum-wait worker.
  void PlaceCentralTask(JobId job, DurationUs estimate_us, bool is_long);
  // One replacement probe on a uniformly random slot of the class's span.
  void ProbeOnce(JobId job, bool is_long);

  HawkConfig config_;
  std::string name_;
  // The design shape resolved against config_ (ShapeForRuntime) at Attach.
  RuntimeShape shape_;
  // Probe span per class, indexed by is_long.
  SlotSpan spans_[2];
  // Waiting-time queue over the general partition's slots only (§3.7).
  std::unique_ptr<SlotWaitingTimeQueue> central_queue_;
  std::unique_ptr<StealingPolicy> stealing_;
  // Probe-placement scratch (slot ids), reused across job arrivals.
  std::vector<SlotId> targets_;
  std::vector<uint32_t> picks_;
};

// "hawk-spec" registered variant: Hawk with speculative re-execution forced
// on. A config that sets speculation_threshold explicitly still wins;
// otherwise the variant supplies kDefaultSpeculationThreshold, so sweeping
// {"hawk", "hawk-spec"} under one config isolates the effect of speculation.
class HawkSpecPolicy : public HawkPolicy {
 public:
  static constexpr double kDefaultSpeculationThreshold = 2.0;

  explicit HawkSpecPolicy(const HawkConfig& config)
      : HawkPolicy(config, RuntimeShape{}, "hawk-spec") {}

  double SpeculationThreshold(const HawkConfig& config) const override {
    return config.speculation_threshold > 0.0 ? config.speculation_threshold
                                              : kDefaultSpeculationThreshold;
  }
};

// "hawk-latebind" registered variant: the centralized long-job lane places
// *probes* on the minimum-wait workers instead of binding tasks eagerly, so
// the driver's late-binding request machinery (§3.5) hands out tasks in
// probe-service order. The waiting-time accounting is unchanged — one
// AssignTask charge per probe, discharged when the granted task starts on
// that worker, which the per-worker FIFO protocol covers because a worker
// serves its probes in placement order. Lost probes are replaced through the
// waiting-time queue (HawkPolicy::OnProbeLost) so the min-wait property
// survives faults. On the prototype runtime the variant degrades to the
// eager centralized backend, like every placement nuance that needs live
// central state (see RuntimeShape).
class HawkLateBindPolicy : public HawkPolicy {
 public:
  explicit HawkLateBindPolicy(const HawkConfig& config)
      : HawkPolicy(config, RuntimeShape{}, "hawk-latebind") {}

 protected:
  void ScheduleCentralized(const Job& job, bool is_long) override;
};

}  // namespace hawk

#endif  // HAWK_CORE_HAWK_SCHEDULER_H_
