// Heartbeat-based failure detector for the prototype runtime.
//
// Node monitors emit periodic kHeartbeat messages over the (lossy, jittery)
// MessageBus; the detector builds a per-node suspicion signal purely from
// heartbeat arrival times, in the accrual-detector tradition: each node's
// inter-arrival mean and deviation are tracked with the same Jacobson
// estimator the recovery timeouts use (src/core/adaptive_timeout.h), and a
// node whose silence exceeds its adapted threshold is *suspected* — not
// declared dead. Suspicion is advisory and self-healing: frontends steer
// probes away from suspected nodes and thiefs skip them as steal victims,
// but nothing is reaped on suspicion alone (timeout re-dispatch remains the
// recovery mechanism of record), and the first heartbeat after a rejoin
// clears it.
//
// Bootstrap grace: a node is never suspected before its first heartbeat
// arrives, so a cold start (or a detector started mid-run) cannot condemn
// the whole fleet at once.
#ifndef HAWK_RUNTIME_FAILURE_DETECTOR_H_
#define HAWK_RUNTIME_FAILURE_DETECTOR_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "src/core/adaptive_timeout.h"
#include "src/runtime/message_bus.h"

namespace hawk {
namespace runtime {

class FailureDetector {
 public:
  // `expected_interval` is the harness's heartbeat period — the seed for
  // every node's inter-arrival estimate. The suspicion threshold is floored
  // at kMinIntervalsMissed x the interval so ordinary delivery jitter
  // cannot flap a healthy node in and out of suspicion.
  FailureDetector(uint32_t num_nodes, std::chrono::microseconds expected_interval);

  // Registers the kHeartbeat handler at kDetectorAddress. Call before any
  // heartbeat traffic, like every other bus registration.
  void Start(MessageBus* bus);

  // Whether `node` is currently suspected (silent past its adapted
  // threshold). Thread-safe; called from frontend and monitor threads.
  bool Suspected(Address node) const;

  // Total alive -> suspected transitions observed so far.
  uint64_t suspicions() const { return suspicions_.load(std::memory_order_relaxed); }

  static constexpr int64_t kMinIntervalsMissed = 3;

 private:
  struct NodeState {
    explicit NodeState(const AdaptiveTimeout& seed) : interval(seed) {}
    AdaptiveTimeout interval;
    std::chrono::steady_clock::time_point last{};
    bool seen = false;
    bool suspected = false;  // Last verdict, for transition counting.
  };

  void OnHeartbeat(Address node);

  mutable std::mutex mu_;
  mutable std::vector<NodeState> nodes_;
  mutable std::atomic<uint64_t> suspicions_{0};
};

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_FAILURE_DETECTOR_H_
