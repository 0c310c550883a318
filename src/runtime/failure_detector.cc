#include "src/runtime/failure_detector.h"

#include "src/common/check.h"
#include "src/runtime/proto_messages.h"

namespace hawk {
namespace runtime {

using Clock = std::chrono::steady_clock;

FailureDetector::FailureDetector(uint32_t num_nodes,
                                 std::chrono::microseconds expected_interval) {
  const auto interval_us = static_cast<double>(expected_interval.count());
  // Floor at kMinIntervalsMissed heartbeats: with a healthy node the
  // estimator converges to srtt ~ interval and a small deviation, so without
  // the floor one jittered delivery would trip suspicion every period.
  const AdaptiveTimeout seed(interval_us,
                             kMinIntervalsMissed * std::max<DurationUs>(
                                                       expected_interval.count(), 1),
                             64 * std::max<DurationUs>(expected_interval.count(), 1));
  nodes_.assign(num_nodes, NodeState(seed));
}

void FailureDetector::Start(MessageBus* bus) {
  HAWK_CHECK(bus != nullptr);
  bus->Register(kDetectorAddress, [this](const BusMessage& message) {
    HAWK_CHECK_EQ(message.type, kHeartbeat)
        << "failure detector got unexpected message type " << message.type;
    OnHeartbeat(std::get<HeartbeatMsg>(message.payload).node);
  });
}

void FailureDetector::OnHeartbeat(Address node) {
  std::lock_guard<std::mutex> lock(mu_);
  HAWK_CHECK_LT(node, nodes_.size()) << "heartbeat from unknown node " << node;
  NodeState& state = nodes_[node];
  const Clock::time_point now = Clock::now();
  if (state.seen) {
    state.interval.AddSample(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - state.last).count()));
  }
  state.seen = true;
  state.last = now;
  state.suspected = false;  // Any heartbeat rehabilitates — rejoin complete.
}

bool FailureDetector::Suspected(Address node) const {
  std::lock_guard<std::mutex> lock(mu_);
  HAWK_CHECK_LT(node, nodes_.size()) << "suspicion query for unknown node " << node;
  NodeState& state = nodes_[node];
  if (!state.seen) {
    return false;  // Bootstrap grace.
  }
  const int64_t silent_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                Clock::now() - state.last)
                                .count();
  const bool suspected = silent_us > state.interval.TimeoutUs();
  if (suspected && !state.suspected) {
    suspicions_.fetch_add(1, std::memory_order_relaxed);
  }
  state.suspected = suspected;
  return suspected;
}

}  // namespace runtime
}  // namespace hawk
