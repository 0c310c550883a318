// In-process message bus with latency injection — the Thrift stand-in for
// the prototype runtime (paper §3.8).
//
// Endpoints register handlers under integer addresses. Senders enqueue typed
// messages (proto_messages.h); a delivery thread dispatches each one to its
// destination handler after the configured network latency. Handlers run on
// the delivery thread, mirroring a Thrift server's worker; replies are just
// messages sent back to the caller's address. One-way messages plus
// request/response correlation ids cover everything the node monitors and
// schedulers need.
#ifndef HAWK_RUNTIME_MESSAGE_BUS_H_
#define HAWK_RUNTIME_MESSAGE_BUS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/runtime/proto_messages.h"

namespace hawk {
namespace runtime {

struct BusMessage {
  Address from = 0;
  Address to = 0;
  MessageType type = kJobSubmit;
  Message payload;
};

class MessageBus {
 public:
  // `latency` is the injected one-way delivery delay (wall clock).
  explicit MessageBus(std::chrono::microseconds latency, uint32_t delivery_threads = 2);
  ~MessageBus();

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  using Handler = std::function<void(const BusMessage&)>;

  // Fault injection for the wire: messages of a Droppable type
  // (proto_messages.h) are lost with probability `loss_rate` at send time,
  // and every delivery is delayed by an extra Uniform[0, jitter] on top of
  // the base latency.
  struct FaultInjection {
    double loss_rate = 0.0;
    std::chrono::microseconds jitter{0};
    uint64_t seed = 0;
  };

  // Enables wire faults. Call before any traffic (like Register).
  void EnableFaults(const FaultInjection& faults);

  // Registers the handler for `address`. Must happen before messages are
  // sent to that address. Not thread-safe against concurrent Send.
  void Register(Address address, Handler handler);

  // Enqueues a message for delivery after the bus latency. `payload` must
  // hold the struct `type` carries (CarriesType). Thread-safe.
  void Send(Address from, Address to, MessageType type, Message payload);

  // Blocks until every message enqueued so far has been delivered.
  void Drain();

  // Stops delivery threads; undelivered messages are dropped.
  void Shutdown();

  uint64_t MessagesDelivered() const;
  uint64_t MessagesDropped() const;

 private:
  struct Pending {
    std::chrono::steady_clock::time_point deliver_at;
    uint64_t seq;
    BusMessage message;
    bool operator>(const Pending& other) const {
      if (deliver_at != other.deliver_at) {
        return deliver_at > other.deliver_at;
      }
      return seq > other.seq;
    }
  };

  void DeliveryLoop();

  const std::chrono::microseconds latency_;
  // Wire faults; inert until EnableFaults. The RNG is guarded by mu_ (Send
  // already holds it), so concurrent senders draw from one stream.
  FaultInjection faults_;
  bool faults_enabled_ = false;
  Rng fault_rng_{0};
  uint64_t dropped_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue_;
  std::unordered_map<Address, Handler> handlers_;
  std::vector<std::thread> threads_;
  uint64_t next_seq_ = 0;
  uint64_t delivered_ = 0;
  uint32_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_MESSAGE_BUS_H_
