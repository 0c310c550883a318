#include "src/runtime/message_bus.h"

#include "src/common/check.h"

namespace hawk {
namespace runtime {

MessageBus::MessageBus(std::chrono::microseconds latency, uint32_t delivery_threads)
    : latency_(latency) {
  HAWK_CHECK_GT(delivery_threads, 0u);
  threads_.reserve(delivery_threads);
  for (uint32_t i = 0; i < delivery_threads; ++i) {
    threads_.emplace_back([this] { DeliveryLoop(); });
  }
}

MessageBus::~MessageBus() { Shutdown(); }

void MessageBus::Register(Address address, Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  HAWK_CHECK(handlers_.emplace(address, std::move(handler)).second)
      << "duplicate bus address " << address;
}

void MessageBus::EnableFaults(const FaultInjection& faults) {
  std::lock_guard<std::mutex> lock(mu_);
  HAWK_CHECK_GE(faults.loss_rate, 0.0);
  HAWK_CHECK_LT(faults.loss_rate, 1.0);
  faults_ = faults;
  faults_enabled_ = true;
  fault_rng_ = Rng(faults.seed);
}

void MessageBus::Send(Address from, Address to, MessageType type, Message payload) {
  HAWK_CHECK(CarriesType(type, payload))
      << "message type " << type << " sent with payload alternative " << payload.index();
  std::lock_guard<std::mutex> lock(mu_);
  HAWK_CHECK(!shutdown_) << "send on stopped bus";
  auto deliver_at = std::chrono::steady_clock::now() + latency_;
  if (faults_enabled_) {
    if (faults_.loss_rate > 0.0 && Droppable(type) &&
        fault_rng_.Bernoulli(faults_.loss_rate)) {
      ++dropped_;
      return;
    }
    if (faults_.jitter.count() > 0) {
      deliver_at += std::chrono::microseconds(
          fault_rng_.UniformInt(0, faults_.jitter.count()));
    }
  }
  Pending pending;
  pending.deliver_at = deliver_at;
  pending.seq = next_seq_++;
  pending.message = BusMessage{from, to, type, std::move(payload)};
  queue_.push(std::move(pending));
  cv_.notify_one();
}

void MessageBus::DeliveryLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (shutdown_) {
      return;
    }
    if (queue_.empty()) {
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      continue;
    }
    const auto deliver_at = queue_.top().deliver_at;
    const auto now = std::chrono::steady_clock::now();
    if (deliver_at > now) {
      cv_.wait_until(lock, deliver_at);
      continue;
    }
    BusMessage message = std::move(const_cast<Pending&>(queue_.top()).message);
    queue_.pop();
    const auto it = handlers_.find(message.to);
    HAWK_CHECK(it != handlers_.end()) << "no handler for bus address " << message.to;
    Handler& handler = it->second;
    ++in_flight_;
    lock.unlock();
    handler(message);
    lock.lock();
    --in_flight_;
    ++delivered_;
    if (queue_.empty() && in_flight_ == 0) {
      drained_cv_.notify_all();
    }
  }
}

void MessageBus::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return (queue_.empty() && in_flight_ == 0) || shutdown_; });
}

void MessageBus::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  cv_.notify_all();
  drained_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

uint64_t MessageBus::MessagesDelivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

uint64_t MessageBus::MessagesDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace runtime
}  // namespace hawk
