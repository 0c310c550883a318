// Tests for the prototype's in-process message bus: typed delivery, latency
// injection, drain semantics, the tag/payload check at the sender, and the
// wire fault injection (loss restricted to droppable types, seeded
// replayable drops, jittered delivery bounds).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <vector>

#include "src/runtime/message_bus.h"
#include "src/runtime/proto_messages.h"

namespace hawk {
namespace runtime {
namespace {

// hawk-lint: allow(HL003) these tests measure the bus's real delivery times
using Clock = std::chrono::steady_clock;
Clock::time_point Now() { return Clock::now(); }

TEST(MessageBusTest, DeliversTheTypedPayload) {
  MessageBus bus(std::chrono::microseconds(0));
  std::atomic<int> received{0};
  bus.Register(1, [&](const BusMessage& m) {
    EXPECT_EQ(m.from, 7u);
    EXPECT_EQ(m.type, kTaskGrant);
    const TaskMsg& task = std::get<TaskMsg>(m.payload);
    EXPECT_EQ(task.job, 5u);
    EXPECT_EQ(task.task_index, 9u);
    EXPECT_EQ(task.duration_us, 777);
    EXPECT_TRUE(task.is_long);
    EXPECT_EQ(task.owner, kFrontendBase);
    received.fetch_add(1);
  });
  bus.Send(7, 1, kTaskGrant, TaskMsg::Grant(5, 9, 777, /*is_long=*/true, kFrontendBase));
  bus.Drain();
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(bus.MessagesDelivered(), 1u);
}

TEST(MessageBusTest, ManyMessagesAllDelivered) {
  MessageBus bus(std::chrono::microseconds(0), 4);
  std::atomic<int> received{0};
  for (Address a = 0; a < 10; ++a) {
    bus.Register(a, [&](const BusMessage&) { received.fetch_add(1); });
  }
  for (int i = 0; i < 1000; ++i) {
    bus.Send(0, static_cast<Address>(i % 10), kHeartbeat, HeartbeatMsg::From(0));
  }
  bus.Drain();
  EXPECT_EQ(received.load(), 1000);
}

TEST(MessageBusTest, LatencyIsInjected) {
  MessageBus bus(std::chrono::microseconds(20'000));  // 20 ms
  std::atomic<bool> received{false};
  bus.Register(1, [&](const BusMessage&) { received.store(true); });
  const auto start = Now();
  bus.Send(0, 1, kHeartbeat, HeartbeatMsg::From(0));
  bus.Drain();
  const auto elapsed = Now() - start;

  EXPECT_TRUE(received.load());
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 19);
}

TEST(MessageBusTest, HandlersCanSendMessages) {
  // Ping-pong: handler for A forwards to B, which counts.
  MessageBus bus(std::chrono::microseconds(0));
  std::atomic<int> count{0};
  bus.Register(1, [&](const BusMessage& m) { bus.Send(1, 2, m.type, m.payload); });
  bus.Register(2, [&](const BusMessage&) { count.fetch_add(1); });
  for (int i = 0; i < 10; ++i) {
    bus.Send(0, 1, kHeartbeat, HeartbeatMsg::From(0));
  }
  bus.Drain();
  EXPECT_EQ(count.load(), 10);
}

TEST(MessageBusTest, ShutdownIsIdempotent) {
  MessageBus bus(std::chrono::microseconds(0));
  bus.Shutdown();
  bus.Shutdown();
}

TEST(MessageBusDeathTest, SendRejectsAPayloadOfAnotherType) {
  // The mismatch fails at the sender, before the message is queued.
  EXPECT_DEATH(
      {
        MessageBus bus(std::chrono::microseconds(0));
        bus.Register(1, [](const BusMessage&) {});
        bus.Send(0, 1, kProbe, HeartbeatMsg::From(0));
      },
      "message type 2 sent with payload alternative 6");
}

// --- wire faults -------------------------------------------------------------

// Sends `count` heartbeats from one thread, each carrying its index in the
// node field, and returns the indices delivered, sorted.
std::vector<uint32_t> SendCycle(MessageBus* bus, uint32_t count) {
  std::mutex mu;
  std::vector<uint32_t> delivered;
  bus->Register(1, [&](const BusMessage& m) {
    std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(std::get<HeartbeatMsg>(m.payload).node);
  });
  for (uint32_t i = 0; i < count; ++i) {
    bus->Send(0, 1, kHeartbeat, HeartbeatMsg::From(i));
  }
  bus->Drain();
  std::sort(delivered.begin(), delivered.end());
  return delivered;
}

MessageBus::FaultInjection Lossy(uint64_t seed) {
  MessageBus::FaultInjection faults;
  faults.loss_rate = 0.3;
  faults.seed = seed;
  faults.droppable = [](MessageType type) { return type == kProbe || type == kHeartbeat; };
  return faults;
}

TEST(MessageBusFaultTest, OnlyDroppableTypesAreLost) {
  MessageBus bus(std::chrono::microseconds(0), 2);
  bus.EnableFaults(Lossy(5));
  std::mutex mu;
  std::map<MessageType, int> received;
  bus.Register(1, [&](const BusMessage& m) {
    std::lock_guard<std::mutex> lock(mu);
    ++received[m.type];
  });
  constexpr int kEach = 500;
  for (int i = 0; i < kEach; ++i) {
    bus.Send(0, 1, kProbe, ProbeMsg::Make(1, kFrontendBase, 0, false));
    bus.Send(0, 1, kHeartbeat, HeartbeatMsg::From(0));
    bus.Send(0, 1, kTaskGrant, TaskMsg::Grant(1, 0, 10, false, kFrontendBase));
    bus.Send(0, 1, kStealRequest, StealRequestMsg::From(0));
  }
  bus.Drain();
  EXPECT_EQ(received[kTaskGrant], kEach);
  EXPECT_EQ(received[kStealRequest], kEach);
  // At 30% loss, 500 sends of a droppable type lose some and keep most.
  for (const MessageType type : {kProbe, kHeartbeat}) {
    EXPECT_GT(received[type], kEach / 2) << "type " << type;
    EXPECT_LT(received[type], kEach) << "type " << type;
  }
  EXPECT_EQ(bus.MessagesDropped(),
            static_cast<uint64_t>(2 * kEach - received[kProbe] - received[kHeartbeat]));
  EXPECT_EQ(bus.MessagesDelivered(), static_cast<uint64_t>(4 * kEach) - bus.MessagesDropped());
}

TEST(MessageBusFaultTest, OneSenderWithAFixedSeedDropsTheSameMessages) {
  constexpr uint32_t kCount = 400;
  std::vector<std::vector<uint32_t>> runs;
  for (int run = 0; run < 3; ++run) {
    MessageBus bus(std::chrono::microseconds(0), 3);
    bus.EnableFaults(Lossy(11));
    runs.push_back(SendCycle(&bus, kCount));
    EXPECT_EQ(runs.back().size() + bus.MessagesDropped(), kCount);
  }
  EXPECT_LT(runs[0].size(), kCount);
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
  // The seed, not the bus, picks the losses.
  MessageBus other(std::chrono::microseconds(0), 3);
  other.EnableFaults(Lossy(12));
  EXPECT_NE(SendCycle(&other, kCount), runs[0]);
}

TEST(MessageBusFaultTest, DeliveriesLandWithinLatencyPlusJitter) {
  const auto latency = std::chrono::milliseconds(20);
  const auto jitter = std::chrono::milliseconds(200);
  // Delivery threads may wake late on a loaded host; they can never wake
  // early, so the lower bound has no slack.
  const auto slack = std::chrono::milliseconds(100);
  MessageBus bus(latency, 3);
  MessageBus::FaultInjection faults;
  faults.jitter = jitter;
  faults.seed = 3;
  bus.EnableFaults(faults);
  constexpr uint32_t kCount = 200;
  std::vector<Clock::time_point> sent(kCount);
  std::vector<Clock::time_point> landed(kCount);
  std::mutex mu;
  bus.Register(1, [&](const BusMessage& m) {
    const auto now = Now();
    std::lock_guard<std::mutex> lock(mu);
    landed[std::get<HeartbeatMsg>(m.payload).node] = now;
  });
  for (uint32_t i = 0; i < kCount; ++i) {
    sent[i] = Now();
    bus.Send(0, 1, kHeartbeat, HeartbeatMsg::From(i));
  }
  bus.Drain();
  ASSERT_EQ(bus.MessagesDelivered(), kCount);
  Clock::duration min_delay = Clock::duration::max();
  Clock::duration max_delay = Clock::duration::min();
  for (uint32_t i = 0; i < kCount; ++i) {
    const Clock::duration delay = landed[i] - sent[i];
    EXPECT_GE(delay, latency) << "message " << i;
    EXPECT_LE(delay, latency + jitter + slack) << "message " << i;
    min_delay = std::min(min_delay, delay);
    max_delay = std::max(max_delay, delay);
  }
  // The jitter is applied: uniform draws over 200 ms spread 200 messages.
  EXPECT_GT(max_delay - min_delay, jitter / 2);
}

}  // namespace
}  // namespace runtime
}  // namespace hawk
