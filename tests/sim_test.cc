// Unit and property tests for the discrete-event queues: ordering,
// tie-breaking, and oracle checks of the 4-ary heap / multi-lane queue
// against std::priority_queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "src/sim/event_queue.h"

namespace hawk {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  sim::EventQueue<int> q;
  q.Push(30, 3);
  q.Push(10, 1);
  q.Push(20, 2);
  EXPECT_EQ(q.Pop().payload, 1);
  EXPECT_EQ(q.Pop().payload, 2);
  EXPECT_EQ(q.Pop().payload, 3);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, SimultaneousEventsPopInInsertionOrder) {
  sim::EventQueue<int> q;
  for (int i = 0; i < 100; ++i) {
    q.Push(5, i);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.Pop().payload, i);
  }
}

TEST(EventQueueTest, RandomizedOrderingProperty) {
  Rng rng(99);
  sim::EventQueue<uint64_t> q;
  for (int i = 0; i < 10000; ++i) {
    q.Push(static_cast<SimTime>(rng.NextBounded(1000)), rng.Next());
  }
  SimTime last = -1;
  while (!q.Empty()) {
    const auto entry = q.Pop();
    EXPECT_GE(entry.at, last);
    last = entry.at;
  }
}

TEST(EventQueueTest, PeekTimeDoesNotRemove) {
  sim::EventQueue<int> q;
  q.Push(7, 42);
  EXPECT_EQ(q.PeekTime(), 7);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.Pop().payload, 42);
}

// Reference ordering: min by (time, seq) where seq is global insertion order.
// std::priority_queue is a max-heap, so the comparator is inverted.
struct OracleEntry {
  SimTime at;
  uint64_t seq;
  uint64_t payload;
  bool operator<(const OracleEntry& other) const {
    return std::tie(at, seq) > std::tie(other.at, other.seq);
  }
};

TEST(EventQueueTest, InterleavedPushPopMatchesPriorityQueueOracle) {
  Rng rng(123);
  sim::EventQueue<uint64_t> q;
  std::priority_queue<OracleEntry> oracle;
  uint64_t seq = 0;
  for (int round = 0; round < 20000; ++round) {
    // Biased toward pushes early, drains fully at the end.
    const bool push = !oracle.empty() ? rng.Bernoulli(0.55) : true;
    if (push) {
      const auto at = static_cast<SimTime>(rng.NextBounded(500));
      const uint64_t payload = rng.Next();
      q.Push(at, payload);
      oracle.push(OracleEntry{at, seq++, payload});
    } else {
      const auto got = q.Pop();
      const OracleEntry want = oracle.top();
      oracle.pop();
      ASSERT_EQ(got.at, want.at) << "round " << round;
      ASSERT_EQ(got.seq, want.seq) << "round " << round;
      ASSERT_EQ(got.payload, want.payload) << "round " << round;
    }
  }
  while (!oracle.empty()) {
    const auto got = q.Pop();
    const OracleEntry want = oracle.top();
    oracle.pop();
    ASSERT_EQ(got.at, want.at);
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_EQ(got.payload, want.payload);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, FifoStabilityUnderInterleavedEqualTimes) {
  // Equal-time events must pop in insertion order even when pushes and pops
  // interleave and other timestamps are mixed in.
  sim::EventQueue<int> q;
  q.Push(5, 0);
  q.Push(5, 1);
  q.Push(3, 100);
  EXPECT_EQ(q.Pop().payload, 100);
  q.Push(5, 2);
  q.Push(4, 101);
  EXPECT_EQ(q.Pop().payload, 101);
  q.Push(5, 3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(q.Pop().payload, i);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(MultiLaneEventQueueTest, MatchesPriorityQueueOracle) {
  // Lane pushes model the driver's fixed-delay classes: per-lane timestamps
  // are nondecreasing (now + constant delta with a monotone clock). The pop
  // stream must equal the (time, seq) total order over all lanes + heap.
  Rng rng(321);
  sim::MultiLaneEventQueue<uint64_t, 3> q;
  std::priority_queue<OracleEntry> oracle;
  const SimTime deltas[3] = {500, 1000, 250000};
  SimTime now = 0;
  uint64_t seq = 0;
  for (int round = 0; round < 20000; ++round) {
    const bool push = !oracle.empty() ? rng.Bernoulli(0.55) : true;
    if (push) {
      const uint64_t payload = rng.Next();
      if (rng.Bernoulli(0.7)) {
        const auto lane = static_cast<size_t>(rng.NextBounded(3));
        const SimTime at = now + deltas[lane];
        q.PushLane(lane, at, payload);
        oracle.push(OracleEntry{at, seq++, payload});
      } else {
        const SimTime at = now + static_cast<SimTime>(rng.NextBounded(100000));
        q.Push(at, payload);
        oracle.push(OracleEntry{at, seq++, payload});
      }
    } else {
      const auto got = q.Pop();
      const OracleEntry want = oracle.top();
      oracle.pop();
      ASSERT_EQ(got.at, want.at) << "round " << round;
      ASSERT_EQ(got.seq, want.seq) << "round " << round;
      ASSERT_EQ(got.payload, want.payload) << "round " << round;
      ASSERT_GE(got.at, now) << "clock moved backwards";
      now = got.at;  // Monotone clock, as in the driver loop.
    }
  }
  while (!oracle.empty()) {
    const auto got = q.Pop();
    const OracleEntry want = oracle.top();
    oracle.pop();
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(MultiLaneEventQueueTest, SelectThenPopWithJobCursorMatchesOracle) {
  // SimulationDriver::Run's loop: a sorted job cursor merged with the queue
  // through one Earliest() selection per step, PeekTime and Pop taking that
  // source, and the cursor winning time ties (<=). The oracle is the
  // preloaded formulation: every job pushed first (the lowest seqs), then
  // the events, all in one (time, seq) order. Times sit on a coarse grid so
  // jobs, lanes and heap tie often.
  using Queue = sim::MultiLaneEventQueue<uint64_t, 3>;
  constexpr uint64_t kJobTag = uint64_t{1} << 63;
  Rng rng(4321);
  std::vector<SimTime> jobs(3000);
  for (SimTime& at : jobs) {
    at = static_cast<SimTime>(rng.NextBounded(2000)) * 250;
  }
  std::sort(jobs.begin(), jobs.end());
  std::priority_queue<OracleEntry> oracle;
  for (uint64_t j = 0; j < jobs.size(); ++j) {
    oracle.push(OracleEntry{jobs[j], j, kJobTag | j});
  }
  Queue q;
  const SimTime deltas[3] = {250, 500, 250000};
  uint64_t seq = jobs.size();  // Oracle seq of the queue's next push.
  size_t next_job = 0;
  SimTime now = 0;
  int pushes_left = 20000;
  while (!oracle.empty()) {
    const int source = q.Earliest();
    OracleEntry got{};
    if (next_job < jobs.size() &&
        (source == Queue::kNone || jobs[next_job] <= q.PeekTime(source))) {
      got = OracleEntry{jobs[next_job], next_job, kJobTag | next_job};
      ++next_job;
    } else {
      ASSERT_NE(source, Queue::kNone);
      const auto entry = q.Pop(source);
      got = OracleEntry{entry.at, entry.seq + jobs.size(), entry.payload};
    }
    const OracleEntry want = oracle.top();
    oracle.pop();
    ASSERT_EQ(got.at, want.at) << "oracle seq " << want.seq;
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_EQ(got.payload, want.payload);
    now = got.at;
    // The handler of each job or event pushes up to two events.
    for (auto k = rng.NextBounded(3); k > 0 && pushes_left > 0; --k, --pushes_left) {
      const uint64_t payload = rng.Next() >> 1;
      SimTime at = 0;
      if (rng.Bernoulli(0.7)) {
        const auto lane = static_cast<size_t>(rng.NextBounded(3));
        at = now + deltas[lane];
        q.PushLane(lane, at, payload);
      } else {
        at = now + static_cast<SimTime>(rng.NextBounded(400)) * 250;
        q.Push(at, payload);
      }
      oracle.push(OracleEntry{at, seq++, payload});
    }
  }
  EXPECT_EQ(next_job, jobs.size());
  EXPECT_EQ(q.Earliest(), Queue::kNone);
  EXPECT_TRUE(q.Empty());
}

TEST(MultiLaneEventQueueTest, SameInstantOrderedBySequenceAcrossLanes) {
  sim::MultiLaneEventQueue<int, 2> q;
  q.PushLane(0, 10, 0);  // seq 0
  q.Push(10, 1);         // seq 1
  q.PushLane(1, 10, 2);  // seq 2
  q.PushLane(0, 10, 3);  // seq 3
  q.Push(10, 4);         // seq 4
  EXPECT_EQ(q.Size(), 5u);
  EXPECT_EQ(q.PeekTime(), 10);
  EXPECT_EQ(q.Earliest(), 0);
  ASSERT_NE(q.LaneAt(0, 1), nullptr);
  EXPECT_EQ(q.LaneAt(0, 1)->payload, 3);
  EXPECT_EQ(q.LaneAt(0, 2), nullptr);
  EXPECT_EQ(q.LaneAt(1, 0)->payload, 2);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.Pop().payload, i);
  }
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace hawk
