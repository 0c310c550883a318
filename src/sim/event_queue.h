// 4-ary heap event queue for discrete-event simulation.
//
// Events are ordered by (time, sequence number): the sequence number makes
// simultaneous events pop in insertion order, which keeps runs deterministic
// and independent of heap internals. The payload type is a template parameter
// so the scheduler drivers can use a compact POD event on their hot paths
// while tests use simple payloads.
//
// Layout and shape are tuned for the driver's hot loop:
//   - 4-ary instead of binary: half the depth, and all four children of a
//     node are adjacent in memory.
//   - Split storage: the 16-byte (time, seq) keys live in their own array,
//     so sift comparisons never drag payload bytes through the cache; the
//     payloads move in lockstep.
//   - Inlined tuple comparison (no comparator indirection) and hole-based
//     sifting (one move per level instead of a swap).
// Pop order is a pure function of the (time, seq) total order, so any
// correct heap — including the std::push_heap/pop_heap binary heap this
// replaces — produces bit-identical simulations.
#ifndef HAWK_SIM_EVENT_QUEUE_H_
#define HAWK_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/ring_buffer.h"
#include "src/common/types.h"

namespace hawk {
namespace sim {

template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    SimTime at;
    uint64_t seq;
    Payload payload;
  };

  void Push(SimTime at, Payload payload) {
    PushWithSeq(at, next_seq_++, std::move(payload));
  }

  // Push with an externally assigned sequence number, for composite queues
  // (MultiLaneEventQueue) that share one counter across several lanes. Do
  // not mix with Push() on the same queue.
  void PushWithSeq(SimTime at, uint64_t seq, Payload payload) {
    HAWK_CHECK_GE(at, 0);
    keys_.push_back(Key{at, seq});
    payloads_.push_back(std::move(payload));
    SiftUp(keys_.size() - 1);
  }

  bool Empty() const { return keys_.empty(); }
  size_t Size() const { return keys_.size(); }

  // Timestamp of the earliest event.
  SimTime PeekTime() const {
    HAWK_CHECK(!keys_.empty());
    return keys_.front().at;
  }

  // Sequence number of the earliest event.
  uint64_t PeekSeq() const {
    HAWK_CHECK(!keys_.empty());
    return keys_.front().seq;
  }

  Entry Pop() {
    HAWK_CHECK(!keys_.empty());
    Entry top{keys_.front().at, keys_.front().seq, std::move(payloads_.front())};
    const size_t last = keys_.size() - 1;
    if (last > 0) {
      keys_.front() = keys_[last];
      payloads_.front() = std::move(payloads_[last]);
      keys_.pop_back();
      payloads_.pop_back();
      SiftDown(0);
    } else {
      keys_.pop_back();
      payloads_.pop_back();
    }
    return top;
  }

  void Clear() {
    keys_.clear();
    payloads_.clear();
  }

 private:
  struct Key {
    SimTime at;
    uint64_t seq;
  };

  static constexpr size_t kArity = 4;

  static bool Earlier(const Key& a, const Key& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.seq < b.seq;
  }

  void SiftUp(size_t i) {
    const Key key = keys_[i];
    Payload payload = std::move(payloads_[i]);
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Earlier(key, keys_[parent])) {
        break;
      }
      keys_[i] = keys_[parent];
      payloads_[i] = std::move(payloads_[parent]);
      i = parent;
    }
    keys_[i] = key;
    payloads_[i] = std::move(payload);
  }

  void SiftDown(size_t i) {
    const size_t n = keys_.size();
    const Key key = keys_[i];
    Payload payload = std::move(payloads_[i]);
    while (true) {
      const size_t first_child = i * kArity + 1;
      if (first_child >= n) {
        break;
      }
      const size_t end_child = std::min(first_child + kArity, n);
      size_t best = first_child;
      for (size_t c = first_child + 1; c < end_child; ++c) {
        if (Earlier(keys_[c], keys_[best])) {
          best = c;
        }
      }
      if (!Earlier(keys_[best], key)) {
        break;
      }
      keys_[i] = keys_[best];
      payloads_[i] = std::move(payloads_[best]);
      i = best;
    }
    keys_[i] = key;
    payloads_[i] = std::move(payload);
  }

  std::vector<Key> keys_;
  std::vector<Payload> payloads_;
  uint64_t next_seq_ = 0;
};

// Event queue with O(1) fast lanes for fixed-delay event classes.
//
// Discrete-event schedules are dominated by events pushed at a constant
// offset from the (monotone) simulation clock — network-delay deliveries,
// RTT-delayed resolutions, fixed retry timers. Those pushes arrive in
// nondecreasing timestamp order, so each such class can live in a plain FIFO
// ring that is sorted by construction: push is O(1) and never sifts.
// Arbitrary-delay events (task completions, periodic samples) go to the
// 4-ary heap lane. Pop takes the (time, seq) minimum over the lane fronts
// and the heap top; seq is a single counter across all lanes, so the pop
// order is exactly the (time, seq) total order a single heap would produce —
// bit-identical simulations, at a fraction of the cost.
template <typename Payload, size_t kLanes>
class MultiLaneEventQueue {
 public:
  using Entry = typename EventQueue<Payload>::Entry;

  // Pushes an arbitrary-delay event (heap lane).
  void Push(SimTime at, Payload payload) {
    heap_.PushWithSeq(at, next_seq_++, std::move(payload));
  }

  // Pushes onto a monotone lane: `at` must be >= the lane's previous push.
  void PushLane(size_t lane, SimTime at, Payload payload) {
    HAWK_CHECK_GE(at, 0);
    Lane& l = lanes_[lane];
    HAWK_CHECK(l.Empty() || at >= l.Back().at) << "lane pushes must be monotone";
    l.PushBack(Entry{at, next_seq_++, std::move(payload)});
  }

  bool Empty() const { return Earliest() == kNone; }

  size_t Size() const {
    size_t total = heap_.Size();
    for (const Lane& l : lanes_) {
      total += l.Size();
    }
    return total;
  }

  // Event sources: a lane index in [0, kLanes), or one of these.
  static constexpr int kHeap = -1;  // The arbitrary-delay heap.
  static constexpr int kNone = -2;  // The queue is empty.

  // Source of the (time, seq)-earliest event, or kNone. This is the one scan
  // over the heap top and the lane fronts: a loop that peeks and then pops
  // selects once and hands the source to PeekTime(source) and Pop(source).
  int Earliest() const {
    int best = kNone;
    SimTime best_at = 0;
    uint64_t best_seq = 0;
    if (!heap_.Empty()) {
      best = kHeap;
      best_at = heap_.PeekTime();
      best_seq = heap_.PeekSeq();
    }
    for (size_t i = 0; i < kLanes; ++i) {
      if (lanes_[i].Empty()) {
        continue;
      }
      const Entry& front = lanes_[i].Front();
      if (best == kNone || front.at < best_at || (front.at == best_at && front.seq < best_seq)) {
        best = static_cast<int>(i);
        best_at = front.at;
        best_seq = front.seq;
      }
    }
    return best;
  }

  // Timestamp of the earliest event of `source` (from Earliest()).
  SimTime PeekTime(int source) const {
    return source == kHeap ? heap_.PeekTime() : LaneOf(source).Front().at;
  }

  // Removes and returns the earliest event of `source` (from Earliest()).
  Entry Pop(int source) {
    if (source == kHeap) {
      return heap_.Pop();
    }
    return lanes_[LaneIndex(source)].PopFront();
  }

  SimTime PeekTime() const { return PeekTime(Earliest()); }
  Entry Pop() { return Pop(Earliest()); }

  // Lane `source`'s entry at FIFO position `i` (0 = its front), or nullptr if
  // the lane holds no more than `i` entries. A lane pops in FIFO order, so
  // the entry will be popped soon: callers use it to prefetch.
  const Entry* LaneAt(int source, size_t i) const {
    const Lane& l = LaneOf(source);
    return i < l.Size() ? &l.At(i) : nullptr;
  }

  void Clear() {
    heap_.Clear();
    for (Lane& l : lanes_) {
      l.Clear();
    }
  }

 private:
  // A monotone lane is sorted by construction, so a FIFO ring suffices.
  using Lane = RingBuffer<Entry>;

  static size_t LaneIndex(int source) {
    HAWK_CHECK(source >= 0 && static_cast<size_t>(source) < kLanes)
        << "no event source " << source << " (empty queue?)";
    return static_cast<size_t>(source);
  }
  const Lane& LaneOf(int source) const { return lanes_[LaneIndex(source)]; }

  EventQueue<Payload> heap_;
  Lane lanes_[kLanes];
  uint64_t next_seq_ = 0;
};

}  // namespace sim
}  // namespace hawk

#endif  // HAWK_SIM_EVENT_QUEUE_H_
