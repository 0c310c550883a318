// Power-of-two ring buffer.
//
// FIFO container for hot simulation paths: push/pop never touch an allocator
// once the ring is warm, storage is contiguous (two spans at most), and
// random access is one mask. Shared by the worker queues (src/cluster), the
// event queue's monotone lanes (src/sim) and the central queue's per-worker
// lane FIFOs (src/core) so the modular-index and grow invariants live in
// exactly one place. Indices are 32-bit so the header (storage vector plus
// head/size/mask) fits in 40 bytes, small enough to sit inside a worker's
// 64-byte WorkerStore record.
//
// Storage starts at one entry and doubles (0 -> 1 -> 2 -> 4 ...). The sizing
// follows the worker queues, which are most of the rings there are: at 1M
// workers (the benchmark's scale-1m call) about 711k workers ever queue an
// entry, yet only 4.7% of them ever hold a second one, 0.6% more than two
// and 0.01% more than four. An 8-entry first allocation cost ~190 MB there
// (each ring 256 bytes of entries plus the allocator header), the larger
// half of the run's peak memory; one-entry starts cost ~35 MB. Rings that
// do grow pay up to three more doublings than an 8-entry start, about 38k
// extra in that call, against its ~1M probe deliveries.
#ifndef HAWK_COMMON_RING_BUFFER_H_
#define HAWK_COMMON_RING_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace hawk {

template <typename T>
class RingBuffer {
 public:
  // Largest capacity: 2^31 keeps every `head_ + i` (both below capacity)
  // inside uint32_t.
  static constexpr size_t kMaxCapacity = size_t{1} << 31;

  bool Empty() const { return size_ == 0; }
  size_t Size() const { return size_; }

  const T& Front() const {
    HAWK_CHECK(size_ > 0);
    return ring_[head_];
  }

  const T& Back() const {
    HAWK_CHECK(size_ > 0);
    return ring_[(head_ + size_ - 1) & mask_];
  }

  // Element at FIFO position `i` (0 = next to pop).
  const T& At(size_t i) const {
    HAWK_CHECK_LT(i, size_);
    return ring_[(head_ + i) & mask_];
  }

  void PushBack(T value) {
    if (size_ == ring_.size()) {
      Grow();
    }
    ring_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  T PopFront() {
    HAWK_CHECK(size_ > 0);
    T value = std::move(ring_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return value;
  }

  // Removes FIFO positions [begin, end), shifting whichever side of the gap
  // is smaller.
  void EraseRange(size_t begin, size_t end) {
    HAWK_CHECK_LE(begin, end);
    HAWK_CHECK_LE(end, size_);
    const size_t count = end - begin;
    if (count == 0) {
      return;
    }
    if (begin <= size_ - end) {
      // Fewer entries before the gap: shift the head side right.
      for (size_t i = begin; i > 0; --i) {
        ring_[(head_ + i - 1 + count) & mask_] = std::move(ring_[(head_ + i - 1) & mask_]);
      }
      head_ = static_cast<uint32_t>((head_ + count) & mask_);
    } else {
      // Fewer entries after the gap: shift the tail side left.
      for (size_t i = end; i < size_; ++i) {
        ring_[(head_ + i - count) & mask_] = std::move(ring_[(head_ + i) & mask_]);
      }
    }
    size_ -= static_cast<uint32_t>(count);
  }

  void Clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void Grow() {
    const size_t new_capacity = ring_.empty() ? 1 : ring_.size() * 2;
    HAWK_CHECK_LE(new_capacity, kMaxCapacity) << "ring buffer outgrows its 32-bit indices";
    std::vector<T> grown(new_capacity);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & mask_]);
    }
    ring_ = std::move(grown);
    head_ = 0;
    mask_ = static_cast<uint32_t>(new_capacity - 1);
  }

  // ring_.size() is always zero or a power of two; mask_ = ring_.size() - 1.
  // Valid entries are ring_[(head_ + i) & mask_] for i in [0, size_).
  std::vector<T> ring_;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  uint32_t mask_ = 0;
};

}  // namespace hawk

#endif  // HAWK_COMMON_RING_BUFFER_H_
