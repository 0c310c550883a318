// Power-of-two ring buffer whose first entry lives inside the header.
//
// FIFO container for hot simulation paths: push/pop never touch an allocator
// once the ring is warm, storage is contiguous (two spans at most), and
// random access is one mask. Shared by the worker queues (src/cluster), the
// event queue's monotone lanes (src/sim) and the central queue's per-worker
// lane FIFOs (src/core) so the modular-index and grow invariants live in
// exactly one place.
//
// Capacity starts at one entry, held inline in the header, and doubles
// (1 -> 2 -> 4 ...); only a ring that ever holds two entries allocates, and
// going from 1 to 2 moves the inline entry to the heap. The sizing follows
// the worker queues, which are most of the rings there are: at 1M workers
// (the benchmark's scale-1m call) about 711k workers ever queue an entry, yet
// only 4.7% of them ever hold a second one, 0.6% more than two and 0.01%
// more than four. With the entry inline, a delivery to a quiet worker
// touches one cache line, its WorkerStore record, instead of the record plus
// a separately allocated 32-byte ring, and teardown frees ~33k rings
// instead of ~711k. Indices are 32-bit so the header (one entry or the heap
// pointer, plus head/size/mask) is 48 bytes for a 32-byte entry, small
// enough to sit inside a worker's 64-byte record.
//
// Entries must be trivially copyable: they are copied bytewise into and out
// of the union, and the copy, move and destroy operations are written by
// hand around it.
#ifndef HAWK_COMMON_RING_BUFFER_H_
#define HAWK_COMMON_RING_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/common/check.h"

namespace hawk {

template <typename T>
class RingBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingBuffer entries are copied bytewise through an inline union");

 public:
  // Largest capacity: 2^31 keeps every `head_ + i` (both below capacity)
  // inside uint32_t.
  static constexpr size_t kMaxCapacity = size_t{1} << 31;

  RingBuffer() = default;
  RingBuffer(const RingBuffer& other) { CopyFrom(other); }
  RingBuffer(RingBuffer&& other) noexcept { TakeFrom(other); }
  RingBuffer& operator=(const RingBuffer& other) {
    if (this != &other) {
      Reset();
      CopyFrom(other);
    }
    return *this;
  }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  ~RingBuffer() {
    if (mask_ != 0) {
      delete[] storage_.heap;
    }
  }

  bool Empty() const { return size_ == 0; }
  size_t Size() const { return size_; }

  const T& Front() const {
    HAWK_CHECK(size_ > 0);
    return Data()[head_];
  }

  const T& Back() const {
    HAWK_CHECK(size_ > 0);
    return Data()[(head_ + size_ - 1) & mask_];
  }

  // Element at FIFO position `i` (0 = next to pop).
  const T& At(size_t i) const {
    HAWK_CHECK_LT(i, size_);
    return Data()[(head_ + i) & mask_];
  }

  void PushBack(T value) {
    if (size_ > mask_) {
      Grow();
    }
    Data()[(head_ + size_) & mask_] = value;
    ++size_;
  }

  T PopFront() {
    HAWK_CHECK(size_ > 0);
    const T value = Data()[head_];
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
    T* data = Data();
    if (begin <= size_ - end) {
      // Fewer entries before the gap: shift the head side right.
      for (size_t i = begin; i > 0; --i) {
        data[(head_ + i - 1 + count) & mask_] = data[(head_ + i - 1) & mask_];
      }
      head_ = static_cast<uint32_t>((head_ + count) & mask_);
    } else {
      // Fewer entries after the gap: shift the tail side left.
      for (size_t i = end; i < size_; ++i) {
        data[(head_ + i - count) & mask_] = data[(head_ + i) & mask_];
      }
    }
    size_ -= static_cast<uint32_t>(count);
  }

  // Empties the ring, keeping its storage.
  void Clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  // Capacity 1 keeps its entry in `one`; larger capacities point `heap` at
  // mask_ + 1 entries.
  union Storage {
    Storage() : one() {}
    T one;
    T* heap;
  };

  T* Data() { return mask_ == 0 ? &storage_.one : storage_.heap; }
  const T* Data() const { return mask_ == 0 ? &storage_.one : storage_.heap; }

  void Grow() {
    const size_t new_capacity = (size_t{mask_} + 1) * 2;
    HAWK_CHECK_LE(new_capacity, kMaxCapacity) << "ring buffer outgrows its 32-bit indices";
    T* grown = new T[new_capacity];
    const T* data = Data();
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = data[(head_ + i) & mask_];
    }
    if (mask_ != 0) {
      delete[] storage_.heap;
    }
    storage_.heap = grown;
    head_ = 0;
    mask_ = static_cast<uint32_t>(new_capacity - 1);
  }

  // Frees any heap storage and leaves an empty ring of inline capacity 1.
  void Reset() {
    if (mask_ != 0) {
      delete[] storage_.heap;
    }
    storage_.one = T();
    head_ = 0;
    size_ = 0;
    mask_ = 0;
  }

  // Copies `other` into this ring, which must hold no heap storage.
  void CopyFrom(const RingBuffer& other) {
    if (other.mask_ == 0) {
      storage_.one = other.storage_.one;
    } else {
      T* heap = new T[size_t{other.mask_} + 1];
      for (size_t i = 0; i < other.size_; ++i) {
        const size_t slot = (other.head_ + i) & other.mask_;
        heap[slot] = other.storage_.heap[slot];
      }
      storage_.heap = heap;
    }
    head_ = other.head_;
    size_ = other.size_;
    mask_ = other.mask_;
  }

  // Moves `other`'s contents (inline entry or heap storage) into this ring,
  // which must hold no heap storage, and leaves `other` empty.
  void TakeFrom(RingBuffer& other) {
    storage_ = other.storage_;
    head_ = other.head_;
    size_ = other.size_;
    mask_ = other.mask_;
    other.mask_ = 0;
    other.Reset();
  }

  // Capacity is mask_ + 1: always a power of two, and at least 1.
  // Valid entries are Data()[(head_ + i) & mask_] for i in [0, size_).
  Storage storage_;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  uint32_t mask_ = 0;
};

}  // namespace hawk

#endif  // HAWK_COMMON_RING_BUFFER_H_
