// Per-worker state for million-worker clusters: one 64-byte record each.
//
// Every visit to a worker in the simulation's hot paths reads several of its
// fields at once. A probe delivery enqueues (queue ring plus queue
// composition) and dispatches (free slots, then pop or request); a steal
// victim that passes the bitmap screen below is screened on its queue
// composition and occupied-long count, then its ring is scanned; a
// completion releases a slot and dispatches again. Probes and steal victims
// land on random workers, so at 1M workers every visit is a cache miss.
// WorkerStore therefore keeps all of one worker's state in one
// cache-line-aligned record:
//
//   queue          FIFO ring of probe/task entries; the first entry sits
//                  inside the ring header, so only a queue that ever holds
//                  two entries has heap storage
//   free, executing, requesting, occupied_long, slots
//                  slot counters and capacity; occupied_long counts
//                  occupied slots holding long work (steal screening)
//   queue_short    short entries queued; long ones are the queue size minus
//                  this, so the steal screen rejects most victims without
//                  touching the ring's storage
//
// Beside the records sits one more structure, a dense bitmap with one bit
// per worker: "this worker has a short entry queued" (queue_short > 0). At 1M
// workers it is 128 KB and stays in L2, where the records are 64 MB. A steal
// victim whose bit is clear cannot hold a stealable group (the group is made
// of short entries), so the steal path reads the bit (HasQueuedShort) and
// skips the victim without loading its record; at 1M workers about 98% of
// contacted victims are screened out this way. A bit is written only when
// queue_short crosses 0 and 1: Enqueue of a short entry sets it, and
// PopFront or StealGroupInto clears it when the last short entry leaves
// (DrainQueueInto pops, and ResetSlots requires an empty queue).
//
// One visit costs one line, the record's, plus the ring's heap storage only
// when a queue holding two or more entries is read or written. Accumulated
// execution time (work conservation) is not per worker: it only ever feeds
// the run's total, so it sits in the shard totals beside the executing and
// queued counts, and the record keeps its line for the ring. The steal path
// prefetches the records of all sampled victims before contacting the first,
// and the serial driver prefetches the workers of upcoming lane events
// (Prefetch), so those misses overlap. Records never share a line, so
// concurrent shards of the sharded executor never write the same line of
// worker state. The bitmap's words do span shards, so once ConfigureShards
// has run its bits are written with atomic read-modify-writes.
//
// Workers are multi-slot (paper §4.1: a multi-slot node is equivalent to
// more single-slot workers; here the slots share one FIFO queue): a worker
// with S slots executes up to S tasks concurrently, and every mechanism that
// used to ask "is this worker free" asks "does this worker have a free slot".
// With every worker at one slot the semantics — and the simulation results,
// bit for bit — are identical to the old single-slot world.
//
// Capacity may be heterogeneous: SlotSpec upgrades an evenly spread fraction
// of workers to a bigger slot count (the heterogeneous-servers scenario
// family). The store exposes a slot-index space [0, TotalSlots()) — worker 0's
// slots first, then worker 1's, ... — so probe placement and steal victim
// sampling can weight workers by capacity simply by sampling slots.
#ifndef HAWK_CLUSTER_WORKER_STORE_H_
#define HAWK_CLUSTER_WORKER_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/queue_entry.h"
#include "src/cluster/steal_group.h"
#include "src/common/check.h"
#include "src/common/ring_buffer.h"
#include "src/common/types.h"

namespace hawk {

// An index into the cluster-wide slot space [0, TotalSlots()). Slot s belongs
// to the worker whose slot range contains s; ranges are contiguous and in
// worker-id order, so any worker-id prefix (e.g. the general partition) is
// also a slot-id prefix.
using SlotId = uint32_t;

// Per-worker capacity ceiling: uint16 slot counters keep the worker record
// within one cache line, and the cap sits well below the type's ceiling so per-worker
// arithmetic can never wrap. HawkConfig::Validate() enforces the same bound
// so bad configs fail with a Status before reaching the store's CHECKs.
inline constexpr uint32_t kMaxSlotsPerWorker = 4096;

// Per-worker capacity layout: every worker gets `slots_per_worker` slots,
// except an evenly spread `big_worker_fraction` of workers upgraded to
// `big_worker_slots` (0 disables the upgrade). Deterministic: the layout is a
// pure function of (spec, num_workers).
struct SlotSpec {
  uint32_t slots_per_worker = 1;
  double big_worker_fraction = 0.0;
  uint32_t big_worker_slots = 0;  // 0 = no heterogeneity.

  bool Uniform() const {
    return big_worker_fraction <= 0.0 || big_worker_slots == 0 ||
           big_worker_slots == slots_per_worker;
  }

  // Number of upgraded workers out of `num_workers` (round-to-nearest).
  uint32_t BigWorkerCount(uint32_t num_workers) const {
    if (Uniform()) {
      return 0;
    }
    const double count = big_worker_fraction * static_cast<double>(num_workers) + 0.5;
    return static_cast<uint32_t>(count);
  }

  // Capacity of `worker`. Big workers are spread evenly across the id space
  // (worker i is big iff the rounded cumulative big count increases at i) so
  // neither partition is systematically starved of capacity.
  uint32_t SlotsOf(WorkerId worker, uint32_t num_workers) const {
    const uint32_t big = BigWorkerCount(num_workers);
    if (big == 0) {
      return slots_per_worker;
    }
    const uint64_t before = static_cast<uint64_t>(worker) * big / num_workers;
    const uint64_t after = (static_cast<uint64_t>(worker) + 1) * big / num_workers;
    return after > before ? big_worker_slots : slots_per_worker;
  }
};

class WorkerStore {
 public:
  explicit WorkerStore(uint32_t num_workers, const SlotSpec& spec = SlotSpec{});

  uint32_t NumWorkers() const { return static_cast<uint32_t>(recs_.size()); }
  uint64_t TotalSlots() const { return total_slots_; }

  // Hints that `id`'s record is about to be read: callers about to visit
  // several random workers give every hint first so the misses overlap.
  void Prefetch(WorkerId id) const { __builtin_prefetch(&recs_[Check(id)]); }

  // --- sharded execution ---------------------------------------------------
  // Splits the accumulators (queued/executing/busy totals) by worker
  // shard so concurrent shards of the sharded simulation executor never write
  // one shared counter. `shard_begin` lists each shard's first worker id,
  // strictly increasing and starting at 0; shard s owns the contiguous range
  // [shard_begin[s], shard_begin[s+1]) (the last shard runs to NumWorkers()).
  // Must be called before any entry is queued or executed. The default,
  // unconfigured store keeps a single accumulator, so the serial driver's
  // arithmetic is unchanged.
  void ConfigureShards(const std::vector<WorkerId>& shard_begin);

  // --- slots -------------------------------------------------------------
  uint32_t Slots(WorkerId id) const { return Record(id).slots; }
  bool HasFreeSlot(WorkerId id) const { return Record(id).free > 0; }
  uint32_t ExecutingSlots(WorkerId id) const { return Record(id).executing; }
  uint32_t OccupiedSlots(WorkerId id) const {
    const Rec& w = Record(id);
    return static_cast<uint32_t>(w.executing) + w.requesting;
  }

  // --- slot-index space ----------------------------------------------------
  // First slot id of `id`'s contiguous slot range. SlotBegin(NumWorkers())
  // == TotalSlots().
  SlotId SlotBegin(WorkerId id) const {
    HAWK_CHECK_LE(id, recs_.size());
    return uniform_ ? static_cast<SlotId>(id * uniform_slots_) : slot_begin_[id];
  }
  WorkerId WorkerOfSlot(SlotId slot) const {
    HAWK_CHECK_LT(slot, total_slots_);
    return uniform_ ? slot / uniform_slots_ : slot_to_worker_[slot];
  }

  // --- queue -----------------------------------------------------------
  void Enqueue(WorkerId id, const QueueEntry& entry) {
    Rec& w = Record(id);
    w.queue.PushBack(entry);
    if (!entry.is_long && w.queue_short++ == 0) {
      SetQueuedShort(id);
    }
    ++totals_[ShardOf(id)].queued;
  }

  bool QueueEmpty(WorkerId id) const { return Record(id).queue.Empty(); }
  size_t QueueSize(WorkerId id) const { return Record(id).queue.Size(); }

  // Queue entry at FIFO position `i` (0 = next to pop).
  const QueueEntry& QueueAt(WorkerId id, size_t i) const { return Record(id).queue.At(i); }

  // True iff `id` has at least one short entry queued. Reads the bitmap, not
  // the record (see the file comment).
  bool HasQueuedShort(WorkerId id) const {
    const size_t i = Check(id);
    return ((queued_short_[i / 64].load(std::memory_order_relaxed) >> (i % 64)) & 1) != 0;
  }

  QueueEntry PopFront(WorkerId id) {
    Rec& w = Record(id);
    const QueueEntry entry = w.queue.PopFront();
    if (!entry.is_long && --w.queue_short == 0) {
      ClearQueuedShort(id);
    }
    ShardTotals& totals = totals_[ShardOf(id)];
    HAWK_CHECK_GT(totals.queued, 0u);
    --totals.queued;
    return entry;
  }

  // --- fault injection -----------------------------------------------------
  // Removes every queued entry of `id` (FIFO order) and appends it to `*out`.
  // The fault layer hands the entries back to their schedulers for
  // re-dispatch; callers on hot fault paths pool `*out` across calls so a
  // crash costs no allocation once warm.
  void DrainQueueInto(WorkerId id, std::vector<QueueEntry>* out) {
    out->reserve(out->size() + QueueSize(id));
    while (!QueueEmpty(id)) {
      out->push_back(PopFront(id));
    }
  }

  // Fail-stop crash: releases every occupied slot (executing and requesting)
  // in one stroke. The queue must already be drained; the caller is
  // responsible for invalidating the in-flight completions/resolves whose
  // slots this frees.
  void ResetSlots(WorkerId id) {
    Rec& w = Record(id);
    HAWK_CHECK(w.queue.Empty()) << "ResetSlots on worker " << id
                                << " with a non-empty queue (drain first)";
    ShardTotals& totals = totals_[ShardOf(id)];
    HAWK_CHECK_GE(totals.executing, w.executing);
    totals.executing -= w.executing;
    w.executing = 0;
    w.requesting = 0;
    w.occupied_long = 0;
    w.free = w.slots;
  }

  // Takes back execution time charged by BeginExecute for work a crash threw
  // away (BeginExecute charges the full duration up front; a killed task only
  // delivered part of it).
  void DeductBusyUs(WorkerId id, DurationUs us) {
    HAWK_CHECK_LT(id, recs_.size());
    ShardTotals& totals = totals_[ShardOf(id)];
    HAWK_CHECK_GE(totals.busy_us, us);
    totals.busy_us -= us;
  }

  // --- execution state transitions --------------------------------------
  // Occupies a free slot with a late-binding request (probe at head of
  // queue; resolves after one RTT).
  void BeginRequest(WorkerId id, bool probe_is_long) {
    Rec& w = Record(id);
    HAWK_CHECK_GT(w.free, 0u) << "BeginRequest on worker " << id << " with no free slot";
    --w.free;
    ++w.requesting;
    if (probe_is_long) {
      ++w.occupied_long;
    }
  }

  // Releases a requesting slot (the RTT answer arrived — task or cancel).
  // `probe_is_long` must match the BeginRequest that occupied the slot.
  void ResolveRequest(WorkerId id, bool probe_is_long) {
    Rec& w = Record(id);
    HAWK_CHECK_GT(w.requesting, 0u) << "ResolveRequest on worker " << id
                                    << " with no request in flight";
    --w.requesting;
    ++w.free;
    if (probe_is_long) {
      HAWK_CHECK_GT(w.occupied_long, 0u);
      --w.occupied_long;
    }
  }

  // Occupies a free slot with an executing task.
  void BeginExecute(WorkerId id, SimTime now, const QueueEntry& task) {
    (void)now;
    Rec& w = Record(id);
    HAWK_CHECK_GT(w.free, 0u) << "BeginExecute on worker " << id << " with no free slot";
    HAWK_CHECK(task.kind == EntryKind::kTask);
    --w.free;
    ++w.executing;
    if (task.is_long) {
      ++w.occupied_long;
    }
    ShardTotals& totals = totals_[ShardOf(id)];
    totals.busy_us += task.duration;
    ++totals.executing;
  }

  // Releases an executing slot. `was_long` must match the task's scheduling
  // class from BeginExecute.
  void FinishExecute(WorkerId id, bool was_long) {
    Rec& w = Record(id);
    HAWK_CHECK_GT(w.executing, 0u) << "FinishExecute on worker " << id
                                   << " with nothing executing";
    --w.executing;
    ++w.free;
    if (was_long) {
      HAWK_CHECK_GT(w.occupied_long, 0u);
      --w.occupied_long;
    }
    ShardTotals& totals = totals_[ShardOf(id)];
    HAWK_CHECK_GT(totals.executing, 0u);
    --totals.executing;
  }

  // --- stealing (paper §3.6, Fig. 3) -------------------------------------
  // The stealable group is the first consecutive run of short entries that
  // follows a long entry in [current work, queue...] order:
  //   a1/a2) occupied by short work only: the group after the first long
  //          entry in the queue;
  //   b1/b2) any occupied slot holds long work: the first short group in the
  //          queue, skipping any further long entries that precede it.
  // A partially full multi-slot worker screens exactly like a single-slot
  // one: only the queue composition and the occupied-long count matter.

  // Moves the stealable group, if any, straight onto `thief`'s queue (no
  // intermediate buffer) and returns the number of entries moved.
  size_t StealGroupInto(WorkerId victim, WorkerId thief);

  // True iff the stealable group is non-empty.
  bool HasStealableGroup(WorkerId id) const {
    const StealRange group = StealableGroup(id);
    return group.begin < group.end;
  }

  // --- accounting ---------------------------------------------------------
  // Slots currently executing a task, across the whole store. O(shards);
  // single-element in the default (unsharded) layout.
  uint64_t ExecutingTotal() const {
    uint64_t total = 0;
    for (const ShardTotals& t : totals_) {
      total += t.executing;
    }
    return total;
  }

  // Entries queued across the whole store. O(shards); the steal-retry path
  // uses it to tell "work is waiting somewhere" from "everything left is
  // executing". Only meaningful between shard phases in sharded runs.
  uint64_t TotalQueued() const {
    uint64_t total = 0;
    for (const ShardTotals& t : totals_) {
      total += t.queued;
    }
    return total;
  }

  // Microseconds of task execution charged across the whole store. O(shards).
  DurationUs TotalBusyUs() const {
    DurationUs total = 0;
    for (const ShardTotals& t : totals_) {
      total += t.busy_us;
    }
    return total;
  }

 private:
  // One worker's state, one cache line (see the file comment): the 48-byte
  // ring, 10 bytes of slot counters and queue_short. The vector's storage is
  // line-aligned through C++17 aligned operator new.
  struct alignas(64) Rec {
    RingBuffer<QueueEntry> queue;
    uint16_t free = 0;
    uint16_t executing = 0;
    uint16_t requesting = 0;
    uint16_t occupied_long = 0;
    uint16_t slots = 0;
    uint32_t queue_short = 0;
  };
  static_assert(sizeof(Rec) == 64, "a worker record must fill exactly one cache line");

  // One cache line per shard: shards mutate their own totals concurrently, so
  // neighbouring shards must never share a line (false sharing would only
  // cost performance, but a shared counter would be a data race).
  struct alignas(64) ShardTotals {
    uint64_t executing = 0;
    uint64_t queued = 0;
    DurationUs busy_us = 0;
  };

  size_t Check(WorkerId id) const {
    HAWK_CHECK_LT(id, recs_.size());
    return id;
  }
  Rec& Record(WorkerId id) { return recs_[Check(id)]; }
  const Rec& Record(WorkerId id) const { return recs_[Check(id)]; }

  uint32_t ShardOf(WorkerId id) const { return shard_of_.empty() ? 0u : shard_of_[id]; }

  // Bitmap writes. Concurrent shard phases may write neighbouring bits of one
  // word, so a sharded store uses atomic RMWs. The serial store has no
  // concurrency and keeps a plain load-modify-store: atomic RMWs on the
  // serial path measured 3-7% slower on scale-1m. The sharded branch goes
  // when the sharded executor is deleted (ROADMAP item 1).
  void SetQueuedShort(WorkerId id) {
    std::atomic<uint64_t>& word = queued_short_[id / 64];
    const uint64_t bit = uint64_t{1} << (id % 64);
    if (shard_of_.empty()) {
      word.store(word.load(std::memory_order_relaxed) | bit, std::memory_order_relaxed);
    } else {
      word.fetch_or(bit, std::memory_order_relaxed);
    }
  }
  void ClearQueuedShort(WorkerId id) {
    std::atomic<uint64_t>& word = queued_short_[id / 64];
    const uint64_t mask = ~(uint64_t{1} << (id % 64));
    if (shard_of_.empty()) {
      word.store(word.load(std::memory_order_relaxed) & mask, std::memory_order_relaxed);
    } else {
      word.fetch_and(mask, std::memory_order_relaxed);
    }
  }

  // The stealable group's FIFO positions (steal_group.h). Screens on the
  // composition counters before scanning.
  StealRange StealableGroup(WorkerId id) const;

  std::vector<Rec> recs_;

  // One bit per worker, set iff its queue_short > 0 (see the file comment);
  // ceil(N / 64) words.
  std::unique_ptr<std::atomic<uint64_t>[]> queued_short_;

  // Slot-index mapping. Uniform layouts need no tables (divide/multiply by
  // the shared slot count); heterogeneous layouts carry prefix + reverse maps.
  bool uniform_ = true;
  uint32_t uniform_slots_ = 1;
  std::vector<SlotId> slot_begin_;       // Size N+1; empty when uniform.
  std::vector<WorkerId> slot_to_worker_; // Size TotalSlots; empty when uniform.

  uint64_t total_slots_ = 0;

  // Accumulators, one per shard (exactly one until ConfigureShards).
  std::vector<ShardTotals> totals_{1};
  std::vector<uint32_t> shard_of_;  // Empty = everything in shard 0.
};

}  // namespace hawk

#endif  // HAWK_CLUSTER_WORKER_STORE_H_
