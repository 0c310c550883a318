// Struct-of-arrays worker state for million-worker clusters.
//
// The former array-of-structs `Worker` world kept each worker's state, queue
// composition and ring buffer in one object; at 100k+ workers the simulation
// hot loops (dispatch gating, steal-victim screening, utilization sampling)
// paid a cache line per worker touched. WorkerStore splits the state by
// temperature instead:
//
//   hot, one dense array each, indexed by WorkerId:
//     free_           free slots (the dispatch gate reads only this)
//     executing_      slots currently running a task
//     requesting_     slots blocked on a late-binding RTT
//     occupied_long_  occupied slots holding long work (steal screening)
//     queue_short_ /  queue composition counters (steal screening rejects a
//     queue_long_     victim without ever touching its ring)
//
//   cold side arrays, same indexing:
//     queues_         per-worker FIFO ring buffers (probe/task entries)
//     busy_accum_us_  accumulated execution time (work conservation)
//     slots_          per-worker capacity
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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cluster/queue_entry.h"
#include "src/common/aligned.h"
#include "src/common/check.h"
#include "src/common/ring_buffer.h"
#include "src/common/types.h"

namespace hawk {

// An index into the cluster-wide slot space [0, TotalSlots()). Slot s belongs
// to the worker whose slot range contains s; ranges are contiguous and in
// worker-id order, so any worker-id prefix (e.g. the general partition) is
// also a slot-id prefix.
using SlotId = uint32_t;

// Per-worker capacity ceiling: uint16 slot counters keep the hot arrays
// dense, and the cap sits well below the type's ceiling so per-worker
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

  uint32_t NumWorkers() const { return static_cast<uint32_t>(slots_.size()); }
  uint64_t TotalSlots() const { return total_slots_; }

  // --- sharded execution ---------------------------------------------------
  // Splits the occupancy accumulators (queued/executing totals) by worker
  // shard so concurrent shards of the sharded simulation executor never write
  // one shared counter. `shard_begin` lists each shard's first worker id,
  // strictly increasing and starting at 0; shard s owns the contiguous range
  // [shard_begin[s], shard_begin[s+1]) (the last shard runs to NumWorkers()).
  // Must be called before any entry is queued or executed. The default,
  // unconfigured store keeps a single accumulator, so the serial driver's
  // arithmetic is unchanged.
  void ConfigureShards(const std::vector<WorkerId>& shard_begin);

  // --- slots -------------------------------------------------------------
  uint32_t Slots(WorkerId id) const { return slots_[Check(id)]; }
  uint32_t FreeSlots(WorkerId id) const { return free_[Check(id)]; }
  bool HasFreeSlot(WorkerId id) const { return free_[Check(id)] > 0; }
  uint32_t ExecutingSlots(WorkerId id) const { return executing_[Check(id)]; }
  uint32_t RequestingSlots(WorkerId id) const { return requesting_[Check(id)]; }
  uint32_t OccupiedSlots(WorkerId id) const {
    const size_t i = Check(id);
    return static_cast<uint32_t>(executing_[i]) + requesting_[i];
  }
  // True while any occupied slot (executing or resolving) holds long work;
  // the steal scan treats an in-flight long probe like an executing long task.
  bool AnyOccupiedLong(WorkerId id) const { return occupied_long_[Check(id)] > 0; }

  // --- slot-index space ----------------------------------------------------
  // First slot id of `id`'s contiguous slot range. SlotBegin(NumWorkers())
  // == TotalSlots().
  SlotId SlotBegin(WorkerId id) const {
    HAWK_CHECK_LE(id, slots_.size());
    return uniform_ ? static_cast<SlotId>(id * uniform_slots_) : slot_begin_[id];
  }
  WorkerId WorkerOfSlot(SlotId slot) const {
    HAWK_CHECK_LT(slot, total_slots_);
    return uniform_ ? slot / uniform_slots_ : slot_to_worker_[slot];
  }

  // --- queue -----------------------------------------------------------
  void Enqueue(WorkerId id, const QueueEntry& entry) {
    const size_t i = Check(id);
    queues_[i].PushBack(entry);
    if (entry.is_long) {
      ++queue_long_[i];
    } else {
      ++queue_short_[i];
    }
    ++totals_[ShardOf(i)].queued;
  }

  bool QueueEmpty(WorkerId id) const { return queues_[Check(id)].Empty(); }
  size_t QueueSize(WorkerId id) const { return queues_[Check(id)].Size(); }

  // Queue entry at FIFO position `i` (0 = next to pop).
  const QueueEntry& QueueAt(WorkerId id, size_t i) const { return queues_[Check(id)].At(i); }

  QueueEntry PopFront(WorkerId id) {
    const size_t i = Check(id);
    const QueueEntry entry = queues_[i].PopFront();
    if (entry.is_long) {
      --queue_long_[i];
    } else {
      --queue_short_[i];
    }
    ShardTotals& totals = totals_[ShardOf(i)];
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
    const size_t i = Check(id);
    out->reserve(out->size() + queues_[i].Size());
    while (!queues_[i].Empty()) {
      out->push_back(PopFront(id));
    }
  }

  // Fail-stop crash: releases every occupied slot (executing and requesting)
  // in one stroke. The queue must already be drained; the caller is
  // responsible for invalidating the in-flight completions/resolves whose
  // slots this frees.
  void ResetSlots(WorkerId id) {
    const size_t i = Check(id);
    HAWK_CHECK(queues_[i].Empty()) << "ResetSlots on worker " << id
                                   << " with a non-empty queue (drain first)";
    ShardTotals& totals = totals_[ShardOf(i)];
    HAWK_CHECK_GE(totals.executing, executing_[i]);
    totals.executing -= executing_[i];
    executing_[i] = 0;
    requesting_[i] = 0;
    occupied_long_[i] = 0;
    free_[i] = slots_[i];
  }

  // Takes back execution time charged by BeginExecute for work a crash threw
  // away (BeginExecute charges the full duration up front; a killed task only
  // delivered part of it).
  void DeductBusyUs(WorkerId id, DurationUs us) {
    const size_t i = Check(id);
    HAWK_CHECK_GE(busy_accum_us_[i], us);
    busy_accum_us_[i] -= us;
  }

  // --- execution state transitions --------------------------------------
  // Occupies a free slot with a late-binding request (probe at head of
  // queue; resolves after one RTT).
  void BeginRequest(WorkerId id, bool probe_is_long) {
    const size_t i = Check(id);
    HAWK_CHECK_GT(free_[i], 0u) << "BeginRequest on worker " << id << " with no free slot";
    --free_[i];
    ++requesting_[i];
    if (probe_is_long) {
      ++occupied_long_[i];
    }
  }

  // Releases a requesting slot (the RTT answer arrived — task or cancel).
  // `probe_is_long` must match the BeginRequest that occupied the slot.
  void ResolveRequest(WorkerId id, bool probe_is_long) {
    const size_t i = Check(id);
    HAWK_CHECK_GT(requesting_[i], 0u) << "ResolveRequest on worker " << id
                                      << " with no request in flight";
    --requesting_[i];
    ++free_[i];
    if (probe_is_long) {
      HAWK_CHECK_GT(occupied_long_[i], 0u);
      --occupied_long_[i];
    }
  }

  // Occupies a free slot with an executing task.
  void BeginExecute(WorkerId id, SimTime now, const QueueEntry& task) {
    (void)now;
    const size_t i = Check(id);
    HAWK_CHECK_GT(free_[i], 0u) << "BeginExecute on worker " << id << " with no free slot";
    HAWK_CHECK(task.kind == EntryKind::kTask);
    --free_[i];
    ++executing_[i];
    if (task.is_long) {
      ++occupied_long_[i];
    }
    busy_accum_us_[i] += task.duration;
    ++totals_[ShardOf(i)].executing;
  }

  // Releases an executing slot. `was_long` must match the task's scheduling
  // class from BeginExecute.
  void FinishExecute(WorkerId id, bool was_long) {
    const size_t i = Check(id);
    HAWK_CHECK_GT(executing_[i], 0u) << "FinishExecute on worker " << id
                                     << " with nothing executing";
    --executing_[i];
    ++free_[i];
    if (was_long) {
      HAWK_CHECK_GT(occupied_long_[i], 0u);
      --occupied_long_[i];
    }
    ShardTotals& totals = totals_[ShardOf(i)];
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

  // Removes and returns the stealable group (empty vector when there is no
  // head-of-line blocking to relieve). Compatibility path for tests and
  // custom policies; the simulation hot path uses StealGroupInto.
  std::vector<QueueEntry> ExtractStealableGroup(WorkerId id);

  // True iff the stealable group is non-empty.
  bool HasStealableGroup(WorkerId id) const {
    return StealableGroupBegin(id) < queues_[id].Size();
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

  // Total microseconds of task execution accumulated on `id`.
  DurationUs BusyAccumUs(WorkerId id) const { return busy_accum_us_[Check(id)]; }

  DurationUs TotalBusyUs() const {
    DurationUs total = 0;
    for (const DurationUs busy : busy_accum_us_) {
      total += busy;
    }
    return total;
  }

 private:
  // One cache line per shard: shards mutate their own totals concurrently, so
  // neighbouring shards must never share a line (false sharing would only
  // cost performance, but a shared counter would be a data race).
  struct alignas(64) ShardTotals {
    uint64_t executing = 0;
    uint64_t queued = 0;
  };

  size_t Check(WorkerId id) const {
    HAWK_CHECK_LT(id, slots_.size());
    return id;
  }

  uint32_t ShardOf(size_t i) const { return shard_of_.empty() ? 0u : shard_of_[i]; }

  // Index (FIFO position) of the first entry of the stealable group, or the
  // queue size if none. Screens on the composition counters before scanning.
  size_t StealableGroupBegin(WorkerId id) const;

  // Erases queue positions [begin, end) and updates the composition counters.
  void RemoveGroup(WorkerId id, size_t begin, size_t end);

  // Hot arrays (dense, one small integer per worker). Cache-line-aligned
  // bases: concurrent shards of the sharded executor mutate disjoint worker
  // ranges of these arrays, and the driver rounds large-cluster shard
  // boundaries to 32-worker multiples — with aligned bases that puts every
  // boundary on a line boundary in each array, so neighbouring shards never
  // write the same line.
  CacheAlignedVector<uint16_t> free_;
  CacheAlignedVector<uint16_t> executing_;
  CacheAlignedVector<uint16_t> requesting_;
  CacheAlignedVector<uint16_t> occupied_long_;
  CacheAlignedVector<uint32_t> queue_long_;
  CacheAlignedVector<uint32_t> queue_short_;

  // Cold side arrays (queues_ and busy_accum_us_ are phase-written too, so
  // they get the same aligned-base treatment).
  std::vector<uint16_t> slots_;
  CacheAlignedVector<RingBuffer<QueueEntry>> queues_;
  CacheAlignedVector<DurationUs> busy_accum_us_;

  // Slot-index mapping. Uniform layouts need no tables (divide/multiply by
  // the shared slot count); heterogeneous layouts carry prefix + reverse maps.
  bool uniform_ = true;
  uint32_t uniform_slots_ = 1;
  std::vector<SlotId> slot_begin_;       // Size N+1; empty when uniform.
  std::vector<WorkerId> slot_to_worker_; // Size TotalSlots; empty when uniform.

  uint64_t total_slots_ = 0;

  // Occupancy accumulators, one per shard (exactly one until ConfigureShards).
  std::vector<ShardTotals> totals_{1};
  std::vector<uint32_t> shard_of_;  // Empty = everything in shard 0.
};

}  // namespace hawk

#endif  // HAWK_CLUSTER_WORKER_STORE_H_
