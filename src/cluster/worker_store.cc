#include "src/cluster/worker_store.h"

namespace hawk {

WorkerStore::WorkerStore(uint32_t num_workers, const SlotSpec& spec) {
  HAWK_CHECK_GT(num_workers, 0u);
  HAWK_CHECK_GE(spec.slots_per_worker, 1u);
  HAWK_CHECK_LE(spec.slots_per_worker, kMaxSlotsPerWorker);
  if (!spec.Uniform()) {
    HAWK_CHECK_GE(spec.big_worker_slots, 1u);
    HAWK_CHECK_LE(spec.big_worker_slots, kMaxSlotsPerWorker);
  }

  recs_.resize(num_workers);
  // Value-initialized: every bit starts clear, like every queue.
  queued_short_ = std::make_unique<std::atomic<uint64_t>[]>((num_workers + size_t{63}) / 64);

  uniform_ = spec.Uniform() || spec.BigWorkerCount(num_workers) == 0;
  uniform_slots_ = spec.slots_per_worker;
  if (!uniform_) {
    slot_begin_.resize(static_cast<size_t>(num_workers) + 1);
  }
  uint64_t next_slot = 0;
  for (uint32_t w = 0; w < num_workers; ++w) {
    const uint32_t s = uniform_ ? spec.slots_per_worker : spec.SlotsOf(w, num_workers);
    recs_[w].slots = static_cast<uint16_t>(s);
    recs_[w].free = static_cast<uint16_t>(s);
    if (!uniform_) {
      slot_begin_[w] = static_cast<SlotId>(next_slot);
    }
    next_slot += s;
  }
  total_slots_ = next_slot;
  // The slot-index space is sampled with 32-bit draws (probe placement,
  // steal victim selection); a layout that overflows it is a config error.
  HAWK_CHECK_LE(total_slots_, static_cast<uint64_t>(kInvalidWorker))
      << "total slot count overflows the 32-bit slot-index space";
  if (!uniform_) {
    slot_begin_[num_workers] = static_cast<SlotId>(total_slots_);
    slot_to_worker_.resize(total_slots_);
    for (uint32_t w = 0; w < num_workers; ++w) {
      for (SlotId s = slot_begin_[w]; s < slot_begin_[w + 1]; ++s) {
        slot_to_worker_[s] = w;
      }
    }
  }
}

StealRange WorkerStore::StealableGroup(WorkerId id) const {
  // O(1) screening on the record's counters: the group is made of short
  // entries, and (unless some occupied slot holds long work) needs a long
  // entry ahead of it in the queue.
  const Rec& w = Record(id);
  const size_t size = w.queue.Size();
  const bool occupied_long = w.occupied_long > 0;
  if (w.queue_short == 0 || (!occupied_long && w.queue_short == size)) {
    return StealRange{size, size};
  }
  return StealGroup(size, occupied_long, [&w](size_t k) { return w.queue.At(k).is_long; });
}

size_t WorkerStore::StealGroupInto(WorkerId victim, WorkerId thief) {
  // Self-stealing would re-enqueue entries onto the queue being scanned and
  // never terminate; a policy that fails to exclude the thief from its
  // victim sample must fail fast instead.
  HAWK_CHECK_NE(victim, thief) << "worker " << thief << " stealing from itself";
  const auto [begin, end] = StealableGroup(victim);
  if (begin == end) {
    return 0;
  }
  Rec& w = Record(victim);
  for (size_t k = begin; k < end; ++k) {
    Enqueue(thief, w.queue.At(k));
  }
  // Everything moved is short.
  const size_t moved = end - begin;
  w.queue_short -= static_cast<uint32_t>(moved);
  if (w.queue_short == 0) {
    ClearQueuedShort(victim);
  }
  ShardTotals& totals = totals_[ShardOf(victim)];
  HAWK_CHECK_GE(totals.queued, moved);
  totals.queued -= moved;
  w.queue.EraseRange(begin, end);
  return moved;
}

void WorkerStore::ConfigureShards(const std::vector<WorkerId>& shard_begin) {
  HAWK_CHECK(!shard_begin.empty());
  HAWK_CHECK_EQ(shard_begin.front(), 0u) << "shard 0 must start at worker 0";
  HAWK_CHECK_EQ(ExecutingTotal(), 0u) << "ConfigureShards on a store already in use";
  HAWK_CHECK_EQ(TotalQueued(), 0u) << "ConfigureShards on a store already in use";
  HAWK_CHECK_EQ(TotalBusyUs(), 0) << "ConfigureShards on a store already in use";
  const uint32_t num_workers = NumWorkers();
  shard_of_.assign(num_workers, 0);
  for (size_t s = 0; s + 1 < shard_begin.size(); ++s) {
    HAWK_CHECK_LT(shard_begin[s], shard_begin[s + 1]) << "shard boundaries must be increasing";
  }
  HAWK_CHECK_LT(shard_begin.back(), num_workers) << "empty trailing shard";
  for (size_t s = 0; s < shard_begin.size(); ++s) {
    const WorkerId end = s + 1 < shard_begin.size() ? shard_begin[s + 1] : num_workers;
    for (WorkerId w = shard_begin[s]; w < end; ++w) {
      shard_of_[w] = static_cast<uint32_t>(s);
    }
  }
  totals_.assign(shard_begin.size(), ShardTotals{});
}

}  // namespace hawk
