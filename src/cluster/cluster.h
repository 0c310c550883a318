// The simulated cluster: a WorkerStore (one cache line per worker) plus the Hawk
// partitioning scheme (paper §3.4).
//
// Workers [0, general_count) form the *general partition* (short and long
// tasks may run there); workers [general_count, num_workers) form the *short
// partition*, reserved for short tasks. Baselines that do not partition use
// general_count == num_workers.
//
// Because the store's slot-index space is laid out in worker-id order, the
// general partition is also a slot-id prefix [0, GeneralSlots()): probe
// placement and steal-victim selection sample slots (weighting workers by
// capacity) and map back with WorkerOfSlot().
#ifndef HAWK_CLUSTER_CLUSTER_H_
#define HAWK_CLUSTER_CLUSTER_H_

#include "src/cluster/worker_store.h"
#include "src/common/check.h"
#include "src/common/types.h"

namespace hawk {

class Cluster {
 public:
  Cluster(uint32_t num_workers, uint32_t general_count, const SlotSpec& slots = SlotSpec{})
      : store_(num_workers, slots), general_count_(general_count) {
    HAWK_CHECK_LE(general_count, num_workers);
    HAWK_CHECK_GT(general_count, 0u) << "general partition may not be empty";
    general_slots_ = store_.SlotBegin(general_count);
  }

  uint32_t NumWorkers() const { return store_.NumWorkers(); }
  uint32_t GeneralCount() const { return general_count_; }

  bool InGeneralPartition(WorkerId id) const { return id < general_count_; }

  // Worker state, queues and execution transitions all live on the store.
  WorkerStore& workers() { return store_; }
  const WorkerStore& workers() const { return store_; }

  // --- slot-index space ----------------------------------------------------
  uint64_t TotalSlots() const { return store_.TotalSlots(); }
  // Slots belonging to the general partition: ids [0, GeneralSlots()).
  SlotId GeneralSlots() const { return general_slots_; }
  WorkerId WorkerOfSlot(SlotId slot) const { return store_.WorkerOfSlot(slot); }

  // Fraction of slots currently executing a task (the paper's "percentage of
  // used servers", generalized to slot capacity). O(1): the executing count
  // is maintained by the store's execution state transitions instead of a
  // full scan per utilization sample.
  double Utilization() const {
    return static_cast<double>(store_.ExecutingTotal()) /
           static_cast<double>(store_.TotalSlots());
  }

  // Total accumulated execution time across workers (work conservation).
  DurationUs TotalBusyUs() const { return store_.TotalBusyUs(); }

 private:
  WorkerStore store_;
  uint32_t general_count_;
  SlotId general_slots_;
};

}  // namespace hawk

#endif  // HAWK_CLUSTER_CLUSTER_H_
