// Slot-aware view over WaitingTimeQueue for multi-slot workers.
//
// The §3.7 centralized component models each execution slot as an
// independent single-slot server (the paper's own equivalence, §4.1): a
// worker with S slots contributes S *lanes* to the underlying
// WaitingTimeQueue, and a task is assigned to the minimum-waiting lane of
// any tracked worker. With every worker at one slot, lane ids equal worker
// ids and this adapter is a transparent pass-through — the assignment
// sequence is bit-identical to driving WaitingTimeQueue directly.
//
// Feedback routing comes in two flavors; a user picks one and sticks to it:
//
// Worker-routed (the simulation driver): starts and finishes are reported
// per worker, not per lane. Starts are unambiguous — a worker's centrally
// placed tasks are enqueued in placement order and its FIFO queue starts
// them in that order — so start feedback pops the worker's pending-lane
// FIFO. Finish feedback pops the running-lane FIFO; with S > 1, concurrent
// tasks on one worker may finish out of start order, in which case the
// estimate is re-synchronized on a sibling lane of the same worker. That
// keeps the worker's aggregate view exact and only blurs which of its
// identical lanes carries the residue — invisible to placement, which sees
// the worker, not the lane. Use AssignTask(now, est) with
// OnTaskStart/OnTaskFinish.
//
// Lane-routed (the prototype backend): the FIFO inference above assumes
// feedback arrives in placement order, which a multi-threaded RPC bus does
// not guarantee. There the assigner stamps the charged lane on the
// placement message, node monitors echo it in their start/finish reports,
// and feedback hits the exact lane regardless of delivery order. Use
// AssignTask(now, est, &lane) with OnTaskStartLane/OnTaskFinishLane.
#ifndef HAWK_CORE_SLOT_WAITING_QUEUE_H_
#define HAWK_CORE_SLOT_WAITING_QUEUE_H_

#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/check.h"
#include "src/common/ring_buffer.h"
#include "src/common/types.h"
#include "src/core/waiting_time_queue.h"

namespace hawk {

class SlotWaitingTimeQueue {
 public:
  // Tracks workers [0, num_workers) of `cluster` — a worker-id prefix, which
  // in this codebase is always either the general partition or the whole
  // cluster. Slot counts are read from the cluster's store at construction.
  SlotWaitingTimeQueue(const Cluster& cluster, uint32_t num_workers)
      : num_workers_(num_workers),
        lane_count_(cluster.workers().SlotBegin(num_workers)),
        identity_(lane_count_ == num_workers),
        inner_(lane_count_) {
    HAWK_CHECK_GT(num_workers, 0u);
    HAWK_CHECK_LE(num_workers, cluster.NumWorkers());
    if (!identity_) {
      lane_to_worker_.resize(lane_count_);
      for (WorkerId w = 0; w < num_workers; ++w) {
        for (SlotId lane = cluster.workers().SlotBegin(w);
             lane < cluster.workers().SlotBegin(w + 1); ++lane) {
          lane_to_worker_[lane] = w;
        }
      }
      pending_.resize(num_workers);
      running_.resize(num_workers);
    }
  }

  uint32_t NumWorkers() const { return num_workers_; }
  uint32_t NumLanes() const { return lane_count_; }

  // Assigns one task with estimated runtime `estimate_us` to the worker
  // owning the minimum-waiting lane and charges that lane's backlog. Ties
  // break by lowest lane id, hence lowest worker id (deterministic).
  // Worker-routed protocol: the assignment is remembered in the worker's
  // pending-lane FIFO for OnTaskStart to pop.
  WorkerId AssignTask(SimTime now, DurationUs estimate_us) {
    const SlotId lane = inner_.AssignTask(now, estimate_us);
    if (identity_) {
      return lane;
    }
    const WorkerId worker = lane_to_worker_[lane];
    pending_[worker].PushBack(lane);
    return worker;
  }

  // Lane-routed protocol: same assignment, additionally reporting the
  // charged lane — a slot id of the tracked prefix — via `*lane`. No
  // pending-FIFO state is recorded: the caller must route this task's
  // start/finish feedback with OnTaskStartLane/OnTaskFinishLane (mixing
  // protocols would desynchronize the worker-routed FIFOs).
  WorkerId AssignTask(SimTime now, DurationUs estimate_us, SlotId* lane) {
    *lane = inner_.AssignTask(now, estimate_us);
    return identity_ ? *lane : lane_to_worker_[*lane];
  }

  // Notification: a tracked task with estimate `estimate_us` began executing
  // on `worker`. Must match a prior AssignTask in per-worker FIFO order.
  void OnTaskStart(WorkerId worker, SimTime now, DurationUs estimate_us) {
    if (identity_) {
      inner_.OnTaskStart(worker, now, estimate_us);
      return;
    }
    HAWK_CHECK_LT(worker, num_workers_);
    HAWK_CHECK(!pending_[worker].Empty()) << "start without matching assignment on worker "
                                          << worker;
    const SlotId lane = pending_[worker].PopFront();
    inner_.OnTaskStart(lane, now, estimate_us);
    running_[worker].PushBack(lane);
  }

  // Lane-routed notifications: feedback for a task assigned through the
  // lane-reporting AssignTask overload, addressed to the exact charged lane.
  // Order-insensitive across lanes and exact within one (every start
  // discharges precisely the estimate its own assignment charged), which is
  // what an out-of-order delivery bus requires.
  void OnTaskStartLane(SlotId lane, SimTime now, DurationUs estimate_us) {
    HAWK_CHECK_LT(lane, lane_count_);
    inner_.OnTaskStart(lane, now, estimate_us);
  }
  void OnTaskFinishLane(SlotId lane, SimTime now) {
    HAWK_CHECK_LT(lane, lane_count_);
    inner_.OnTaskFinish(lane, now);
  }

  // Notification: a tracked task executing on `worker` finished.
  void OnTaskFinish(WorkerId worker, SimTime now) {
    if (identity_) {
      inner_.OnTaskFinish(worker, now);
      return;
    }
    HAWK_CHECK_LT(worker, num_workers_);
    HAWK_CHECK(!running_[worker].Empty()) << "finish without matching start on worker "
                                          << worker;
    const SlotId lane = running_[worker].PopFront();
    inner_.OnTaskFinish(lane, now);
  }

 private:
  uint32_t num_workers_;
  uint32_t lane_count_;
  // True when every tracked worker has exactly one slot: lane == worker and
  // no routing state is needed (the dominant, paper-default configuration).
  bool identity_;
  WaitingTimeQueue inner_;
  std::vector<WorkerId> lane_to_worker_;
  // Per-worker FIFO of lanes with an assignment awaiting its start / finish
  // notification. Empty vectors when identity_.
  std::vector<RingBuffer<SlotId>> pending_;
  std::vector<RingBuffer<SlotId>> running_;
};

}  // namespace hawk

#endif  // HAWK_CORE_SLOT_WAITING_QUEUE_H_
