// Centralized long-job placement (paper §3.7).
//
// The centralized component keeps a priority queue of <worker, waiting time>
// sorted by waiting time: "the sum of the estimated execution time for all
// long tasks in that server's queue plus the remaining estimated execution
// time of any long task that currently may be executing". Each task of a new
// long job goes to the head (minimum waiting time) and the queue is updated
// after every assignment.
//
// The scheduler's view stays "timely and fairly accurate" (§3.7) because —
// exactly as in the Spark implementation, where node monitors report to the
// scheduler — it receives task start and finish notifications and
// re-synchronizes its estimate with reality at each one:
//   waiting(w, now) = backlog(w) + remaining(w, now)
//   backlog(w)   = sum of estimates of tasks assigned to w, not yet started
//   remaining(w) = max(0, exec_drain(w) - now), exec_drain set to now + est
//                  when a task starts and to now when it finishes.
// Between notifications the stored key — an absolute estimated drain time —
// is constant, so waiting times decay with the clock at no bookkeeping cost
// while the set ordering stays valid. Start notifications also absorb delays
// the scheduler cannot see directly (e.g. short tasks interleaved ahead of a
// long task on a general-partition worker): the backlog simply starts later.
#ifndef HAWK_CORE_WAITING_TIME_QUEUE_H_
#define HAWK_CORE_WAITING_TIME_QUEUE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace hawk {

class WaitingTimeQueue {
 public:
  // Tracks workers [0, num_workers); all start with zero waiting time.
  explicit WaitingTimeQueue(uint32_t num_workers) {
    HAWK_CHECK_GT(num_workers, 0u);
    backlog_.assign(num_workers, 0);
    exec_drain_.assign(num_workers, 0);
    executing_.assign(num_workers, 0);
    heap_.reserve(num_workers);
    pos_.resize(num_workers);
    // All keys are equal (zero drain, idle), so ascending worker order is
    // already a valid min-heap under the comparator.
    for (uint32_t w = 0; w < num_workers; ++w) {
      heap_.push_back(Key{0, 0, w});
      pos_[w] = w;
    }
  }

  uint32_t NumWorkers() const { return static_cast<uint32_t>(backlog_.size()); }

  // Assigns one task with estimated runtime `estimate_us` to the worker with
  // the minimum waiting time and adds the estimate to its backlog. Ties are
  // broken by lowest worker id (deterministic).
  WorkerId AssignTask(SimTime now, DurationUs estimate_us) {
    HAWK_CHECK_GE(estimate_us, 0);
    // Stored keys only age downward relative to reality (a key is a lower
    // bound on the fresh key), so refreshing heads until the minimum is
    // fresh yields the exact minimum-waiting worker. Fast path: every fresh
    // key is >= now, and a drained head (no backlog, nothing executing) has
    // fresh key exactly `now` — it is a global minimum without any refresh,
    // which keeps assignments O(log n) on mostly-idle clusters. (Ties among
    // drained workers then resolve least-recently-drained first.)
    while (true) {
      const WorkerId head = heap_.front().worker;
      if (backlog_[head] == 0 && executing_[head] == 0) {
        break;
      }
      const SimTime fresh = std::max(now, exec_drain_[head]) + backlog_[head];
      if (fresh == heap_.front().drain) {
        break;
      }
      Reindex(head, now);
    }
    const WorkerId worker = heap_.front().worker;
    backlog_[worker] += estimate_us;
    Reindex(worker, now);
    return worker;
  }

  // Notification: a tracked task with estimate `estimate_us` began executing
  // on `worker`. Must match a prior AssignTask estimate.
  void OnTaskStart(WorkerId worker, SimTime now, DurationUs estimate_us) {
    HAWK_CHECK_LT(worker, backlog_.size());
    HAWK_CHECK_GE(backlog_[worker], estimate_us) << "start without matching assignment";
    backlog_[worker] -= estimate_us;
    exec_drain_[worker] = now + estimate_us;
    executing_[worker] = 1;
    Reindex(worker, now);
  }

  // Notification: the tracked task executing on `worker` finished.
  void OnTaskFinish(WorkerId worker, SimTime now) {
    HAWK_CHECK_LT(worker, backlog_.size());
    exec_drain_[worker] = now;
    executing_[worker] = 0;
    Reindex(worker, now);
  }

  // Estimated waiting time of `worker` at `now` (§3.7 definition).
  DurationUs WaitingTime(WorkerId worker, SimTime now) const {
    HAWK_CHECK_LT(worker, backlog_.size());
    return backlog_[worker] + std::max<DurationUs>(0, exec_drain_[worker] - now);
  }

 private:
  // Ordering: primary key is the absolute time at which the worker's known
  // long work would drain (max(now, exec_drain) + backlog — constant between
  // notifications). Among equal drains — notably workers whose estimated
  // waiting hit zero — prefer workers that are NOT currently executing a
  // tracked task: an overdue task (running past its estimate) has zero
  // *estimated* remaining time, but a genuinely free worker is still the
  // better home for a new task. Final tie-break: lowest id (deterministic).
  struct Key {
    SimTime drain;
    uint8_t executing;
    WorkerId worker;
    bool operator<(const Key& other) const {
      if (drain != other.drain) {
        return drain < other.drain;
      }
      if (executing != other.executing) {
        return executing < other.executing;
      }
      return worker < other.worker;
    }
  };

  // The priority structure is an indexed 4-ary min-heap over one Key per
  // worker (pos_ maps worker -> heap slot): find-min is O(1), a key update
  // is one allocation-free sift, and sift comparisons walk contiguous
  // memory. The comparator defines a total order, so the minimum — and thus
  // every assignment — is identical to what an ordered set would produce.
  // The heap entry is the only stored copy of a worker's key; AssignTask's
  // freshness test reads it at the front. Per tracked lane the queue holds
  // 37 bytes: the 16-byte Key, its 4-byte slot, backlog, drain and the
  // executing flag.
  void Reindex(WorkerId worker, SimTime now) {
    const size_t i = pos_[worker];
    heap_[i] = Key{std::max(now, exec_drain_[worker]) + backlog_[worker], executing_[worker],
                   worker};
    SiftUp(i);
    SiftDown(pos_[worker]);
  }

  static constexpr size_t kArity = 4;

  void Place(size_t slot, const Key& key) {
    heap_[slot] = key;
    pos_[key.worker] = static_cast<uint32_t>(slot);
  }

  void SiftUp(size_t i) {
    const Key key = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!(key < heap_[parent])) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, key);
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    const Key key = heap_[i];
    while (true) {
      const size_t first_child = i * kArity + 1;
      if (first_child >= n) {
        break;
      }
      const size_t end_child = std::min(first_child + kArity, n);
      size_t best = first_child;
      for (size_t c = first_child + 1; c < end_child; ++c) {
        if (heap_[c] < heap_[best]) {
          best = c;
        }
      }
      if (!(heap_[best] < key)) {
        break;
      }
      Place(i, heap_[best]);
      i = best;
    }
    Place(i, key);
  }

  std::vector<Key> heap_;
  std::vector<uint32_t> pos_;  // worker -> heap slot
  std::vector<DurationUs> backlog_;
  std::vector<SimTime> exec_drain_;
  std::vector<uint8_t> executing_;
};

}  // namespace hawk

#endif  // HAWK_CORE_WAITING_TIME_QUEUE_H_
