// Node monitor: the per-worker agent of the prototype runtime (paper §3.8).
//
// Holds the worker's FIFO queue of probes and tasks and executes up to
// `slots` tasks concurrently (multi-slot workers, mirroring the simulator's
// WorkerStore: the slots share one FIFO queue). Tasks are sleeps, as in the
// paper's prototype; rather than burning one thread per slot, a single
// executor thread tracks the running tasks' wall-clock completion deadlines
// in a min-heap and completes them as they fall due. The monitor performs
// Sparrow-style late binding over RPC — each free slot can park on its own
// outstanding task request — and implements both sides of randomized work
// stealing: as a thief when it runs out of queued work (victim selection via
// the shared StealingPolicy over the run's layout cluster), and as a victim
// serving steal requests against its queue (Fig. 3 group rule).
#ifndef HAWK_RUNTIME_NODE_MONITOR_H_
#define HAWK_RUNTIME_NODE_MONITOR_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/steal_group.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/stealing_policy.h"
#include "src/runtime/message_bus.h"
#include "src/runtime/proto_messages.h"

namespace hawk {
namespace runtime {

class FailureDetector;

// One entry of a node monitor's FIFO queue: a probe, or a task the backend
// placed.
using MonitorEntry = std::variant<ProbeMsg, TaskMsg>;

// The stealable group of a monitor's queue: the simulator's Fig. 3 rule
// (src/cluster/steal_group.h) over the monitor's entries.
inline StealRange StealGroupOf(const std::deque<MonitorEntry>& queue, bool occupied_long) {
  return StealGroup(queue.size(), occupied_long, [&queue](size_t k) {
    return std::visit([](const auto& m) { return m.is_long; }, queue[k]);
  });
}

struct NodeMonitorConfig {
  // The run's immutable cluster layout: worker slot counts, the general
  // partition boundary, and the slot-index space stealing samples from.
  // Shared read-only by every monitor; must outlive them.
  const Cluster* layout = nullptr;
  uint32_t steal_cap = 10;  // 0 disables stealing.
  StealingPolicy::VictimSelection victim_selection = StealingPolicy::VictimSelection::kRandom;
  // Fault tolerance: when nonzero, a thief whose steal request has gone
  // unanswered this long gives the victim up for dead and resumes its round
  // — without it, one crashed victim permanently wedges the thief's
  // stealing. Zero (the default) keeps the fault-free protocol untouched.
  std::chrono::microseconds steal_response_timeout{0};
  // Straggler injection: each task start is stricken with probability
  // `straggler_rate` and really runs `straggler_slowdown_factor` x its
  // nominal duration on the slot (a genuinely slow executor, not a modeled
  // one). The stretch is charged as wasted work, like the simulator's.
  double straggler_rate = 0.0;
  double straggler_slowdown_factor = 8.0;
  // When set, steal rounds skip victims the detector currently suspects;
  // null keeps victim selection detector-blind.
  const FailureDetector* detector = nullptr;
};

class NodeMonitor {
 public:
  NodeMonitor(Address address, const NodeMonitorConfig& config, MessageBus* bus,
              uint64_t seed);
  ~NodeMonitor();

  NodeMonitor(const NodeMonitor&) = delete;
  NodeMonitor& operator=(const NodeMonitor&) = delete;

  // Registers the bus handler. Call before any traffic.
  void Start();
  // Stops the executor thread; pending queue entries are dropped.
  void Stop();

  // Fail-stop crash: the monitor drops its queue, outstanding requests, and
  // running tasks (their elapsed time is accounted as wasted work) and stops
  // reacting to every message until Rejoin — from the outside it is simply
  // silent, exactly like a dead node. The schedulers' timeout-based reaping
  // is what recovers the work that died here.
  void Crash();
  // Brings a crashed monitor back, empty, with all slots free.
  void Rejoin();

  // Emits one heartbeat to the failure detector's address. Driven by the
  // harness's heartbeat thread; a crashed monitor stays silent, which is
  // exactly the signal the detector's suspicion machinery keys on.
  void SendHeartbeat();

  // Slots currently executing a task (utilization sampling).
  uint32_t ExecutingSlots() const { return executing_slots_.load(std::memory_order_relaxed); }

  // Counters (racy reads are fine; read after Drain for exact values).
  uint64_t tasks_executed() const { return tasks_executed_.load(std::memory_order_relaxed); }
  uint64_t steals_attempted() const { return steals_attempted_.load(std::memory_order_relaxed); }
  uint64_t entries_stolen() const { return entries_stolen_.load(std::memory_order_relaxed); }
  DurationUs busy_us() const { return busy_us_.load(std::memory_order_relaxed); }
  DurationUs wasted_work_us() const { return wasted_work_us_.load(std::memory_order_relaxed); }

 private:
  // A task occupying a slot until its wall-clock deadline. `actual_us` is
  // the real slot occupancy — the nominal duration, or its straggler
  // stretch when the start was stricken.
  struct RunningTask {
    std::chrono::steady_clock::time_point deadline;
    int64_t actual_us = 0;
    TaskMsg task;
  };
  struct DeadlineLater {
    bool operator()(const RunningTask& a, const RunningTask& b) const {
      return a.deadline > b.deadline;
    }
  };

  void HandleMessage(const BusMessage& message);
  void ExecutorLoop();

  // Fills free slots from the queue, then considers stealing. Caller holds mu_.
  void Advance();
  // Occupies a free slot with `task`. Centrally placed tasks report their
  // start to the owning scheduler (§3.7 feedback). Caller holds mu_.
  void StartTaskLocked(const TaskMsg& task, bool centrally_placed);
  // Releases the slot a resolved (granted or cancelled) request was parked
  // on. Caller holds mu_.
  void ResolveRequestLocked(JobId job);
  // Starts or continues a steal round. Caller holds mu_.
  void TryStealLocked();
  // Victim side: removes and returns the stealable group (Fig. 3). Caller
  // holds mu_.
  std::vector<ProbeMsg> ExtractStealableLocked();

  const Address address_;
  const NodeMonitorConfig config_;
  MessageBus* bus_;
  // Shared steal-victim selection (same sampling and ordering as the
  // simulation policies); seeded per monitor.
  StealingPolicy stealing_;
  // Straggler draws; a dedicated stream so enabling stragglers cannot
  // perturb steal-victim sampling. Never drawn from at rate zero.
  Rng straggler_rng_;

  std::mutex mu_;
  std::condition_variable exec_cv_;
  std::deque<MonitorEntry> queue_;
  // The monitor's capacity (layout slot count); free_slots_ starts here and
  // snaps back on crash.
  const uint32_t capacity_;
  uint32_t free_slots_;
  uint32_t requesting_ = 0;
  // Occupied slots (requesting or executing) holding long work — the steal
  // screening input, mirroring the WorkerStore record's occupied_long.
  uint32_t occupied_long_ = 0;
  // Outstanding late-binding requests per job: count and the probes' class
  // (one class per job), so grants/cancels release the right accounting.
  std::unordered_map<JobId, std::pair<uint32_t, bool>> outstanding_;
  std::priority_queue<RunningTask, std::vector<RunningTask>, DeadlineLater> running_;
  bool steal_in_flight_ = false;
  bool steal_round_exhausted_ = false;   // Round failed; wait for new work.
  std::vector<WorkerId> steal_victims_;  // This round's contact list.
  size_t next_victim_ = 0;               // Cursor into steal_victims_.
  // When steal_in_flight_: give the victim up for dead past this point
  // (only armed when the config sets a steal response timeout).
  std::chrono::steady_clock::time_point steal_deadline_;
  bool crashed_ = false;
  bool stopping_ = false;

  std::atomic<uint32_t> executing_slots_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> steals_attempted_{0};
  std::atomic<uint64_t> entries_stolen_{0};
  std::atomic<int64_t> busy_us_{0};
  std::atomic<int64_t> wasted_work_us_{0};

  std::thread executor_;
};

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_NODE_MONITOR_H_
