// Epoch-synchronized sharded simulation of a cluster run.
//
// The serial SimulationDriver processes one global (time, seq) event order on
// one core. This driver splits the worker-id space into `sim_shards`
// contiguous shards and advances them in parallel inside conservative time
// windows, classic conservative parallel discrete-event simulation applied to
// the repo's cost model: every cross-worker effect (probe/task delivery, a
// late-binding answer, a steal hand-off) takes at least one one-way network
// delay, so all shards can run `net_delay_us` of virtual time without ever
// needing each other's state.
//
// Per epoch:
//   1. The coordinator picks the global next time NT (minimum over the
//      arrival cursor, its own pending queue and every shard queue) and sets
//      the window to [NT, NT + net_delay_us).
//   2. Barrier (single-threaded): job arrivals and pending coordinator items
//      inside the window are processed in (time, seq) order — policy
//      callbacks, tracker mutations, shared-RNG draws, steals, fault ticks
//      all happen here and only here.
//   3. Phase (parallel): each shard drains its own event queue up to the
//      window end, touching only worker-local state (queues, slots, busy
//      accounting, its own counters), appending cross-worker effects to a
//      per-shard outbox, and finishing with a local stable sort of that
//      outbox by (due time, worker) — the shard's own post-work, off the
//      coordinator's critical path.
//   4. Merge (pipelined): as each shard publishes its sorted outbox, the
//      coordinator folds it into an accumulated sorted run with a two-way
//      merge — overlapping merge work with still-running phases — and pushes
//      the final run into its pending queue for the next barrier. Each worker
//      lives in exactly one shard, so (due, worker) ties never cross runs and
//      the merged order is a pure function of the records: independent of
//      thread interleaving, shard count, and merge arrival order.
//
// Epochs whose window holds no shard-side event skip steps 3–4 entirely
// (epoch coalescing): the coordinator advances horizon after horizon without
// waking the phase pool, which an empty phase could not have influenced.
//
// Everything the barrier does with a record — dispatch, late-binding resolve,
// completion commit, the fault and recovery ledger — is DriverCore's
// (driver_core.h), shared with the serial driver; this file adds the epochs,
// the phases, the outbox merge and the pool.
//
// The phase pool is persistent and lock-light: workers spin briefly on an
// epoch generation counter before parking on a condvar, claim shards off a
// shared atomic cursor, and publish per-shard ready flags (merge gate) plus a
// pool-wide done counter (barrier-replay gate). Per-epoch allocations are
// pooled — outboxes, merge runs and fault-path scratch keep their capacity
// across epochs — and every spun-on control word sits on its own cache line.
//
// Determinism contract: for a fixed config (including sim_shards > 1) the
// RunResult is bit-identical across sim_threads values, and identical across
// sim_shards values > 1. Results are a sanctioned, golden-pinned divergence
// from the serial driver (sim_shards == 1), listed in driver_core.h.
#ifndef HAWK_SCHEDULER_SHARDED_DRIVER_H_
#define HAWK_SCHEDULER_SHARDED_DRIVER_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/scheduler/driver_core.h"
#include "src/sim/event_queue.h"

namespace hawk {

class ShardedSimulationDriver : public DriverCore<ShardedSimulationDriver> {
 public:
  // `general_count` defines the partition split (pass num_workers for
  // unpartitioned baselines). The trace and policy must outlive the driver.
  // Requires config.sim_shards >= 2 (callers route sim_shards == 1 to the
  // serial SimulationDriver). Policies are invoked exclusively from the
  // single-threaded coordinator, never from a shard phase.
  ShardedSimulationDriver(const Trace* trace, const HawkConfig& config, uint32_t general_count,
                          SchedulerPolicy* policy);
  ~ShardedSimulationDriver() override;

  // Runs the whole trace to completion and returns per-job results (ordered
  // by job id), utilization samples and merged counters.
  RunResult Run();

 private:
  friend class DriverCore<ShardedSimulationDriver>;

  // Coordinator queue payload: a timer or request pushed at a barrier, or a
  // record a shard phase emitted. A phase hands over worker-local events
  // whose cross-worker half belongs to the barrier: dead deliveries
  // (kProbeArrive/kTaskArrive), completions (kTaskComplete), live
  // speculation checks (kSpecCheck), requests (kRequestResolve), plus the
  // record-only kWorkerIdle and kTaskStart.
  struct CoordEvent {
    SimEvent ev;
    SimTime enqueue_time = 0;  // kTaskStart: the started entry's placement time.
  };

  // A phase-emitted record with its commit time: outboxes are merged by
  // (due, worker) before entering the coordinator queue.
  struct OutRecord {
    SimTime due = 0;
    CoordEvent event;
  };

  // One worker shard: a contiguous worker-id range, its event queue (lane 0
  // is the monotone fault-free delivery lane; completions, spec checks and
  // faulty deliveries use the heap), its outbox and its private counters.
  // Cache-line aligned so concurrent shards never share a line; the queue is
  // additionally line-aligned so the shard's queue heads (heap front, lane
  // cursors) never share a line with the topology fields the coordinator
  // reads. The outbox is an arena: cleared (capacity retained) by the owning
  // phase at claim time, read by the coordinator's merge after the shard's
  // ready flag, never reallocated per epoch once warm.
  struct alignas(64) Shard {
    WorkerId begin = 0;
    WorkerId end = 0;
    alignas(64) sim::MultiLaneEventQueue<SimEvent, 1> queue;
    std::vector<OutRecord> outbox;
    RunCounters counters;
    uint64_t deliveries_consumed = 0;  // Feeds the in-flight delivery count.
  };

  // One-per-shard ready flag, line-isolated: the coordinator spins on these
  // while phase threads are writing their shards' hot state, so a flag must
  // not share a line with anything else.
  struct alignas(64) ReadyFlag {
    std::atomic<uint32_t> v{0};
  };
  // Line-isolated pool control words (each spun on from one side of the
  // coordinator/phase handoff while the other side works).
  struct alignas(64) PaddedAtomicU32 {
    std::atomic<uint32_t> v{0};
  };
  struct alignas(64) PaddedAtomicU64 {
    std::atomic<uint64_t> v{0};
  };

  static constexpr size_t kLaneDelivery = 0;

  // --- coordinator (barrier) side ------------------------------------------
  void Commit(const CoordEvent& event);
  // Folds every shard's sorted outbox into pending_, two-way merging runs as
  // their ready flags appear (overlapping with late phases), then waits for
  // the pool's done counter so the next barrier owns all state again.
  void MergeOutboxes();
  void MergeRun(const std::vector<OutRecord>& run);
  static bool RecordLess(const OutRecord& a, const OutRecord& b);

  // --- DriverCore hooks ----------------------------------------------------
  void QueueDelivery(SimTime at, const SimEvent& ev, bool monotone) {
    // The coordinator clock is monotone (clamped), so fault-free deliveries
    // keep the O(1) monotone lane even though epoch windows overlap.
    auto& queue = shards_[ShardOfWorker(ev.worker)].queue;
    if (monotone) {
      queue.PushLane(kLaneDelivery, at, ev);
    } else {
      queue.Push(at, ev);
    }
  }
  void QueueTimer(SimTime at, const SimEvent& ev) {
    CoordEvent event;
    event.ev = ev;
    pending_.Push(at, event);
  }
  // Barrier grant: policy feedback is synchronous, like the serial driver.
  void StartExecution(WorkerId worker, const QueueEntry& task) {
    BeginExecutionAt(shards_[ShardOfWorker(worker)], worker, task, now_);
    if (!task.speculative) {
      policy_->OnTaskStart(worker, task);
    }
  }
  uint64_t DeliveriesConsumed() const;

  // --- shard (phase) side --------------------------------------------------
  // Drains shard events strictly before `t_end`. Worker-local only: may touch
  // the shard's workers, its queue/outbox/counters, exec records and the
  // per-worker straggler substreams — never policies, tracker writes or
  // shared RNGs.
  void RunShardPhase(Shard& shard, SimTime t_end);
  void TryDispatchLocal(Shard& shard, WorkerId worker, SimTime at);
  static void Emit(Shard& shard, SimTime due, const SimEvent& ev, SimTime enqueue_time = 0);
  // Occupies a slot and schedules the completion (and speculation check,
  // unconditionally: phases cannot read the speculation table). Shared by
  // the phase path and the barrier grant path; the caller owns the policy
  // feedback (kTaskStart record vs synchronous OnTaskStart).
  void BeginExecutionAt(Shard& shard, WorkerId worker, const QueueEntry& task, SimTime at);
  // Stateless per-worker straggler substream: draw i for worker w hashes
  // (salt, w, i), so the draw a given execution sees does not depend on shard
  // count or thread interleaving — the sharded executor's sanctioned RNG
  // divergence from the serial driver's single fault stream.
  bool StragglerDraw(WorkerId worker);

  // --- phase thread pool ---------------------------------------------------
  uint32_t ShardOfWorker(WorkerId worker) const;
  // Runs one shard's phase end to end: outbox reset, drain, local sort.
  void RunOneShard(uint32_t s, SimTime t_end);
  // Publishes t_end and bumps the epoch generation (inline execution when the
  // pool is empty). Returns immediately; MergeOutboxes consumes the results.
  void RunPhases(SimTime t_end);
  // Blocks until every pool thread has retired from the current epoch.
  void AwaitPhasesDone();
  void WorkerLoop();
  void StopPool();

  DurationUs horizon_us_ = 1;

  // Coordinator pending queue: phase records + coordinator timers, ordered by
  // (time, push order). Push order is canonical: outboxes are sorted before
  // insertion and barrier processing is single-threaded.
  sim::EventQueue<CoordEvent> pending_;
  // Pooled merge state (coordinator-owned; capacity retained across epochs).
  std::vector<OutRecord> merge_acc_;
  std::vector<OutRecord> merge_tmp_;
  std::vector<uint8_t> merge_taken_;
  std::vector<Shard> shards_;
  std::vector<WorkerId> shard_begin_;  // shard_begin_[s] = first worker of s.

  // Straggler substream position per worker (same ownership as exec records).
  uint64_t straggler_salt_ = 0;
  std::vector<uint64_t> straggler_seq_;

  // Persistent phase pool. An epoch starts when the coordinator bumps
  // `generation_` (workers spin briefly on it, then park on cv_start_);
  // `phase_end_` is published before the bump and read after the acquire.
  // Workers claim shards off `next_shard_`, publish per-shard `ready_` flags
  // with release stores (the coordinator's merge gate) and retire through
  // `threads_done_` (the barrier-replay gate; the last worker wakes a parked
  // coordinator through cv_done_). Every spun-on word is line-isolated.
  std::vector<std::thread> threads_;
  uint32_t pool_size_ = 0;
  // Pre-park spin budget for every waiter (workers awaiting a generation,
  // the coordinator awaiting runs/retirement). Zero when pool + coordinator
  // oversubscribe the hardware: a spinning waiter would hold the very core
  // the awaited work needs. Timing-only — never observable in the bits.
  int spin_iters_ = 0;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint32_t sleepers_ = 0;        // Guarded by mu_.
  bool coord_parked_ = false;    // Guarded by mu_.
  std::atomic<bool> stop_{false};
  SimTime phase_end_ = 0;
  PaddedAtomicU64 generation_;
  PaddedAtomicU32 next_shard_;
  PaddedAtomicU32 threads_done_;
  std::vector<ReadyFlag> ready_;  // One per shard.
};

}  // namespace hawk

#endif  // HAWK_SCHEDULER_SHARDED_DRIVER_H_
