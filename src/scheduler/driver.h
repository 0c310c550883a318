// Serial event-driven simulation of a cluster run (the paper's evaluation
// vehicle). The cost model, the recovery ledger and everything else both
// executors share live in DriverCore (driver_core.h); this executor owns one
// global (time, seq) event order on one core.
//
// Event flow per worker:
//   probe/task arrives -> TryDispatch: pop entries while free slots remain;
//   a task occupies a slot until completion, a probe parks a slot for one
//   RTT and resolves to the job's next unlaunched task or to a cancel; when
//   the queue drains with a slot still free the policy gets an OnWorkerIdle
//   callback and may refill the queue by stealing.
#ifndef HAWK_SCHEDULER_DRIVER_H_
#define HAWK_SCHEDULER_DRIVER_H_

#include "src/scheduler/driver_core.h"
#include "src/sim/event_queue.h"

namespace hawk {

class SimulationDriver : public DriverCore<SimulationDriver> {
 public:
  // `general_count` defines the partition split (pass num_workers for
  // unpartitioned baselines). The trace and policy must outlive the driver.
  SimulationDriver(const Trace* trace, const HawkConfig& config, uint32_t general_count,
                   SchedulerPolicy* policy)
      : DriverCore(trace, config, general_count, policy) {}

  // Runs the whole trace to completion and returns per-job results (ordered
  // by job id), utilization samples and counters.
  RunResult Run();

 private:
  friend class DriverCore<SimulationDriver>;

  // Fixed-delay event classes get O(1) monotone lanes in the event queue;
  // only variable-delay events (task completions, samples, faulty
  // deliveries) pay for heap ordering.
  static constexpr size_t kLaneNetDelay = 0;    // Probe/task delivery: +net_delay.
  static constexpr size_t kLaneRtt = 1;         // Late-binding resolve: +2*net_delay.
  static constexpr size_t kLaneStealRetry = 2;  // Idle retry: +steal_retry_interval.
  // Every lane event names a worker. After a lane pop, the record of the
  // worker this many events behind that lane's new front is prefetched, so
  // at 1M workers its cache miss overlaps the events in between.
  static constexpr size_t kPrefetchAhead = 8;

  void Dispatch(const SimEvent& ev);

  // --- DriverCore hooks ----------------------------------------------------
  // Straggler draws come from the shared fault stream, and the speculation
  // check is skipped for a task already in the speculation table.
  void StartExecution(WorkerId worker, const QueueEntry& task);
  void QueueDelivery(SimTime at, const SimEvent& ev, bool monotone) {
    if (monotone) {
      events_.PushLane(kLaneNetDelay, at, ev);
    } else {
      events_.Push(at, ev);
    }
  }
  void QueueTimer(SimTime at, const SimEvent& ev) {
    if (ev.type == SimEvent::Type::kRequestResolve) {
      events_.PushLane(kLaneRtt, at, ev);
    } else if (ev.type == SimEvent::Type::kIdleRetry) {
      events_.PushLane(kLaneStealRetry, at, ev);
    } else {
      events_.Push(at, ev);
    }
  }
  uint64_t DeliveriesConsumed() const { return deliveries_consumed_; }

  using EventQueue = sim::MultiLaneEventQueue<SimEvent, 3>;
  EventQueue events_;
  uint64_t deliveries_consumed_ = 0;
};

}  // namespace hawk

#endif  // HAWK_SCHEDULER_DRIVER_H_
