// Experiment outputs: per-job results, utilization samples and mechanism
// counters. These are the raw series every figure in the paper is computed
// from.
#ifndef HAWK_CLUSTER_RESULTS_H_
#define HAWK_CLUSTER_RESULTS_H_

#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"

namespace hawk {

struct JobResult {
  JobId id = 0;
  bool is_long = false;  // Metrics classification (noise-free).
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  DurationUs runtime_us = 0;  // finish - submit, includes all queueing.
};

struct RunCounters {
  uint64_t jobs = 0;
  uint64_t tasks_launched = 0;
  uint64_t probes_placed = 0;
  uint64_t probe_requests = 0;
  uint64_t cancels = 0;
  uint64_t central_tasks_placed = 0;
  uint64_t steal_attempts = 0;       // Idle transitions that tried to steal.
  uint64_t steal_victim_probes = 0;  // Random victims contacted.
  uint64_t steal_successes = 0;      // Attempts that obtained >= 1 entry.
  uint64_t entries_stolen = 0;
  uint64_t events = 0;

  // Queueing-delay telemetry: total time launched tasks spent between entry
  // placement and execution start, split by scheduling class.
  uint64_t short_tasks_started = 0;
  uint64_t long_tasks_started = 0;
  uint64_t short_queue_wait_us = 0;
  uint64_t long_queue_wait_us = 0;

  // Fault-injection telemetry (all zero in fault-free runs). The prototype
  // fills the same counters from its monitors/schedulers, so fault behavior
  // is comparable across the two executors.
  uint64_t worker_crashes = 0;       // Fail-stop crashes applied.
  uint64_t worker_departures = 0;    // Graceful churn departures applied.
  uint64_t worker_rejoins = 0;       // Workers brought back after downtime.
  uint64_t messages_dropped = 0;     // Probe/task deliveries lost in transit.
  uint64_t message_retries = 0;      // Retransmissions after a sender timeout.
  uint64_t tasks_re_dispatched = 0;  // Tasks handed back for re-dispatch.
  uint64_t probes_lost = 0;          // Probes that died with their worker.
  uint64_t duplicate_completions = 0;  // Same task reported done twice
                                       // (prototype re-dispatch races).
  uint64_t wasted_work_us = 0;  // Partial execution thrown away by crashes,
                                // straggler drag, and losing speculative
                                // copies.

  // Adaptive-recovery telemetry (all zero unless speculation or the retry
  // budget actually fires).
  uint64_t tasks_speculated = 0;   // Duplicate copies launched.
  uint64_t speculative_wins = 0;   // Duplicates that finished first.
  uint64_t speculative_wasted_us = 0;  // Execution time of losing copies.
  uint64_t retries_suppressed = 0;  // Retransmits withheld by the budget.
  uint64_t tasks_abandoned = 0;     // Task deliveries given up on after the
                                    // retry budget (recovered via re-dispatch).
  uint64_t node_suspicions = 0;     // Alive -> suspected transitions seen by
                                    // the heartbeat detector (prototype only).

  double AvgQueueWaitSeconds(bool long_class) const {
    const uint64_t count = long_class ? long_tasks_started : short_tasks_started;
    const uint64_t wait = long_class ? long_queue_wait_us : short_queue_wait_us;
    if (count == 0) {
      return 0.0;
    }
    return static_cast<double>(wait) / static_cast<double>(count) /
           static_cast<double>(kMicrosPerSecond);
  }
};

// Field-wise sum. Every RunCounters field is an additive event or time
// tally, so per-shard and per-scheduler counters merge into a run's by plain
// summation. Listed explicitly, so a new field must be added here. No test
// can catch an omission (an unsummed field reads 0 wherever it is merged),
// hence the size check.
static_assert(sizeof(RunCounters) == 30 * sizeof(uint64_t),
              "RunCounters changed: add the new field to operator+=");
inline RunCounters& operator+=(RunCounters& into, const RunCounters& from) {
  into.jobs += from.jobs;
  into.tasks_launched += from.tasks_launched;
  into.probes_placed += from.probes_placed;
  into.probe_requests += from.probe_requests;
  into.cancels += from.cancels;
  into.central_tasks_placed += from.central_tasks_placed;
  into.steal_attempts += from.steal_attempts;
  into.steal_victim_probes += from.steal_victim_probes;
  into.steal_successes += from.steal_successes;
  into.entries_stolen += from.entries_stolen;
  into.events += from.events;
  into.short_tasks_started += from.short_tasks_started;
  into.long_tasks_started += from.long_tasks_started;
  into.short_queue_wait_us += from.short_queue_wait_us;
  into.long_queue_wait_us += from.long_queue_wait_us;
  into.worker_crashes += from.worker_crashes;
  into.worker_departures += from.worker_departures;
  into.worker_rejoins += from.worker_rejoins;
  into.messages_dropped += from.messages_dropped;
  into.message_retries += from.message_retries;
  into.tasks_re_dispatched += from.tasks_re_dispatched;
  into.probes_lost += from.probes_lost;
  into.duplicate_completions += from.duplicate_completions;
  into.wasted_work_us += from.wasted_work_us;
  into.tasks_speculated += from.tasks_speculated;
  into.speculative_wins += from.speculative_wins;
  into.speculative_wasted_us += from.speculative_wasted_us;
  into.retries_suppressed += from.retries_suppressed;
  into.tasks_abandoned += from.tasks_abandoned;
  into.node_suspicions += from.node_suspicions;
  return into;
}

struct RunResult {
  std::vector<JobResult> jobs;
  std::vector<double> utilization_samples;  // One per 100 s (configurable).
  RunCounters counters;
  SimTime makespan_us = 0;       // Completion time of the last job.
  DurationUs total_busy_us = 0;  // Sum of worker execution time (= sum of task durations).

  // Runtime samples in seconds for one job class.
  Samples RuntimesSeconds(bool long_jobs) const {
    Samples samples;
    for (const JobResult& job : jobs) {
      if (job.is_long == long_jobs) {
        samples.Add(static_cast<double>(job.runtime_us) /
                    static_cast<double>(kMicrosPerSecond));
      }
    }
    return samples;
  }

  double MedianUtilization() const {
    Samples samples;
    for (const double u : utilization_samples) {
      samples.Add(u);
    }
    return samples.Empty() ? 0.0 : samples.Median();
  }

  double MaxUtilization() const {
    double max = 0.0;
    for (const double u : utilization_samples) {
      max = std::max(max, u);
    }
    return max;
  }
};

}  // namespace hawk

#endif  // HAWK_CLUSTER_RESULTS_H_
