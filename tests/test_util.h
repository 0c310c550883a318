// Shared test assertions.
#ifndef HAWK_TESTS_TEST_UTIL_H_
#define HAWK_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include "src/cluster/results.h"

namespace hawk {
namespace testing {

// Full bit-identity of two runs: every JobResult field, the aggregate times,
// every utilization sample and every RunCounters field.
inline void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_EQ(a.jobs[i].id, b.jobs[i].id) << "job " << i;
    ASSERT_EQ(a.jobs[i].is_long, b.jobs[i].is_long) << "job " << i;
    ASSERT_EQ(a.jobs[i].submit_time, b.jobs[i].submit_time) << "job " << i;
    ASSERT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time) << "job " << i;
    ASSERT_EQ(a.jobs[i].runtime_us, b.jobs[i].runtime_us) << "job " << i;
  }
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.total_busy_us, b.total_busy_us);
  EXPECT_EQ(a.utilization_samples, b.utilization_samples);
  const RunCounters& c1 = a.counters;
  const RunCounters& c2 = b.counters;
  EXPECT_EQ(c1.jobs, c2.jobs);
  EXPECT_EQ(c1.tasks_launched, c2.tasks_launched);
  EXPECT_EQ(c1.probes_placed, c2.probes_placed);
  EXPECT_EQ(c1.probe_requests, c2.probe_requests);
  EXPECT_EQ(c1.cancels, c2.cancels);
  EXPECT_EQ(c1.central_tasks_placed, c2.central_tasks_placed);
  EXPECT_EQ(c1.steal_attempts, c2.steal_attempts);
  EXPECT_EQ(c1.steal_victim_probes, c2.steal_victim_probes);
  EXPECT_EQ(c1.steal_successes, c2.steal_successes);
  EXPECT_EQ(c1.entries_stolen, c2.entries_stolen);
  EXPECT_EQ(c1.events, c2.events);
  EXPECT_EQ(c1.short_tasks_started, c2.short_tasks_started);
  EXPECT_EQ(c1.long_tasks_started, c2.long_tasks_started);
  EXPECT_EQ(c1.short_queue_wait_us, c2.short_queue_wait_us);
  EXPECT_EQ(c1.long_queue_wait_us, c2.long_queue_wait_us);
  EXPECT_EQ(c1.worker_crashes, c2.worker_crashes);
  EXPECT_EQ(c1.worker_departures, c2.worker_departures);
  EXPECT_EQ(c1.worker_rejoins, c2.worker_rejoins);
  EXPECT_EQ(c1.messages_dropped, c2.messages_dropped);
  EXPECT_EQ(c1.message_retries, c2.message_retries);
  EXPECT_EQ(c1.tasks_re_dispatched, c2.tasks_re_dispatched);
  EXPECT_EQ(c1.probes_lost, c2.probes_lost);
  EXPECT_EQ(c1.duplicate_completions, c2.duplicate_completions);
  EXPECT_EQ(c1.wasted_work_us, c2.wasted_work_us);
  EXPECT_EQ(c1.tasks_speculated, c2.tasks_speculated);
  EXPECT_EQ(c1.speculative_wins, c2.speculative_wins);
  EXPECT_EQ(c1.speculative_wasted_us, c2.speculative_wasted_us);
  EXPECT_EQ(c1.retries_suppressed, c2.retries_suppressed);
  EXPECT_EQ(c1.tasks_abandoned, c2.tasks_abandoned);
  EXPECT_EQ(c1.node_suspicions, c2.node_suspicions);
}

}  // namespace testing
}  // namespace hawk

#endif  // HAWK_TESTS_TEST_UTIL_H_
