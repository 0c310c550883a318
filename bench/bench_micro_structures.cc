// google-benchmark microbenchmarks for the hot data structures: the event
// queue, the centralized waiting-time queue, the steal-group scan, and trace
// generation throughput. These bound the simulator's events/second and the
// per-decision cost a production scheduler would pay.
#include <benchmark/benchmark.h>

#include "src/cluster/worker_store.h"
#include "src/common/random.h"
#include "src/core/waiting_time_queue.h"
#include "src/sim/event_queue.h"
#include "src/workload/google_trace.h"

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const int64_t batch = state.range(0);
  hawk::Rng rng(1);
  for (auto _ : state) {
    hawk::sim::EventQueue<uint64_t> queue;
    for (int64_t i = 0; i < batch; ++i) {
      queue.Push(static_cast<hawk::SimTime>(rng.NextBounded(1'000'000)),
                 static_cast<uint64_t>(i));
    }
    while (!queue.Empty()) {
      benchmark::DoNotOptimize(queue.Pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch * 2);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

void BM_WaitingTimeQueueAssign(benchmark::State& state) {
  const auto workers = static_cast<uint32_t>(state.range(0));
  hawk::WaitingTimeQueue queue(workers);
  hawk::Rng rng(2);
  hawk::SimTime now = 0;
  for (auto _ : state) {
    now += 1000;
    const hawk::WorkerId w =
        queue.AssignTask(now, static_cast<hawk::DurationUs>(rng.NextBounded(5'000'000)));
    benchmark::DoNotOptimize(w);
    // Keep the backlog bounded: immediately start and finish the task.
    queue.OnTaskFinish(w, now + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaitingTimeQueueAssign)->Arg(1500)->Arg(15000);

void BM_StealScan(benchmark::State& state) {
  const int64_t queue_depth = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    hawk::WorkerStore store(2);  // Worker 1 is the thief.
    // Worst-ish case: long entry buried mid-queue behind shorts.
    for (int64_t i = 0; i < queue_depth / 2; ++i) {
      store.Enqueue(0, hawk::QueueEntry::Probe(static_cast<hawk::JobId>(i), /*is_long=*/false));
    }
    store.Enqueue(0, hawk::QueueEntry::Task(9999, 0, 1000, /*is_long=*/true));
    for (int64_t i = 0; i < queue_depth / 2; ++i) {
      store.Enqueue(0, hawk::QueueEntry::Probe(static_cast<hawk::JobId>(i), /*is_long=*/false));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.StealGroupInto(0, /*thief=*/1));
  }
  state.SetItemsProcessed(state.iterations() * queue_depth);
}
BENCHMARK(BM_StealScan)->Arg(16)->Arg(256);

void BM_GoogleTraceGeneration(benchmark::State& state) {
  hawk::GoogleTraceParams params;
  params.num_jobs = static_cast<uint32_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = seed++;
    benchmark::DoNotOptimize(hawk::GenerateGoogleTrace(params));
  }
  state.SetItemsProcessed(state.iterations() * params.num_jobs);
}
BENCHMARK(BM_GoogleTraceGeneration)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
