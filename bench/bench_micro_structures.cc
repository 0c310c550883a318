// google-benchmark microbenchmarks for the hot data structures: the event
// queue and the driver's multi-lane event queue, the centralized
// waiting-time queue and its slot-aware view, the steal-group scan, steal
// victim sampling plus screening over a large cluster, probe delivery to
// worker queues, sampling without replacement, and trace generation
// throughput. These bound the
// simulator's events/second and the per-decision cost a production
// scheduler would pay.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/worker_store.h"
#include "src/common/random.h"
#include "src/core/slot_waiting_queue.h"
#include "src/core/stealing_policy.h"
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

// The serial driver's event-queue mix in steady state: N events in flight,
// and each iteration selects the earliest source once, pops from it and
// pushes one replacement at the popped time plus a delay, 70% onto one of
// three fixed-delay lanes (delivery, RTT, steal retry) and 30% onto the heap
// (task completions). Items are pops.
void BM_MultiLaneEventQueueMix(benchmark::State& state) {
  using Queue = hawk::sim::MultiLaneEventQueue<uint64_t, 3>;
  const int64_t in_flight = state.range(0);
  const hawk::SimTime lane_delay[3] = {500, 1000, 10'000};
  hawk::Rng rng(6);
  Queue queue;
  auto push = [&](hawk::SimTime now, uint64_t payload) {
    if (rng.Bernoulli(0.7)) {
      const auto lane = static_cast<size_t>(rng.NextBounded(3));
      queue.PushLane(lane, now + lane_delay[lane], payload);
    } else {
      queue.Push(now + static_cast<hawk::SimTime>(rng.NextBounded(200'000)), payload);
    }
  };
  for (int64_t i = 0; i < in_flight; ++i) {
    push(0, static_cast<uint64_t>(i));
  }
  for (auto _ : state) {
    const int source = queue.Earliest();
    const auto entry = queue.Pop(source);
    benchmark::DoNotOptimize(entry.payload);
    push(entry.at, entry.payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiLaneEventQueueMix)->Arg(1024)->Arg(65536);

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

// One centrally placed task through SlotWaitingTimeQueue's worker-routed
// protocol, as the simulation driver uses it: AssignTask, then the start and
// finish feedback that keep the backlog bounded. Args: (workers, slots per
// worker). One slot per worker is the pass-through case (lane = worker);
// four slots add the lane-to-worker map and the per-worker pending and
// running FIFOs.
void BM_SlotWaitingTimeQueueAssign(benchmark::State& state) {
  const auto num_workers = static_cast<uint32_t>(state.range(0));
  hawk::SlotSpec spec;
  spec.slots_per_worker = static_cast<uint32_t>(state.range(1));
  const hawk::Cluster cluster(num_workers, num_workers, spec);
  hawk::SlotWaitingTimeQueue queue(cluster, num_workers);
  hawk::Rng rng(2);
  hawk::SimTime now = 0;
  for (auto _ : state) {
    now += 1000;
    const auto estimate = static_cast<hawk::DurationUs>(rng.NextBounded(5'000'000));
    const hawk::WorkerId w = queue.AssignTask(now, estimate);
    benchmark::DoNotOptimize(w);
    queue.OnTaskStart(w, now, estimate);
    queue.OnTaskFinish(w, now + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlotWaitingTimeQueueAssign)->Args({1500, 1})->Args({1500, 4});

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

// One steal attempt's victim side on an N-worker cluster with the paper's
// 17% short partition: sample up to 10 general-partition victims
// (StealingPolicy::ChooseVictimsInto, which also prefetches their records)
// and screen them in contact order until one holds a stealable group, first
// on the "short entry queued" bit and only then on the record, as
// StealingPolicy::TryStealInto does. The cluster is loaded like a busy Hawk
// run: 93% of general workers execute a task (a tenth of them long) and 3%
// queue 1-4 entries (a fifth of them long), so about one attempt in twelve
// finds a group (scale-1m: one in 14).
// At 1M workers every victim that passes the bit is a cache miss, as on the
// scale-1m benchmark workload; at 1,500 workers the cluster is
// cache-resident.
// Read-only, so every iteration sees the same state.
void BM_StealVictimScreen(benchmark::State& state) {
  const auto num_workers = static_cast<uint32_t>(state.range(0));
  const auto general = static_cast<uint32_t>(num_workers * 0.83);
  hawk::Cluster cluster(num_workers, general);
  hawk::WorkerStore& workers = cluster.workers();
  hawk::Rng rng(3);
  for (hawk::WorkerId w = 0; w < general; ++w) {
    if (rng.Bernoulli(0.93)) {
      workers.BeginExecute(w, 0, hawk::QueueEntry::Task(w, 0, 1000, rng.Bernoulli(0.1)));
    }
    if (rng.Bernoulli(0.03)) {
      for (int64_t i = rng.UniformInt(1, 4); i > 0; --i) {
        workers.Enqueue(w, hawk::QueueEntry::Probe(w, rng.Bernoulli(0.2)));
      }
    }
  }
  hawk::StealingPolicy stealer(/*cap=*/10, /*seed=*/4);
  std::vector<hawk::WorkerId> victims;
  int64_t screened = 0;
  int64_t found = 0;
  for (auto _ : state) {
    const auto thief = static_cast<hawk::WorkerId>(rng.NextBounded(num_workers));
    stealer.ChooseVictimsInto(cluster, thief, &victims);
    for (const hawk::WorkerId victim : victims) {
      ++screened;
      if (workers.HasQueuedShort(victim) && workers.HasStealableGroup(victim)) {
        ++found;
        break;
      }
    }
  }
  state.SetItemsProcessed(screened);
  state.counters["victims_per_attempt"] =
      static_cast<double>(screened) / static_cast<double>(state.iterations());
  state.counters["success_ratio"] =
      static_cast<double>(found) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_StealVictimScreen)->Arg(1500)->Arg(1'000'000);

// One probe delivery to a quiet worker and its dispatch: Enqueue on a random
// worker, then PopFront of the same entry. The queue's one entry stays
// inside the worker's record, so at 1M workers each iteration costs about
// one cache miss, as scale-1m's deliveries do; at 1,500 workers the store is
// cache-resident.
void BM_WorkerQueueDelivery(benchmark::State& state) {
  const auto num_workers = static_cast<uint32_t>(state.range(0));
  hawk::WorkerStore workers(num_workers);
  hawk::Rng rng(7);
  for (auto _ : state) {
    const auto worker = static_cast<hawk::WorkerId>(rng.NextBounded(num_workers));
    workers.Enqueue(worker, hawk::QueueEntry::Probe(worker, /*is_long=*/false));
    benchmark::DoNotOptimize(workers.PopFront(worker));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkerQueueDelivery)->Arg(1500)->Arg(1'000'000);

// One buffer-reusing Rng::SampleWithoutReplacement call per iteration, in
// each of its three membership regimes: (50, 50) dense Fisher-Yates, (1245,
// 10) Floyd with a linear scan (a steal attempt's victims on google-15k's
// general partition), (1M, 35) Floyd with epoch stamps (a probe batch on a
// 1M-worker cluster).
void BM_SampleWithoutReplacement(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const auto k = static_cast<uint32_t>(state.range(1));
  hawk::Rng rng(5);
  std::vector<uint32_t> sample;
  for (auto _ : state) {
    rng.SampleWithoutReplacement(n, k, &sample);
    benchmark::DoNotOptimize(sample.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_SampleWithoutReplacement)->Args({50, 50})->Args({1245, 10})->Args({1'000'000, 35});

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
