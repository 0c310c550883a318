// Tests for the cluster substrate: the WorkerStore (FIFO discipline,
// slot-based execution transitions, the Fig. 3 steal-group extraction rule
// against a reference scan, slot-index mapping), partition layout,
// utilization accounting, and late-binding job tracking.
#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job_tracker.h"
#include "src/cluster/worker_store.h"
#include "src/common/random.h"
#include "src/runtime/node_monitor.h"
#include "src/workload/google_trace.h"

namespace hawk {
namespace {

QueueEntry ShortProbe(JobId job) { return QueueEntry::Probe(job, /*is_long=*/false); }
QueueEntry LongTask(JobId job) { return QueueEntry::Task(job, 0, 1000, /*is_long=*/true); }
QueueEntry ShortTask(JobId job) { return QueueEntry::Task(job, 0, 10, /*is_long=*/false); }

TEST(WorkerStoreTest, FifoOrder) {
  WorkerStore store(1);
  store.Enqueue(0, ShortProbe(1));
  store.Enqueue(0, ShortProbe(2));
  store.Enqueue(0, ShortProbe(3));
  EXPECT_EQ(store.PopFront(0).job, 1u);
  EXPECT_EQ(store.PopFront(0).job, 2u);
  EXPECT_EQ(store.PopFront(0).job, 3u);
  EXPECT_TRUE(store.QueueEmpty(0));
}

TEST(WorkerStoreTest, SlotStateMachine) {
  WorkerStore store(1);
  EXPECT_EQ(store.Slots(0) - store.OccupiedSlots(0), 1u);
  EXPECT_EQ(store.OccupiedSlots(0), 0u);

  // Occupied but not executing: the slot is resolving a request.
  store.BeginRequest(0, /*probe_is_long=*/false);
  EXPECT_EQ(store.OccupiedSlots(0) - store.ExecutingSlots(0), 1u);
  EXPECT_FALSE(store.HasFreeSlot(0));
  store.ResolveRequest(0, /*probe_is_long=*/false);
  EXPECT_EQ(store.OccupiedSlots(0) - store.ExecutingSlots(0), 0u);
  EXPECT_TRUE(store.HasFreeSlot(0));

  store.BeginExecute(0, 100, ShortTask(7));
  EXPECT_EQ(store.ExecutingSlots(0), 1u);
  EXPECT_EQ(store.ExecutingTotal(), 1u);
  EXPECT_FALSE(store.HasFreeSlot(0));
  store.FinishExecute(0, /*was_long=*/false);
  EXPECT_EQ(store.ExecutingSlots(0), 0u);
  EXPECT_EQ(store.ExecutingTotal(), 0u);
  EXPECT_EQ(store.TotalBusyUs(), 10);
}

TEST(WorkerStoreTest, BusyAccumulates) {
  WorkerStore store(1);
  for (int i = 0; i < 5; ++i) {
    store.BeginExecute(0, i * 100, QueueEntry::Task(1, 0, 25, false));
    store.FinishExecute(0, false);
  }
  EXPECT_EQ(store.TotalBusyUs(), 125);
}

TEST(WorkerStoreTest, BusyTimeIsChargedToTheWorkersShard) {
  // Shard 0 owns workers 0-1, shard 1 owns workers 2-3.
  WorkerStore store(4);
  store.ConfigureShards({0, 2});
  store.BeginExecute(1, 0, QueueEntry::Task(1, 0, 30, false));
  store.BeginExecute(3, 0, QueueEntry::Task(2, 0, 50, false));
  store.FinishExecute(3, false);
  store.BeginExecute(3, 0, QueueEntry::Task(3, 0, 7, false));
  EXPECT_EQ(store.TotalBusyUs(), 87);  // 30 in shard 0, 57 in shard 1.

  // Deductions come back from the worker's own shard: shard 1 drops to 17,
  // so taking 20 more from it fails although shard 0 still holds 30 and the
  // store 47.
  store.DeductBusyUs(2, 40);
  EXPECT_EQ(store.TotalBusyUs(), 47);
  EXPECT_DEATH({ store.DeductBusyUs(3, 20); }, "CHECK failed");
  store.DeductBusyUs(0, 30);
  EXPECT_EQ(store.TotalBusyUs(), 17);
  EXPECT_DEATH({ store.DeductBusyUs(1, 1); }, "CHECK failed");
  store.DeductBusyUs(3, 17);
  EXPECT_EQ(store.TotalBusyUs(), 0);
}

TEST(WorkerStoreTest, MultiSlotConcurrentExecution) {
  SlotSpec spec;
  spec.slots_per_worker = 3;
  WorkerStore store(2, spec);
  EXPECT_EQ(store.TotalSlots(), 6u);
  EXPECT_EQ(store.Slots(0) - store.OccupiedSlots(0), 3u);

  // A queued short probe is stealable exactly while occupied long work
  // blocks it.
  store.Enqueue(0, ShortProbe(9));
  store.BeginExecute(0, 0, ShortTask(1));
  store.BeginRequest(0, /*probe_is_long=*/true);
  EXPECT_EQ(store.Slots(0) - store.OccupiedSlots(0), 1u);
  EXPECT_EQ(store.OccupiedSlots(0), 2u);
  EXPECT_TRUE(store.HasStealableGroup(0));  // The in-flight long probe counts.
  store.BeginExecute(0, 0, ShortTask(2));
  EXPECT_FALSE(store.HasFreeSlot(0));
  EXPECT_EQ(store.ExecutingTotal(), 2u);

  store.ResolveRequest(0, /*probe_is_long=*/true);
  EXPECT_FALSE(store.HasStealableGroup(0));
  store.FinishExecute(0, false);
  store.FinishExecute(0, false);
  EXPECT_EQ(store.Slots(0) - store.OccupiedSlots(0), 3u);
  EXPECT_EQ(store.ExecutingTotal(), 0u);
}

TEST(WorkerStoreTest, FifoOrderSurvivesRingWraparound) {
  // Drive head around the ring several times with a nonempty queue so
  // enqueues wrap while pops drain, then check order end to end.
  WorkerStore store(1);
  JobId next_in = 0;
  JobId next_out = 0;
  for (int i = 0; i < 5; ++i) {
    store.Enqueue(0, ShortProbe(next_in++));
  }
  for (int round = 0; round < 100; ++round) {
    store.Enqueue(0, ShortProbe(next_in++));
    store.Enqueue(0, ShortProbe(next_in++));
    EXPECT_EQ(store.PopFront(0).job, next_out++);
  }
  while (!store.QueueEmpty(0)) {
    EXPECT_EQ(store.PopFront(0).job, next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(WorkerStoreTest, StealGroupIntoMovesEntriesToThief) {
  WorkerStore store(2);
  const WorkerId victim = 0;
  const WorkerId thief = 1;
  store.BeginExecute(victim, 0, LongTask(1));
  store.Enqueue(victim, ShortProbe(2));
  store.Enqueue(victim, ShortProbe(3));
  store.Enqueue(victim, LongTask(4));
  EXPECT_EQ(store.StealGroupInto(victim, thief), 2u);
  ASSERT_EQ(store.QueueSize(thief), 2u);
  EXPECT_EQ(store.PopFront(thief).job, 2u);
  EXPECT_EQ(store.PopFront(thief).job, 3u);
  ASSERT_EQ(store.QueueSize(victim), 1u);
  EXPECT_EQ(store.PopFront(victim).job, 4u);
  // Nothing left to steal: queue is a lone long entry.
  EXPECT_EQ(store.StealGroupInto(victim, thief), 0u);
}

TEST(WorkerStoreTest, StealGroupIntoAfterWraparound) {
  // The stealable group must be found and moved correctly even when the
  // ring has wrapped and the group straddles the physical end of storage.
  WorkerStore store(2);
  const WorkerId victim = 0;
  const WorkerId thief = 1;
  // Advance the ring head: 11 enqueues grow the ring to capacity 16, and 11
  // pops leave the head at physical slot 11.
  for (int i = 0; i < 11; ++i) {
    store.Enqueue(victim, ShortProbe(100 + static_cast<JobId>(i)));
  }
  for (int i = 0; i < 11; ++i) {
    store.PopFront(victim);
  }
  // Seven more entries fill slots 11..15 and wrap into 0..1, so the
  // stealable group (jobs 4..8) physically straddles the storage boundary.
  store.BeginExecute(victim, 0, ShortTask(1));
  store.Enqueue(victim, ShortProbe(2));
  store.Enqueue(victim, LongTask(3));
  for (JobId job = 4; job <= 8; ++job) {
    store.Enqueue(victim, ShortProbe(job));
  }
  EXPECT_TRUE(store.HasStealableGroup(victim));
  EXPECT_EQ(store.StealGroupInto(victim, thief), 5u);
  for (JobId job = 4; job <= 8; ++job) {
    EXPECT_EQ(store.PopFront(thief).job, job);
  }
  EXPECT_TRUE(store.QueueEmpty(thief));
  EXPECT_EQ(store.PopFront(victim).job, 2u);
  EXPECT_EQ(store.PopFront(victim).job, 3u);
  EXPECT_TRUE(store.QueueEmpty(victim));
}

// --- Slot layout -------------------------------------------------------------

TEST(WorkerStoreTest, UniformSlotIndexMapping) {
  SlotSpec spec;
  spec.slots_per_worker = 4;
  WorkerStore store(3, spec);
  EXPECT_EQ(store.TotalSlots(), 12u);
  EXPECT_EQ(store.SlotBegin(0), 0u);
  EXPECT_EQ(store.SlotBegin(1), 4u);
  EXPECT_EQ(store.SlotBegin(3), 12u);
  EXPECT_EQ(store.WorkerOfSlot(0), 0u);
  EXPECT_EQ(store.WorkerOfSlot(3), 0u);
  EXPECT_EQ(store.WorkerOfSlot(4), 1u);
  EXPECT_EQ(store.WorkerOfSlot(11), 2u);
}

TEST(WorkerStoreTest, HeterogeneousSlotLayout) {
  SlotSpec spec;
  spec.slots_per_worker = 1;
  spec.big_worker_fraction = 0.5;
  spec.big_worker_slots = 4;
  WorkerStore store(4, spec);
  // Two of four workers upgraded, spread evenly: 2 big + 2 small = 10 slots.
  EXPECT_EQ(spec.BigWorkerCount(4), 2u);
  EXPECT_EQ(store.TotalSlots(), 10u);
  uint32_t big = 0;
  for (WorkerId w = 0; w < 4; ++w) {
    EXPECT_EQ(store.Slots(w), spec.SlotsOf(w, 4));
    big += store.Slots(w) == 4 ? 1u : 0u;
    // Round-trip: every slot in the worker's range maps back to it.
    for (SlotId s = store.SlotBegin(w); s < store.SlotBegin(w + 1); ++s) {
      EXPECT_EQ(store.WorkerOfSlot(s), w);
    }
  }
  EXPECT_EQ(big, 2u);
}

TEST(SlotSpecTest, EvenSpreadIsDeterministicAndExact) {
  SlotSpec spec;
  spec.slots_per_worker = 2;
  spec.big_worker_fraction = 0.25;
  spec.big_worker_slots = 8;
  const uint32_t n = 1000;
  uint32_t big = 0;
  for (WorkerId w = 0; w < n; ++w) {
    const uint32_t slots = spec.SlotsOf(w, n);
    EXPECT_TRUE(slots == 2 || slots == 8);
    big += slots == 8 ? 1 : 0;
  }
  EXPECT_EQ(big, spec.BigWorkerCount(n));
  EXPECT_EQ(big, 250u);
}

// --- Fig. 3 steal-group extraction -----------------------------------------
// Each store holds the victim (worker 0) and an empty thief (worker 1).

// Steals worker 0's stealable group onto worker 1 and returns the entries
// that arrived there, read back from the thief's queue.
std::vector<QueueEntry> StealOntoWorker1(WorkerStore& store) {
  const size_t before = store.QueueSize(1);
  const size_t moved = store.StealGroupInto(0, /*thief=*/1);
  std::vector<QueueEntry> stolen;
  for (size_t i = before; i < before + moved; ++i) {
    stolen.push_back(store.QueueAt(1, i));
  }
  return stolen;
}

TEST(StealScanTest, CaseA1_ExecutingShortGroupAfterLongInQueue) {
  // a1) executing short; queue = [L, S, S] -> steal the two shorts.
  WorkerStore store(2);
  store.BeginExecute(0, 0, ShortTask(1));
  store.Enqueue(0, LongTask(2));
  store.Enqueue(0, ShortProbe(3));
  store.Enqueue(0, ShortProbe(4));
  const auto stolen = StealOntoWorker1(store);
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0].job, 3u);
  EXPECT_EQ(stolen[1].job, 4u);
  EXPECT_EQ(store.QueueSize(0), 1u);  // Long entry stays.
}

TEST(StealScanTest, CaseA2_GroupEndsAtNextLong) {
  // a2) executing short; queue = [S, L, S, L, S] -> steal only the first
  // group after the first long (one entry).
  WorkerStore store(2);
  store.BeginExecute(0, 0, ShortTask(1));
  store.Enqueue(0, ShortProbe(2));
  store.Enqueue(0, LongTask(3));
  store.Enqueue(0, ShortProbe(4));
  store.Enqueue(0, LongTask(5));
  store.Enqueue(0, ShortProbe(6));
  const auto stolen = StealOntoWorker1(store);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].job, 4u);
  // Queue keeps [S(2), L(3), L(5), S(6)].
  EXPECT_EQ(store.QueueSize(0), 4u);
}

TEST(StealScanTest, CaseB1_ExecutingLongStealsHeadGroup) {
  // b1) executing long; queue = [S, S, L] -> steal the head shorts.
  WorkerStore store(2);
  store.BeginExecute(0, 0, LongTask(1));
  store.Enqueue(0, ShortProbe(2));
  store.Enqueue(0, ShortProbe(3));
  store.Enqueue(0, LongTask(4));
  const auto stolen = StealOntoWorker1(store);
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0].job, 2u);
  EXPECT_EQ(stolen[1].job, 3u);
}

TEST(StealScanTest, CaseB2_ExecutingLongQueueStartsLong) {
  // b2) executing long; queue = [L, S, S] -> steal the shorts after the
  // queued long.
  WorkerStore store(2);
  store.BeginExecute(0, 0, LongTask(1));
  store.Enqueue(0, LongTask(2));
  store.Enqueue(0, ShortProbe(3));
  store.Enqueue(0, ShortProbe(4));
  const auto stolen = StealOntoWorker1(store);
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0].job, 3u);
}

TEST(StealScanTest, NoLongInvolvedNothingStolen) {
  // Executing short with only short entries: no head-of-line blocking by a
  // long task, nothing eligible.
  WorkerStore store(2);
  store.BeginExecute(0, 0, ShortTask(1));
  store.Enqueue(0, ShortProbe(2));
  store.Enqueue(0, ShortProbe(3));
  EXPECT_FALSE(store.HasStealableGroup(0));
  EXPECT_TRUE(StealOntoWorker1(store).empty());
  EXPECT_EQ(store.QueueSize(0), 2u);
}

TEST(StealScanTest, AllLongNothingStolen) {
  WorkerStore store(2);
  store.BeginExecute(0, 0, LongTask(1));
  store.Enqueue(0, LongTask(2));
  store.Enqueue(0, LongTask(3));
  EXPECT_TRUE(StealOntoWorker1(store).empty());
}

TEST(StealScanTest, IdleWorkerWithBlockedQueue) {
  // Worker not executing (e.g. between dispatches): queue = [L, S] -> the
  // short after the long is eligible.
  WorkerStore store(2);
  store.Enqueue(0, LongTask(1));
  store.Enqueue(0, ShortProbe(2));
  const auto stolen = StealOntoWorker1(store);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].job, 2u);
}

TEST(StealScanTest, RequestingShortProbeDoesNotCountAsLong) {
  // Worker resolving a short probe; queue all short: nothing eligible.
  WorkerStore store(2);
  store.BeginRequest(0, /*probe_is_long=*/false);
  store.Enqueue(0, ShortProbe(2));
  EXPECT_TRUE(StealOntoWorker1(store).empty());
}

TEST(StealScanTest, RequestingLongProbeCountsAsLong) {
  // In the no-centralized ablation, long jobs probe too; an in-flight long
  // probe blocks the head shorts just like an executing long task.
  WorkerStore store(2);
  store.BeginRequest(0, /*probe_is_long=*/true);
  store.Enqueue(0, ShortProbe(2));
  const auto stolen = StealOntoWorker1(store);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].job, 2u);
}

TEST(StealScanTest, PartiallyFullMultiSlotWorkerScreensOnOccupiedLong) {
  // A multi-slot worker with one long task among its occupied slots exposes
  // its head shorts, exactly like a single-slot worker executing a long —
  // even while other slots are free or running shorts.
  SlotSpec spec;
  spec.slots_per_worker = 3;
  WorkerStore store(2, spec);
  store.BeginExecute(0, 0, ShortTask(1));
  store.BeginExecute(0, 0, LongTask(2));  // One slot still free.
  store.Enqueue(0, ShortProbe(3));
  store.Enqueue(0, ShortProbe(4));
  EXPECT_TRUE(store.HasStealableGroup(0));
  const auto stolen = StealOntoWorker1(store);
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0].job, 3u);

  // Once the long finishes, a queue of pure shorts is no longer stealable.
  store.Enqueue(0, ShortProbe(5));
  store.FinishExecute(0, /*was_long=*/true);
  EXPECT_FALSE(store.HasStealableGroup(0));
}

TEST(StealScanTest, ExtractIsRepeatable) {
  // After stealing the first group, the next group becomes eligible.
  WorkerStore store(2);
  store.BeginExecute(0, 0, LongTask(1));
  store.Enqueue(0, ShortProbe(2));
  store.Enqueue(0, LongTask(3));
  store.Enqueue(0, ShortProbe(4));
  EXPECT_EQ(StealOntoWorker1(store).size(), 1u);
  EXPECT_EQ(StealOntoWorker1(store).size(), 1u);
  EXPECT_TRUE(StealOntoWorker1(store).empty());
  EXPECT_EQ(store.QueueSize(0), 1u);  // Only L(3) remains.
}

// Naive Fig. 3 reference: [begin, end) of the stealable group in `queue`,
// scanning [current work, queue...] with no screening; begin == end when
// nothing is stealable.
std::pair<size_t, size_t> ReferenceGroup(const std::vector<QueueEntry>& queue,
                                         bool occupied_long) {
  bool seen_long = occupied_long;
  for (size_t k = 0; k < queue.size(); ++k) {
    if (queue[k].is_long) {
      seen_long = true;
    } else if (seen_long) {
      size_t end = k;
      while (end < queue.size() && !queue[end].is_long) {
        ++end;
      }
      return {k, end};
    }
  }
  return {queue.size(), queue.size()};
}

std::vector<QueueEntry> QueueOf(const WorkerStore& store, WorkerId id) {
  std::vector<QueueEntry> out;
  for (size_t i = 0; i < store.QueueSize(id); ++i) {
    out.push_back(store.QueueAt(id, i));
  }
  return out;
}

size_t CountLong(const std::vector<QueueEntry>& queue) {
  size_t n = 0;
  for (const QueueEntry& e : queue) {
    n += e.is_long ? 1 : 0;
  }
  return n;
}

// The same queue as a prototype node monitor holds it.
std::deque<runtime::MonitorEntry> MonitorQueueOf(const std::vector<QueueEntry>& queue) {
  std::deque<runtime::MonitorEntry> out;
  for (const QueueEntry& e : queue) {
    if (e.kind == EntryKind::kProbe) {
      out.push_back(runtime::ProbeMsg::Make(e.job, runtime::kFrontendBase, 0, e.is_long));
    } else {
      out.push_back(runtime::TaskMsg::Place(e.job, e.task_index, e.duration, e.is_long,
                                            runtime::kBackendAddress, 0));
    }
  }
  return out;
}

void ExpectSameEntries(const std::vector<QueueEntry>& got, const std::vector<QueueEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].job, want[i].job) << "position " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << "position " << i;
    EXPECT_EQ(got[i].is_long, want[i].is_long) << "position " << i;
  }
}

TEST(StealScanTest, RandomStatesMatchTheReferenceScan) {
  // Seeded random victims: 1-4 slots, each free or occupied by long/short
  // execution or a long/short request; a queue of 0-12 long/short probes
  // and tasks whose ring head sits at a random offset, so entries (and
  // stolen groups) straddle the storage end. Steals repeat until nothing is
  // left to take; each must move exactly the reference group, and the
  // prototype's scan over the same queue must find it too.
  Rng rng(26);
  size_t states_with_group = 0;
  for (int state = 0; state < 4000; ++state) {
    SlotSpec spec;
    spec.slots_per_worker = static_cast<uint32_t>(rng.UniformInt(1, 4));
    WorkerStore store(2, spec);
    const WorkerId victim = 0;
    const WorkerId thief = 1;
    JobId next_job = 1;
    auto random_entry = [&]() {
      const bool is_long = rng.Bernoulli(0.4);
      return rng.Bernoulli(0.5) ? QueueEntry::Probe(next_job++, is_long)
                                : QueueEntry::Task(next_job++, 0, 10, is_long);
    };
    // Rotate the ring head (the first 9 pushes also grow it to 16 slots).
    const int64_t rotate = rng.UniformInt(0, 15);
    for (int64_t i = 0; i < rotate; ++i) {
      store.Enqueue(victim, ShortProbe(0));
    }
    for (int64_t i = 0; i < rotate; ++i) {
      store.PopFront(victim);
    }
    bool occupied_long = false;
    for (uint32_t slot = 0; slot < spec.slots_per_worker; ++slot) {
      const int64_t use = rng.UniformInt(0, 4);  // 0 = free.
      const bool is_long = use % 2 == 1;
      if (use == 1 || use == 2) {
        store.BeginExecute(victim, 0, QueueEntry::Task(next_job++, 0, 10, is_long));
      } else if (use >= 3) {
        store.BeginRequest(victim, is_long);
      }
      occupied_long = occupied_long || (use != 0 && is_long);
    }
    // A lone queued short probe is stealable iff occupied long work blocks it.
    store.Enqueue(victim, ShortProbe(0));
    ASSERT_EQ(store.HasStealableGroup(victim), occupied_long);
    store.PopFront(victim);
    std::vector<QueueEntry> model;
    for (int64_t i = rng.UniformInt(0, 12); i > 0; --i) {
      model.push_back(random_entry());
      store.Enqueue(victim, model.back());
    }
    for (int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
      store.Enqueue(thief, random_entry());
    }
    bool any_group = false;
    while (true) {
      const auto [begin, end] = ReferenceGroup(model, occupied_long);
      ASSERT_EQ(store.HasStealableGroup(victim), begin < end) << "state " << state;
      // A prototype node monitor holding the same queue finds the same group.
      const StealRange monitor_group = runtime::StealGroupOf(MonitorQueueOf(model), occupied_long);
      ASSERT_EQ(monitor_group.begin, begin) << "state " << state;
      ASSERT_EQ(monitor_group.end, end) << "state " << state;
      const std::vector<QueueEntry> thief_before = QueueOf(store, thief);
      const size_t moved = store.StealGroupInto(victim, thief);
      ASSERT_EQ(moved, end - begin) << "state " << state;
      // The thief gained exactly the group, in order, behind its own queue.
      std::vector<QueueEntry> thief_want = thief_before;
      thief_want.insert(thief_want.end(), model.begin() + static_cast<std::ptrdiff_t>(begin),
                        model.begin() + static_cast<std::ptrdiff_t>(end));
      ExpectSameEntries(QueueOf(store, thief), thief_want);
      // The victim kept everything else, and its composition recounts.
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(begin),
                  model.begin() + static_cast<std::ptrdiff_t>(end));
      ASSERT_EQ(store.QueueSize(victim), model.size());
      const std::vector<QueueEntry> left = QueueOf(store, victim);
      ExpectSameEntries(left, model);
      EXPECT_EQ(CountLong(left), CountLong(model));
      if (moved == 0) {
        break;
      }
      any_group = true;
    }
    states_with_group += any_group ? 1 : 0;
    // The counters survive the moves: the queues drain in FIFO order.
    for (const QueueEntry& want : model) {
      EXPECT_EQ(store.PopFront(victim).job, want.job);
    }
    EXPECT_TRUE(store.QueueEmpty(victim));
  }
  // Both outcomes are well represented.
  EXPECT_GT(states_with_group, 400u);
  EXPECT_LT(states_with_group, 3600u);
}

// The "short entry queued" bit (HasQueuedShort) against a recount from the
// ring, after every operation of a random sequence over every worker: it
// must equal "the queue holds a short entry", and a stealable group implies
// it (the steal path skips victims whose bit is clear). 130 workers span
// three bitmap words; the sharded layouts put shard boundaries inside a word,
// so the atomic write path is covered too.
TEST(WorkerStoreTest, QueuedShortBitTracksTheQueue) {
  constexpr uint32_t kWorkers = 130;
  SlotSpec one_slot;
  SlotSpec four_slots;
  four_slots.slots_per_worker = 4;
  SlotSpec hetero;
  hetero.big_worker_fraction = 0.25;
  hetero.big_worker_slots = 4;
  Rng rng(29);
  for (const SlotSpec& spec : {one_slot, four_slots, hetero}) {
    for (const bool sharded : {false, true}) {
      WorkerStore store(kWorkers, spec);
      if (sharded) {
        store.ConfigureShards({0, 37, 70, 100});
      }
      // Occupied slots per worker: (is a request, is long), for releasing
      // them with the matching flags.
      std::vector<std::vector<std::pair<bool, bool>>> occupied(kWorkers);
      std::vector<QueueEntry> drained;
      JobId next_job = 1;
      size_t ops_with_group = 0;
      for (int op = 0; op < 4000; ++op) {
        const WorkerId w = static_cast<WorkerId>(rng.NextBounded(kWorkers));
        const int64_t kind = rng.UniformInt(0, 9);
        if (kind <= 2) {  // 30% enqueues against 20% pops and 20% steals.
          const bool is_long = rng.Bernoulli(0.4);
          store.Enqueue(w, rng.Bernoulli(0.5) ? QueueEntry::Probe(next_job, is_long)
                                              : QueueEntry::Task(next_job, 0, 10, is_long));
          ++next_job;
        } else if (kind <= 4) {
          if (!store.QueueEmpty(w)) {
            store.PopFront(w);
          }
        } else if (kind <= 6) {
          const WorkerId thief = static_cast<WorkerId>((w + 1 + rng.NextBounded(kWorkers - 1)) %
                                                       kWorkers);
          store.StealGroupInto(w, thief);
        } else if (kind == 7) {
          if (rng.Bernoulli(0.1)) {  // A crash: drain, then release every slot.
            drained.clear();
            store.DrainQueueInto(w, &drained);
            store.ResetSlots(w);
            occupied[w].clear();
          }
        } else if (kind == 8) {
          if (store.HasFreeSlot(w)) {
            const bool is_long = rng.Bernoulli(0.5);
            const bool request = rng.Bernoulli(0.5);
            if (request) {
              store.BeginRequest(w, is_long);
            } else {
              store.BeginExecute(w, 0, QueueEntry::Task(next_job++, 0, 10, is_long));
            }
            occupied[w].emplace_back(request, is_long);
          }
        } else if (!occupied[w].empty()) {
          const size_t i = rng.NextBounded(occupied[w].size());
          const auto [request, is_long] = occupied[w][i];
          if (request) {
            store.ResolveRequest(w, is_long);
          } else {
            store.FinishExecute(w, is_long);
          }
          occupied[w].erase(occupied[w].begin() + static_cast<std::ptrdiff_t>(i));
        }
        for (WorkerId v = 0; v < kWorkers; ++v) {
          bool holds_short = false;
          for (size_t i = 0; i < store.QueueSize(v) && !holds_short; ++i) {
            holds_short = !store.QueueAt(v, i).is_long;
          }
          ASSERT_EQ(store.HasQueuedShort(v), holds_short)
              << "worker " << v << " after op " << op << " (kind " << kind << ")";
          if (store.HasStealableGroup(v)) {
            ASSERT_TRUE(store.HasQueuedShort(v)) << "worker " << v << " after op " << op;
            ++ops_with_group;
          }
        }
      }
      // The sequences reach states where groups are stealable.
      EXPECT_GT(ops_with_group, 0u);
    }
  }
}

// --- Cluster ----------------------------------------------------------------

TEST(ClusterTest, PartitionLayout) {
  Cluster cluster(100, 83);
  EXPECT_EQ(cluster.NumWorkers(), 100u);
  EXPECT_EQ(cluster.GeneralCount(), 83u);
  EXPECT_EQ(cluster.NumWorkers() - cluster.GeneralCount(), 17u);
  EXPECT_TRUE(cluster.InGeneralPartition(0));
  EXPECT_TRUE(cluster.InGeneralPartition(82));
  EXPECT_FALSE(cluster.InGeneralPartition(83));
  EXPECT_FALSE(cluster.InGeneralPartition(99));
  EXPECT_EQ(cluster.TotalSlots(), 100u);
  EXPECT_EQ(cluster.GeneralSlots(), 83u);
}

TEST(ClusterTest, GeneralSlotsCoverGeneralWorkers) {
  SlotSpec spec;
  spec.slots_per_worker = 2;
  spec.big_worker_fraction = 0.25;
  spec.big_worker_slots = 6;
  Cluster cluster(8, 6, spec);
  // The general partition is a slot-id prefix: every slot below
  // GeneralSlots() maps to a general worker, every slot above to the short
  // partition.
  for (SlotId s = 0; s < cluster.TotalSlots(); ++s) {
    EXPECT_EQ(s < cluster.GeneralSlots(),
              cluster.InGeneralPartition(cluster.WorkerOfSlot(s)));
  }
}

TEST(ClusterTest, UtilizationCountsExecutingSlotsOnly) {
  Cluster cluster(4, 4);
  EXPECT_DOUBLE_EQ(cluster.Utilization(), 0.0);
  cluster.workers().BeginExecute(0, 0, ShortTask(1));
  cluster.workers().BeginRequest(1, false);  // Requesting is not "used".
  EXPECT_DOUBLE_EQ(cluster.Utilization(), 0.25);
  cluster.workers().BeginExecute(2, 0, LongTask(2));
  EXPECT_DOUBLE_EQ(cluster.Utilization(), 0.5);
}

TEST(ClusterTest, UtilizationIsPerSlotWithMultiSlotWorkers) {
  SlotSpec spec;
  spec.slots_per_worker = 4;
  Cluster cluster(2, 2, spec);
  EXPECT_DOUBLE_EQ(cluster.Utilization(), 0.0);
  cluster.workers().BeginExecute(0, 0, ShortTask(1));
  cluster.workers().BeginExecute(0, 0, ShortTask(2));
  EXPECT_DOUBLE_EQ(cluster.Utilization(), 0.25);  // 2 of 8 slots.
  cluster.workers().BeginExecute(1, 0, ShortTask(3));
  EXPECT_DOUBLE_EQ(cluster.Utilization(), 0.375);
}

TEST(ClusterTest, TotalBusyAggregates) {
  Cluster cluster(3, 3);
  cluster.workers().BeginExecute(0, 0, QueueEntry::Task(1, 0, 100, false));
  cluster.workers().FinishExecute(0, false);
  cluster.workers().BeginExecute(2, 0, QueueEntry::Task(2, 0, 50, false));
  cluster.workers().FinishExecute(2, false);
  EXPECT_EQ(cluster.TotalBusyUs(), 150);
}

// --- JobTracker --------------------------------------------------------------

Trace TwoJobTrace() {
  Trace trace;
  Job a;
  a.task_durations = {100, 200, 300};
  Job b;
  b.task_durations = {50};
  trace.Add(a);
  trace.Add(b);
  trace.SortAndRenumber();
  return trace;
}

TEST(JobTrackerTest, HandsOutTasksExactlyOnceInOrder) {
  const Trace trace = TwoJobTrace();
  JobTracker tracker(&trace);
  auto t0 = tracker.TakeNextTask(0);
  auto t1 = tracker.TakeNextTask(0);
  auto t2 = tracker.TakeNextTask(0);
  ASSERT_TRUE(t0 && t1 && t2);
  EXPECT_EQ(t0->task_index, 0u);
  EXPECT_EQ(t0->duration, 100);
  EXPECT_EQ(t2->duration, 300);
  EXPECT_FALSE(tracker.TakeNextTask(0).has_value());  // Cancels from here on.
  EXPECT_TRUE(tracker.AllTasksAssigned(0));
}

TEST(JobTrackerTest, CompletionDetection) {
  const Trace trace = TwoJobTrace();
  JobTracker tracker(&trace);
  EXPECT_FALSE(tracker.OnTaskFinished(0, 10));
  EXPECT_FALSE(tracker.OnTaskFinished(0, 20));
  EXPECT_FALSE(tracker.AllJobsFinished());
  EXPECT_TRUE(tracker.OnTaskFinished(0, 30));
  EXPECT_EQ(tracker.jobs_finished(), 1u);
  EXPECT_EQ(tracker.FinishTime(0), 30);
  EXPECT_TRUE(tracker.OnTaskFinished(1, 40));
  EXPECT_TRUE(tracker.AllJobsFinished());
}

TEST(JobTrackerTest, ClassificationAndEstimateStorage) {
  const Trace trace = TwoJobTrace();
  JobTracker tracker(&trace);
  tracker.SetClassification(0, /*is_long_metrics=*/false, 12345);
  EXPECT_FALSE(tracker.IsLongMetrics(0));
  EXPECT_EQ(tracker.EstimateUs(0), 12345);
}

}  // namespace
}  // namespace hawk
