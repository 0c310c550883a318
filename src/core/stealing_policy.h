// Randomized work stealing (paper §3.6).
//
// When a worker runs out of work it contacts up to `cap` random victims and
// steals from the first one holding an eligible group. Both general- and
// short-partition workers may steal, but victims are always in the general
// partition — "that is where the head-of-line blocking is caused by long
// jobs". What is stolen is the first consecutive group of short entries
// after a long entry (WorkerStore::StealGroupInto, Fig. 3).
//
// Victim candidates are drawn from the general partition's *slot* space
// (excluding the thief's own slots), so a big multi-slot worker is
// proportionally more likely to be contacted — it holds proportionally more
// of the cluster's blocked work. With single-slot workers the slot space is
// the worker space and the draw sequence is identical to sampling workers.
//
// Victim *ordering* is pluggable: kRandom contacts the sampled victims in
// draw order (the paper's design); kDChoice sorts the same sample by
// descending queue length first — the power-of-d-choices idea applied to
// victim selection (PAPERS.md) — so the first contact is the likeliest to
// hold a stealable group. Both the simulation policies and the threaded
// prototype's node monitors obtain their victim lists here
// (ChooseVictimsInto); only the steal *execution* differs between the two.
//
// The simulation's steal execution (TryStealInto) screens each contacted
// victim on its WorkerStore "short entry queued" bit before touching its
// record: a victim with no short entry queued cannot hold a stealable group,
// so it counts as a contact and is skipped. Draws, contacts, counters and
// results are exactly those of calling StealGroupInto on every victim. At 1M
// workers about 98% of contacts stop at the bit, which sits in a 128 KB
// bitmap instead of a random line of the 64 MB record array.
// ChooseVictimsInto still prefetches every victim's record, screened out or
// not: making the prefetch depend on the bit adds a second unpredictable
// branch per victim, and at 1,500 workers (where about a fifth of contacts
// pass) that measured 8-10% slower end to end. The prefetch of a
// screened-out victim is wasted but cheap, since no load waits on it.
#ifndef HAWK_CORE_STEALING_POLICY_H_
#define HAWK_CORE_STEALING_POLICY_H_

#include <algorithm>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/results.h"
#include "src/common/check.h"
#include "src/common/random.h"

namespace hawk {

class StealingPolicy {
 public:
  enum class VictimSelection : uint8_t {
    kRandom,   // Contact sampled victims in draw order (paper §3.6).
    kDChoice,  // Same sample, most-loaded victim first (power of d choices).
  };

  // `cap`: max random victims contacted per attempt (paper default 10).
  StealingPolicy(uint32_t cap, uint64_t seed,
                 VictimSelection selection = VictimSelection::kRandom)
      : cap_(cap), selection_(selection), rng_(seed) {}

  uint32_t cap() const { return cap_; }
  VictimSelection selection() const { return selection_; }

  // Fills `*victims` with the distinct victim workers one steal attempt
  // would contact, in contact order: up to `cap` candidate slots sampled
  // without replacement from the general partition (excluding the thief's
  // own slots), mapped to their owning workers, deduplicated, and — under
  // kDChoice — stably reordered by descending queue length. Draws from the
  // policy's RNG stream exactly like TryStealInto; under kRandom the contact
  // order equals the historical draw order bit for bit. Empty when cap is 0
  // or no other general-partition slot exists.
  void ChooseVictimsInto(const Cluster& cluster, WorkerId thief,
                         std::vector<WorkerId>* victims) {
    victims->clear();
    if (cap_ == 0) {
      return;
    }
    const SlotId general_slots = cluster.GeneralSlots();
    const bool thief_in_general = cluster.InGeneralPartition(thief);
    // Candidate pool: general-partition slots, minus the thief's own when it
    // is inside.
    const uint32_t thief_slots = thief_in_general ? cluster.workers().Slots(thief) : 0;
    const uint32_t pool = general_slots - thief_slots;
    if (pool == 0) {
      return;
    }
    const SlotId thief_begin = thief_in_general ? cluster.workers().SlotBegin(thief) : 0;
    const uint32_t contacts = std::min(cap_, pool);
    rng_.SampleWithoutReplacement(pool, contacts, &picks_);
    for (const uint32_t pick : picks_) {
      // Skip over the thief's slot range to map pool index -> slot id.
      const SlotId slot =
          (thief_in_general && pick >= thief_begin) ? pick + thief_slots : pick;
      const WorkerId victim = cluster.WorkerOfSlot(slot);
      // Distinct slots can map to the same multi-slot worker; re-probing it
      // within one attempt is a deterministic repeat-failure, so duplicates
      // are skipped and not counted as contacts. The sample stays fixed at
      // min(cap, pool) slots — single-slot fleets keep the exact historical
      // draw sequence — so an attempt in a multi-slot fleet may contact
      // fewer than cap distinct victims when its sample collides.
      if (std::find(victims->begin(), victims->end(), victim) != victims->end()) {
        continue;
      }
      // Every victim is a random worker: start all record loads before the
      // first is read (kDChoice's sort, TryStealInto's scan), so the misses
      // overlap instead of queueing one behind another.
      cluster.workers().Prefetch(victim);
      victims->push_back(victim);
    }
    if (selection_ == VictimSelection::kDChoice) {
      // Most-loaded first; stable so equal queues keep the draw order (and
      // an all-empty view — e.g. the prototype's static layout cluster,
      // which carries no live queue state — degrades to kRandom exactly).
      std::stable_sort(victims->begin(), victims->end(),
                       [&cluster](WorkerId a, WorkerId b) {
                         return cluster.workers().QueueSize(a) >
                                cluster.workers().QueueSize(b);
                       });
    }
  }

  // Attempts one steal for `thief`: contacts the victims ChooseVictimsInto
  // lists (the same selection the prototype's node monitors use) in order
  // and moves the first eligible victim's stealable group straight onto the
  // thief's queue (no intermediate buffer). Returns the number of entries
  // stolen; updates the steal counters in `counters`. This is the
  // simulation hot path: the victim sample is drawn into a reused member
  // buffer, so a failed attempt allocates nothing.
  size_t TryStealInto(Cluster& cluster, WorkerId thief, RunCounters* counters) {
    if (cap_ == 0) {
      return 0;
    }
    counters->steal_attempts++;
    ChooseVictimsInto(cluster, thief, &victims_);
    WorkerStore& workers = cluster.workers();
    for (const WorkerId victim : victims_) {
      counters->steal_victim_probes++;
      // StealGroupInto's self-steal check, run for every contact, screened
      // out or not.
      HAWK_CHECK_NE(victim, thief) << "worker " << thief << " stealing from itself";
      if (!workers.HasQueuedShort(victim)) {
        continue;  // No short entry queued, so no stealable group.
      }
      const size_t stolen = workers.StealGroupInto(victim, thief);
      if (stolen > 0) {
        counters->steal_successes++;
        counters->entries_stolen += stolen;
        return stolen;
      }
    }
    return 0;
  }

 private:
  uint32_t cap_;
  VictimSelection selection_;
  Rng rng_;
  // Victim-sample scratch, reused across attempts.
  std::vector<uint32_t> picks_;
  // The current attempt's contact list (<= cap entries).
  std::vector<WorkerId> victims_;
};

}  // namespace hawk

#endif  // HAWK_CORE_STEALING_POLICY_H_
