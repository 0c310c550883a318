// Probe target selection for batch probing (paper §2.3, §3.5).
//
// A job with t tasks sends `ratio * t` probes to targets chosen uniformly at
// random *without replacement* from an eligible index range. Callers pass
// either a worker-id range (single-slot clusters) or a slot-id range
// (multi-slot clusters, mapping back via Cluster::WorkerOfSlot) — the two
// coincide at one slot per worker, and sampling slots weights workers by
// capacity. When the probe count exceeds the eligible index count (large
// jobs on small partitions), probes are spread in whole rounds — every index
// receives floor(p / n) probes and a random distinct subset receives one
// more — preserving the invariant that the number of probes is never smaller
// than the number of tasks.
#ifndef HAWK_CORE_PROBE_PLACEMENT_H_
#define HAWK_CORE_PROBE_PLACEMENT_H_

#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/types.h"

namespace hawk {

// Fills `*targets` with `num_probes` worker ids in [first, first + count),
// reusing the capacity of `*targets` and `*picks_scratch` so a warmed-up
// policy places probes without allocating.
inline void ChooseProbeTargetsInto(Rng& rng, WorkerId first, uint32_t count,
                                   uint32_t num_probes, std::vector<WorkerId>* targets,
                                   std::vector<uint32_t>* picks_scratch) {
  HAWK_CHECK_GT(count, 0u);
  targets->clear();
  targets->reserve(num_probes);
  const uint32_t rounds = num_probes / count;
  const uint32_t remainder = num_probes % count;
  for (uint32_t r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < count; ++i) {
      targets->push_back(first + i);
    }
  }
  if (remainder > 0) {
    rng.SampleWithoutReplacement(count, remainder, picks_scratch);
    for (const uint32_t pick : *picks_scratch) {
      targets->push_back(first + pick);
    }
  }
}

}  // namespace hawk

#endif  // HAWK_CORE_PROBE_PLACEMENT_H_
