// The stealable group of one worker's queue (paper §3.6, Fig. 3), shared by
// the simulator's WorkerStore and the prototype's node monitors.
//
// The group is the first consecutive run of short entries that follows a
// long entry in [occupied slots, queue...] order. Occupied long work (an
// executing long task or an in-flight long probe) counts like a long entry
// ahead of the queue, so with it the group is the queue's first short run;
// without it the group needs a long queue entry before it. The run ends at
// the next long entry.
#ifndef HAWK_CLUSTER_STEAL_GROUP_H_
#define HAWK_CLUSTER_STEAL_GROUP_H_

#include <cstddef>

namespace hawk {

// Queue positions [begin, end); begin == end == the queue size when nothing
// is stealable.
struct StealRange {
  size_t begin = 0;
  size_t end = 0;
};

// Scans a queue of `size` entries, where `is_long(k)` is entry k's class.
template <typename IsLong>
inline StealRange StealGroup(size_t size, bool occupied_long, IsLong&& is_long) {
  bool seen_long = occupied_long;
  size_t begin = 0;
  for (; begin < size; ++begin) {
    if (is_long(begin)) {
      seen_long = true;
    } else if (seen_long) {
      break;
    }
  }
  size_t end = begin;
  while (end < size && !is_long(end)) {
    ++end;
  }
  return StealRange{begin, end};
}

}  // namespace hawk

#endif  // HAWK_CLUSTER_STEAL_GROUP_H_
