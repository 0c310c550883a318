// Core scalar types shared across the Hawk library.
//
// All simulated time is kept in integer microseconds to make event ordering
// exact and runs bit-reproducible across platforms; helpers convert to and
// from seconds at the edges (trace files, reports).
#ifndef HAWK_COMMON_TYPES_H_
#define HAWK_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace hawk {

// A point in simulated time, in microseconds since simulation start.
using SimTime = int64_t;
// A span of simulated time, in microseconds.
using DurationUs = int64_t;

// Identifier types. Plain integers are used (rather than wrapper classes) to
// keep hot simulation structures trivially copyable; the distinct aliases
// document intent at interfaces.
using JobId = uint32_t;
using TaskIndex = uint32_t;
using WorkerId = uint32_t;

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();
inline constexpr JobId kInvalidJob = std::numeric_limits<JobId>::max();
inline constexpr WorkerId kInvalidWorker = std::numeric_limits<WorkerId>::max();

inline constexpr DurationUs kMicrosPerSecond = 1'000'000;
inline constexpr DurationUs kMicrosPerMilli = 1'000;

// Converts seconds (as used in the paper's traces and figures) to microseconds.
constexpr DurationUs SecondsToUs(double seconds) {
  return static_cast<DurationUs>(seconds * static_cast<double>(kMicrosPerSecond) + 0.5);
}

constexpr DurationUs MillisToUs(double millis) {
  return static_cast<DurationUs>(millis * static_cast<double>(kMicrosPerMilli) + 0.5);
}

}  // namespace hawk

#endif  // HAWK_COMMON_TYPES_H_
