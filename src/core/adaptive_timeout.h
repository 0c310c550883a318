// Jacobson/Karn-style adaptive retransmission timeout, shared by the
// simulator's lossy-delivery model and the prototype's failure-recovery
// reaper.
//
// The estimator is TCP's (Jacobson 1988): an EWMA of the observed latency
// (gain 1/8) plus an EWMA of its mean deviation (gain 1/4); the timeout is
// mean + 4 * deviation. Retransmits back off exponentially with a capped
// shift and a small deterministic jitter, so a loss burst spreads its
// retries instead of synchronizing them — and a per-delivery retry budget
// (HawkConfig::retry_budget) bounds the chain outright.
#ifndef HAWK_CORE_ADAPTIVE_TIMEOUT_H_
#define HAWK_CORE_ADAPTIVE_TIMEOUT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/common/types.h"

namespace hawk {

class AdaptiveTimeout {
 public:
  // `expected_us` seeds the mean; the deviation starts at half of it, so the
  // cold-start timeout is 3x the expectation before any sample arrives
  // (TCP's conservative initialization). `floor_us`/`cap_us` clamp the
  // timeout after backoff — the cap is what makes the backoff "capped".
  AdaptiveTimeout(double expected_us, DurationUs floor_us, DurationUs cap_us)
      : srtt_(std::max(0.0, expected_us)),
        rttvar_(std::max(0.0, expected_us) / 2.0),
        floor_us_(std::max<DurationUs>(floor_us, 1)),
        cap_us_(std::max(cap_us, floor_us_)) {}

  // Feed one observed latency (an RTT, or a task's service overhead).
  void AddSample(double observed_us) {
    const double err = observed_us - srtt_;
    srtt_ += kMeanGain * err;
    rttvar_ += kDevGain * (std::abs(err) - rttvar_);
  }

  // Base timeout (attempt 0): srtt + 4 * rttvar, clamped to [floor, cap].
  DurationUs TimeoutUs() const { return BackoffTimeoutUs(0); }

  // Timeout before the (attempt+1)-th transmission of the same payload:
  // exponential backoff with the shift capped so the doubling stops growing
  // past kMaxBackoffShift even before the absolute cap bites.
  DurationUs BackoffTimeoutUs(uint32_t attempt) const {
    const double base = srtt_ + 4.0 * rttvar_;
    const double scaled =
        base * static_cast<double>(uint64_t{1} << std::min(attempt, kMaxBackoffShift));
    if (scaled >= static_cast<double>(cap_us_)) {
      return cap_us_;
    }
    return std::clamp(static_cast<DurationUs>(std::llround(scaled)), floor_us_, cap_us_);
  }

  // Deterministic retry jitter in [0, span): a splitmix64 hash of
  // (key, attempt), so both executors de-synchronize retransmits without
  // consuming an RNG stream (the sim's reproducibility across sweep thread
  // counts depends on exactly that).
  static DurationUs JitterUs(uint64_t key, uint32_t attempt, DurationUs span) {
    if (span <= 0) {
      return 0;
    }
    uint64_t z = key + 0x9E3779B97F4A7C15ULL * (attempt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<DurationUs>(z % static_cast<uint64_t>(span));
  }

 private:
  static constexpr double kMeanGain = 0.125;  // 1/8
  static constexpr double kDevGain = 0.25;    // 1/4
  static constexpr uint32_t kMaxBackoffShift = 6;  // 64x, then the cap.

  double srtt_;
  double rttvar_;
  DurationUs floor_us_;
  DurationUs cap_us_;
};

}  // namespace hawk

#endif  // HAWK_CORE_ADAPTIVE_TIMEOUT_H_
