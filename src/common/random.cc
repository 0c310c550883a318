#include "src/common/random.h"

#include <algorithm>
#include <cmath>

namespace hawk {
namespace {

constexpr double kPi = 3.14159265358979323846;

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  HAWK_CHECK_GT(bound, 0u);
  // Rejection sampling over the largest multiple of `bound`: draws below
  // threshold = 2^64 mod bound are rejected. The threshold is below `bound`,
  // so any draw >= bound is accepted without computing it; its division
  // runs only for the rare small draw. Same draws as always testing it.
  while (true) {
    const uint64_t r = Next();
    if (r >= bound || r >= (0 - bound) % bound) {
      return r % bound;
    }
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  HAWK_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::Uniform(double lo, double hi) {
  HAWK_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
  HAWK_CHECK_GT(mean, 0.0);
  // Inverse-CDF; 1 - u in (0, 1] avoids log(0).
  return -mean * std::log(1.0 - NextDouble());
}

double Rng::Gaussian(double mean, double stddev) {
  HAWK_CHECK_GE(stddev, 0.0);
  // Box-Muller without caching the second variate: caching would entangle
  // successive distribution calls and complicate fork-based determinism.
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * kPi * u2);
}

double Rng::PositiveGaussian(double mean, double stddev) {
  HAWK_CHECK_GT(mean, 0.0);
  while (true) {
    const double v = Gaussian(mean, stddev);
    if (v > 0.0) {
      return v;
    }
  }
}

double Rng::LogNormalMedian(double median, double sigma) {
  HAWK_CHECK_GT(median, 0.0);
  return median * std::exp(Gaussian(0.0, sigma));
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

void Rng::SampleWithoutReplacement(uint32_t n, uint32_t k, std::vector<uint32_t>* out) {
  HAWK_CHECK_LE(k, n);
  out->clear();
  if (k == 0) {
    return;
  }
  if (static_cast<uint64_t>(k) * 8 >= n) {
    // Dense draw: partial Fisher-Yates, using *out itself as the index array
    // so no scratch allocation is needed once its capacity is warm.
    out->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      (*out)[i] = i;
    }
    for (uint32_t i = 0; i < k; ++i) {
      const uint32_t j = i + static_cast<uint32_t>(NextBounded(n - i));
      std::swap((*out)[i], (*out)[j]);
    }
    out->resize(k);
    return;
  }
  // Sparse draw (k << n): Floyd's algorithm, O(k) expected, avoids touching
  // all n candidates. Hot path for steal-victim selection on large clusters.
  // Membership testing never touches the draw stream, so the structure is a
  // pure implementation choice: a linear scan over the output for small k
  // (steal caps), an epoch-stamped scratch array for larger k (probe
  // batches) — both allocation-free once warm.
  std::vector<uint32_t>& chosen = *out;
  if (k <= 16) {
    for (uint32_t i = n - k; i < n; ++i) {
      const uint32_t j = static_cast<uint32_t>(NextBounded(i + 1));
      bool have_j = false;
      for (const uint32_t v : chosen) {
        if (v == j) {
          have_j = true;
          break;
        }
      }
      chosen.push_back(have_j ? i : j);
    }
  } else {
    if (sample_stamp_.size() < n) {
      sample_stamp_.resize(n, 0);
    }
    if (++sample_epoch_ == 0) {  // Epoch wrap: invalidate all stale stamps.
      std::fill(sample_stamp_.begin(), sample_stamp_.end(), 0);
      sample_epoch_ = 1;
    }
    for (uint32_t i = n - k; i < n; ++i) {
      const uint32_t j = static_cast<uint32_t>(NextBounded(i + 1));
      const uint32_t pick = sample_stamp_[j] == sample_epoch_ ? i : j;
      sample_stamp_[pick] = sample_epoch_;
      chosen.push_back(pick);
    }
  }
  // Floyd's produces a biased *order*; shuffle so callers that probe the
  // sample sequentially (steal attempts) see a uniform ordering.
  for (uint32_t i = k; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(NextBounded(i));
    std::swap(chosen[i - 1], chosen[j]);
  }
}

}  // namespace hawk
