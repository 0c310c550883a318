// Deterministic random number generation.
//
// The standard <random> distributions are implementation-defined, which would
// make traces and simulation results differ across standard libraries. All
// randomness in the project flows through this xoshiro256++ engine and the
// hand-rolled distributions below, so a seed fully determines an experiment.
#ifndef HAWK_COMMON_RANDOM_H_
#define HAWK_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace hawk {

// xoshiro256++ by Blackman & Vigna (public domain reference implementation
// re-expressed); seeded via SplitMix64 so that any 64-bit seed is usable.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  uint64_t Next();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound), bias-free via rejection.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Exponential with the given mean (= scale parameter).
  double Exponential(double mean);

  // Standard normal via Box-Muller (deterministic, no cached spare).
  double Gaussian(double mean, double stddev);

  // Gaussian(mean, stddev) rejection-sampled to be strictly positive; used by
  // the paper's synthetic-trace recipe ("excluding negative values").
  double PositiveGaussian(double mean, double stddev);

  // Log-normal given the median (= exp(mu)) and sigma of the underlying normal.
  double LogNormalMedian(double median, double sigma);

  // True with probability p.
  bool Bernoulli(double p);

  // Sample of k distinct values from [0, n) into *out, reusing its capacity
  // (no allocation once warm). k must be <= n.
  void SampleWithoutReplacement(uint32_t n, uint32_t k, std::vector<uint32_t>* out);

 private:
  uint64_t state_[4];
  // Epoch-stamped membership scratch for SampleWithoutReplacement.
  // Purely an acceleration structure: it never influences the draw stream,
  // and seeding is unaffected by it.
  std::vector<uint32_t> sample_stamp_;
  uint32_t sample_epoch_ = 0;
};

}  // namespace hawk

#endif  // HAWK_COMMON_RANDOM_H_
