// Sample collection with exact percentile and CDF extraction.
//
// Experiments collect up to a few hundred thousand job runtimes; an exact
// sorted-sample implementation is both simpler and more faithful to the
// paper's reported percentiles than a sketch would be.
#ifndef HAWK_COMMON_HISTOGRAM_H_
#define HAWK_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace hawk {

class Samples {
 public:
  Samples() = default;

  void Add(double value);

  size_t Count() const { return values_.size(); }
  bool Empty() const { return values_.empty(); }

  double Min() const;
  double Max() const;
  double Mean() const;
  double Sum() const;

  // Exact percentile with linear interpolation between order statistics.
  // `pct` in [0, 100]. Requires a non-empty sample set.
  double Percentile(double pct) const;
  double Median() const { return Percentile(50.0); }

  // Empirical CDF evaluated at `value`: P(X <= value).
  double CdfAt(double value) const;

  // (value, cumulative probability) pairs over `points` evenly spaced order
  // statistics — the series behind the paper's CDF figures.
  std::vector<std::pair<double, double>> CdfSeries(size_t points) const;

  const std::vector<double>& values() const { return values_; }

 private:
  void EnsureSorted() const;

  std::vector<double> values_;
  mutable bool sorted_ = true;
};

}  // namespace hawk

#endif  // HAWK_COMMON_HISTOGRAM_H_
