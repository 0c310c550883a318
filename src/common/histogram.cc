#include "src/common/histogram.h"

#include <algorithm>

#include "src/common/check.h"

namespace hawk {

void Samples::Add(double value) {
  values_.push_back(value);
  sorted_ = false;
}

void Samples::EnsureSorted() const {
  if (!sorted_) {
    auto* mutable_values = const_cast<std::vector<double>*>(&values_);
    std::sort(mutable_values->begin(), mutable_values->end());
    sorted_ = true;
  }
}

double Samples::Min() const {
  HAWK_CHECK(!values_.empty());
  EnsureSorted();
  return values_.front();
}

double Samples::Max() const {
  HAWK_CHECK(!values_.empty());
  EnsureSorted();
  return values_.back();
}

double Samples::Sum() const {
  double sum = 0.0;
  for (const double v : values_) {
    sum += v;
  }
  return sum;
}

double Samples::Mean() const {
  HAWK_CHECK(!values_.empty());
  return Sum() / static_cast<double>(values_.size());
}

double Samples::Percentile(double pct) const {
  HAWK_CHECK(!values_.empty());
  HAWK_CHECK_GE(pct, 0.0);
  HAWK_CHECK_LE(pct, 100.0);
  EnsureSorted();
  if (values_.size() == 1) {
    return values_[0];
  }
  const double rank = pct / 100.0 * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double Samples::CdfAt(double value) const {
  if (values_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  const auto it = std::upper_bound(values_.begin(), values_.end(), value);
  return static_cast<double>(it - values_.begin()) / static_cast<double>(values_.size());
}

std::vector<std::pair<double, double>> Samples::CdfSeries(size_t points) const {
  HAWK_CHECK_GT(points, 1u);
  std::vector<std::pair<double, double>> series;
  if (values_.empty()) {
    return series;
  }
  EnsureSorted();
  series.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    const size_t idx =
        std::min(values_.size() - 1, static_cast<size_t>(q * static_cast<double>(values_.size())));
    series.emplace_back(values_[idx], static_cast<double>(idx + 1) /
                                          static_cast<double>(values_.size()));
  }
  return series;
}

}  // namespace hawk
