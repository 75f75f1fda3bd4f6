// Exact percentiles over stored samples, for the experiment harnesses and
// the paper-figure benches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cadet::util {

/// Stores all samples; exact quantiles by sorting on demand.
class Samples {
 public:
  void add(double x) { values_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const;
  double max() const;
  /// Linear-interpolated quantile, q in [0,1]. Requires at least one sample.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  const std::vector<double>& values() const noexcept { return values_; }

  /// "mean=…, p50=…, p95=…, min=…, max=… (n=…)" summary line.
  std::string summary() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace cadet::util
