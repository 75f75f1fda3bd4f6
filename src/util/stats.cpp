#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cadet::util {

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::mean() const noexcept {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::stddev() const noexcept {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0.0;
  for (double v : values_) m2 += (v - m) * (v - m);
  return std::sqrt(m2 / static_cast<double>(values_.size() - 1));
}

double Samples::min() const {
  if (values_.empty()) throw std::logic_error("Samples::min on empty set");
  ensure_sorted();
  return values_.front();
}

double Samples::max() const {
  if (values_.empty()) throw std::logic_error("Samples::max on empty set");
  ensure_sorted();
  return values_.back();
}

double Samples::quantile(double q) const {
  if (values_.empty()) throw std::logic_error("Samples::quantile on empty set");
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values_.size()) return values_.back();
  return values_[lo] * (1.0 - frac) + values_[lo + 1] * frac;
}

std::string Samples::summary() const {
  std::ostringstream os;
  if (values_.empty()) {
    os << "(no samples)";
    return os.str();
  }
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "mean=" << mean() << " p50=" << quantile(0.5)
     << " p95=" << quantile(0.95) << " min=" << min() << " max=" << max()
     << " (n=" << count() << ")";
  return os.str();
}

}  // namespace cadet::util
