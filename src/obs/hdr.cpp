#include "obs/hdr.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace cadet::obs {

namespace {

constexpr std::size_t half_count(int bits) noexcept {
  return std::size_t{1} << (bits - 1);
}

constexpr std::uint64_t sub_bucket_mask(int bits) noexcept {
  return (std::uint64_t{1} << bits) - 1;
}

// Exponent bucket holding `v`: 0 while v fits entirely in the linear
// sub-buckets, +1 per octave beyond that.
int bucket_of(std::uint64_t v, int bits) noexcept {
  return std::bit_width(v | sub_bucket_mask(bits)) - bits;
}

}  // namespace

// ---------------------------------------------------------------- HdrLayout

std::size_t HdrLayout::cell_count() const noexcept {
  const int top = bucket_of(max_value_ns, sub_bucket_bits);
  // Bucket 0 owns two half-rows (its low half is the only exact range);
  // every later bucket adds one half-row of doubled-width cells.
  return (static_cast<std::size_t>(top) + 2) * half_count(sub_bucket_bits);
}

std::size_t HdrLayout::index_of(std::uint64_t value_ns) const noexcept {
  if (value_ns > max_value_ns) value_ns = max_value_ns;
  const std::size_t half = half_count(sub_bucket_bits);
  const int bucket = bucket_of(value_ns, sub_bucket_bits);
  const std::uint64_t sub = value_ns >> bucket;
  return (static_cast<std::size_t>(bucket) + 1) * half +
         (static_cast<std::size_t>(sub) - half);
}

std::uint64_t HdrLayout::value_lo(std::size_t index) const noexcept {
  const std::size_t half = half_count(sub_bucket_bits);
  if (index < half) return index;  // bucket 0, exact cells
  const int bucket = static_cast<int>(index / half) - 1;
  const std::uint64_t sub = half + index % half;
  return sub << bucket;
}

std::uint64_t HdrLayout::value_hi(std::size_t index) const noexcept {
  const std::size_t half = half_count(sub_bucket_bits);
  if (index < half) return index + 1;
  const int bucket = static_cast<int>(index / half) - 1;
  const std::uint64_t sub = half + index % half;
  return (sub + 1) << bucket;
}

double HdrLayout::value_mid_s(std::size_t index) const noexcept {
  // Midpoint readout halves the worst-case cell-width error. Exact cells
  // (width 1 ns) read back their own value.
  const std::uint64_t lo = value_lo(index);
  const std::uint64_t hi = value_hi(index);
  if (hi - lo <= 1) return static_cast<double>(lo) * 1e-9;
  return (static_cast<double>(lo) + static_cast<double>(hi)) * 0.5e-9;
}

// -------------------------------------------------------------- HdrSnapshot

double HdrSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  std::size_t last_populated = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    last_populated = i;
    cumulative += c;
    if (static_cast<double>(cumulative) >= target) {
      return layout.value_mid_s(i);
    }
  }
  // target == count with floating-point slack: the highest populated cell.
  return layout.value_mid_s(last_populated);
}

std::uint64_t HdrSnapshot::count_above(double seconds) const noexcept {
  if (!(seconds > 0.0)) return count;
  const double ns = seconds * 1e9;
  const std::uint64_t threshold_ns =
      ns >= static_cast<double>(layout.max_value_ns)
          ? layout.max_value_ns
          : static_cast<std::uint64_t>(ns);
  // Count cells lying entirely at or above the threshold; the straddling
  // cell is excluded, keeping the answer within one cell width of exact.
  std::uint64_t above = 0;
  for (std::size_t i = counts.size(); i-- > 0;) {
    if (layout.value_lo(i) < threshold_ns) break;
    above += counts[i];
  }
  return above;
}

bool HdrSnapshot::merge(const HdrSnapshot& other) {
  if (!(layout == other.layout) || counts.size() != other.counts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  count += other.count;
  sum_s += other.sum_s;
  saturated += other.saturated;
  return true;
}

bool HdrSnapshot::subtract(const HdrSnapshot& earlier) {
  if (!(layout == earlier.layout) || counts.size() != earlier.counts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < earlier.counts[i]) return false;
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] -= earlier.counts[i];
  }
  count -= earlier.count;
  sum_s -= earlier.sum_s;
  saturated -= earlier.saturated;
  return true;
}

// ------------------------------------------------------------- HdrHistogram

HdrHistogram::HdrHistogram(const HdrConfig& config) {
  layout_.sub_bucket_bits = std::clamp(config.sub_bucket_bits, 1, 12);
  const double max_s = std::clamp(config.max_value_s, 1e-6, 1e9);
  layout_.max_value_ns = static_cast<std::uint64_t>(max_s * 1e9);
  cell_count_ = layout_.cell_count();
  cells_ = std::vector<Cell>(cell_count_ + 2);
}

std::uint64_t HdrHistogram::load(std::size_t slot) const noexcept {
  return cells_[slot].load(std::memory_order_relaxed);
}

void HdrHistogram::add(std::size_t slot, std::uint64_t n) noexcept {
  cells_[slot].fetch_add(n, std::memory_order_relaxed);
}

void HdrHistogram::record(double seconds) noexcept {
  std::uint64_t v = 0;
  bool saturated = false;
  if (seconds > 0.0) {  // negatives and NaN clamp to the zero cell
    const double ns = seconds * 1e9 + 0.5;
    if (ns >= static_cast<double>(layout_.max_value_ns)) {
      v = layout_.max_value_ns;
      saturated = true;
    } else {
      v = static_cast<std::uint64_t>(ns);
    }
  }
  add(layout_.index_of(v), 1);
  add(cell_count_, v);
  if (saturated) add(cell_count_ + 1, 1);
}

std::uint64_t HdrHistogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cell_count_; ++i) total += load(i);
  return total;
}

double HdrHistogram::sum() const noexcept {
  return static_cast<double>(load(cell_count_)) * 1e-9;
}

std::uint64_t HdrHistogram::saturations() const noexcept {
  return load(cell_count_ + 1);
}

std::uint64_t HdrHistogram::cell(std::size_t index) const noexcept {
  return load(index);
}

double HdrHistogram::quantile(double q) const noexcept {
  // Walk the cells directly; allocation-free so it stays noexcept-safe.
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  std::size_t last_populated = 0;
  for (std::size_t i = 0; i < cell_count_; ++i) {
    const std::uint64_t c = load(i);
    if (c == 0) continue;
    last_populated = i;
    cumulative += c;
    if (static_cast<double>(cumulative) >= target) {
      return layout_.value_mid_s(i);
    }
  }
  return layout_.value_mid_s(last_populated);
}

std::uint64_t HdrHistogram::count_above(double seconds) const noexcept {
  if (!(seconds > 0.0)) return count();
  const double ns = seconds * 1e9;
  const std::uint64_t threshold_ns =
      ns >= static_cast<double>(layout_.max_value_ns)
          ? layout_.max_value_ns
          : static_cast<std::uint64_t>(ns);
  std::uint64_t above = 0;
  for (std::size_t i = cell_count_; i-- > 0;) {
    if (layout_.value_lo(i) < threshold_ns) break;
    above += load(i);
  }
  return above;
}

bool HdrHistogram::absorb(const HdrSnapshot& delta) {
  if (!(delta.layout == layout_) || delta.counts.size() != cell_count_) {
    return false;
  }
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < cell_count_; ++i) {
    if (delta.counts[i] == 0) continue;
    add(i, delta.counts[i]);
    ns += delta.counts[i] * layout_.value_lo(i);
  }
  // Preserve the exact sum the source histogram accumulated rather than
  // the cell-midpoint reconstruction when the delta carries one.
  const double sum_ns = delta.sum_s > 0.0
                            ? delta.sum_s * 1e9
                            : static_cast<double>(ns);
  add(cell_count_, static_cast<std::uint64_t>(sum_ns));
  add(cell_count_ + 1, delta.saturated);
  return true;
}

HdrSnapshot HdrHistogram::snapshot() const {
  HdrSnapshot snap;
  snap.layout = layout_;
  snap.counts.resize(cell_count_);
  for (std::size_t i = 0; i < cell_count_; ++i) {
    const std::uint64_t c = load(i);
    snap.counts[i] = c;
    snap.count += c;
  }
  snap.sum_s = sum();
  snap.saturated = saturations();
  return snap;
}

}  // namespace cadet::obs
