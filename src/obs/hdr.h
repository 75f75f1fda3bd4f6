// HDR-style log-linear latency histogram.
//
// The registry's one histogram type. A fixed table of 10 buckets would
// bound a quantile only to within a 3x bucket edge — useless for "p999
// moved from 80 us to 120 us". HdrHistogram covers sub-microsecond ..
// minutes in log-linear cells: values are kept in integer nanoseconds,
// each power-of-two range ("octave") is split into 2^sub_bucket_bits
// linear sub-buckets, so every recorded value is representable to a
// relative error of at most 2^-(sub_bucket_bits-1) and a quantile read
// back from the cells is exact to that precision. record() is O(1) (one
// bit-scan, one relaxed add), allocation-free, and noexcept — hot-path
// safe.
//
// Threading: one cell array of relaxed atomics. Every caller records from
// one thread (the simulator, the UDP poll loop, or a shard that owns a
// private histogram folded at the window barrier); scrapers may read
// concurrently and see monotone counts.
//
// Snapshots are mergeable: two snapshots with the same layout add
// cell-wise, so per-shard or per-run histograms combine without losing
// quantile fidelity (the error bound is a property of the layout, not of
// the population).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cadet::obs {

struct HdrConfig {
  /// Linear sub-buckets per octave as a power of two. 6 => 64 sub-buckets
  /// => relative quantile error <= 2^-5 ~= 3.1% (midpoint readout halves
  /// it). Clamped to [1, 12].
  int sub_bucket_bits = 6;
  /// Highest trackable value in seconds; larger observations clamp into
  /// the top cell (saturations() counts them). Default spans the latency
  /// range of interest: 1 ns .. ~8.5 minutes.
  double max_value_s = 512.0;
};

/// Cell-layout maths shared by the live histogram and its snapshots.
/// Cell i covers integer nanosecond values [value_lo(i), value_hi(i));
/// cells in the first two half-rows are exact (width 1 ns).
struct HdrLayout {
  int sub_bucket_bits = 0;
  std::uint64_t max_value_ns = 0;

  std::size_t cell_count() const noexcept;
  std::size_t index_of(std::uint64_t value_ns) const noexcept;
  std::uint64_t value_lo(std::size_t index) const noexcept;
  std::uint64_t value_hi(std::size_t index) const noexcept;  // exclusive
  /// Midpoint readout value for a quantile that lands in cell `index`.
  double value_mid_s(std::size_t index) const noexcept;

  bool operator==(const HdrLayout&) const = default;
};

/// An immutable, mergeable copy of the cell counts.
struct HdrSnapshot {
  HdrLayout layout;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum_s = 0.0;
  std::uint64_t saturated = 0;

  /// Quantile estimate, exact to the layout's precision, clamped into the
  /// highest populated cell (never extrapolates past max_value_s).
  double quantile(double q) const noexcept;
  /// Observations recorded at or above `seconds` (to cell precision).
  std::uint64_t count_above(double seconds) const noexcept;
  /// Cell-wise add. False (and no-op) when layouts differ.
  bool merge(const HdrSnapshot& other);
  /// Cell-wise subtract of an EARLIER snapshot of the same histogram,
  /// leaving the delta recorded between the two. False (and no-op) when
  /// layouts differ or `earlier` is not cell-wise <= this one.
  bool subtract(const HdrSnapshot& earlier);
};

class HdrHistogram {
 public:
  explicit HdrHistogram(const HdrConfig& config = {});

  /// Record one observation in seconds. Negative values clamp to 0,
  /// values beyond max_value_s clamp into the top cell.
  void record(double seconds) noexcept;

  const HdrLayout& layout() const noexcept { return layout_; }

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  std::uint64_t saturations() const noexcept;
  /// Count in cell `index`.
  std::uint64_t cell(std::size_t index) const noexcept;

  /// Live quantile (takes an implicit snapshot of the counts).
  double quantile(double q) const noexcept;
  std::uint64_t count_above(double seconds) const noexcept;

  /// Mergeable copy of the counts. Monotone: a later snapshot's
  /// count/cells are >= an earlier one's.
  HdrSnapshot snapshot() const;

  /// Fold a (delta) snapshot's cells into this live histogram. The sharded
  /// worlds use this to publish per-shard histograms into a registry-owned
  /// instrument: integer cell adds commute, so absorbing shard deltas in
  /// shard-index order yields the same counts as recording directly.
  /// False (and no-op) when the layouts differ.
  bool absorb(const HdrSnapshot& delta);

 private:
  using Cell = std::atomic<std::uint64_t>;

  std::uint64_t load(std::size_t slot) const noexcept;
  void add(std::size_t slot, std::uint64_t n) noexcept;

  HdrLayout layout_;
  std::size_t cell_count_ = 0;
  // cell_count_ cells, then the sum (in ns) and the saturation count. One
  // vector keeps the histogram movable (ShardObs streams live in one).
  std::vector<Cell> cells_;
};

}  // namespace cadet::obs
