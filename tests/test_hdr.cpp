// HdrHistogram: log-linear layout maths, quantile precision, saturation,
// snapshot merging, and the writer-plus-scraper contract. The
// HdrContention test doubles as the TSan stress suite (see
// CMakePresets.json `tsan-metrics`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/hdr.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace cadet::obs {
namespace {

TEST(HdrLayout, EveryCellRoundTrips) {
  HdrConfig config;
  config.sub_bucket_bits = 4;  // small layout, exhaustively checkable
  config.max_value_s = 1e-3;
  HdrHistogram h(config);
  const HdrLayout& layout = h.layout();
  for (std::size_t i = 0; i < layout.cell_count(); ++i) {
    const std::uint64_t lo = layout.value_lo(i);
    const std::uint64_t hi = layout.value_hi(i);
    ASSERT_LT(lo, hi) << "cell " << i;
    EXPECT_EQ(layout.index_of(lo), i) << "cell " << i;
    EXPECT_EQ(layout.index_of(hi - 1), i) << "cell " << i;
    if (i > 0) {
      EXPECT_EQ(layout.value_lo(i), layout.value_hi(i - 1))
          << "gap before cell " << i;
    }
  }
}

TEST(HdrLayout, SmallValuesAreExact) {
  HdrHistogram h;
  const HdrLayout& layout = h.layout();
  // The first two half-rows (values below 2^sub_bucket_bits = 64 ns for
  // the default layout) are 1 ns wide: exact cells.
  for (std::uint64_t v = 0; v < 64; ++v) {
    const std::size_t i = layout.index_of(v);
    EXPECT_EQ(layout.value_lo(i), v);
    EXPECT_EQ(layout.value_hi(i), v + 1);
  }
}

TEST(HdrHistogram, CountAndSum) {
  HdrHistogram h;
  h.record(0.001);
  h.record(0.002);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_NEAR(h.sum(), 0.003, 1e-9);
  EXPECT_EQ(h.saturations(), 0u);
}

TEST(HdrHistogram, NegativeAndNanClampToZero) {
  HdrHistogram h;
  h.record(-1.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.quantile(1.0), 1e-9);
}

TEST(HdrHistogram, SaturatesAtMaxValue) {
  HdrConfig config;
  config.max_value_s = 1.0;
  HdrHistogram h(config);
  h.record(100.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.saturations(), 1u);
  EXPECT_LE(h.quantile(1.0), 1.0 + 1e-6);
}

TEST(HdrHistogram, QuantilesWithinLayoutPrecision) {
  // Default layout: 6 sub-bucket bits => relative error <= 2^-5 = 3.125%
  // at the edges; midpoint readout keeps us inside that bound.
  HdrHistogram h;
  util::Xoshiro256 rng(0x5eedULL);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(rng.exponential(0.003));
  }
  for (const double s : samples) h.record(s);
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, exact * 0.04)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(HdrHistogram, CountAbove) {
  HdrHistogram h;
  for (int i = 0; i < 10; ++i) h.record(0.001);
  for (int i = 0; i < 5; ++i) h.record(1.0);
  EXPECT_EQ(h.count_above(0.5), 5u);
  EXPECT_EQ(h.count_above(10.0), 0u);
}

TEST(HdrSnapshot, MergeAddsCellWise) {
  HdrHistogram a;
  HdrHistogram b;
  a.record(0.001);
  a.record(0.002);
  b.record(0.002);
  b.record(4.0);
  HdrSnapshot sa = a.snapshot();
  const HdrSnapshot sb = b.snapshot();
  ASSERT_TRUE(sa.merge(sb));
  EXPECT_EQ(sa.count, 4u);
  EXPECT_NEAR(sa.sum_s, 4.005, 1e-6);
  EXPECT_GT(sa.quantile(0.99), 1.0);
}

TEST(HdrSnapshot, MergeRejectsDifferentLayouts) {
  HdrConfig small;
  small.sub_bucket_bits = 3;
  HdrHistogram a;
  HdrHistogram b(small);
  HdrSnapshot sa = a.snapshot();
  const std::uint64_t before = sa.count;
  EXPECT_FALSE(sa.merge(b.snapshot()));
  EXPECT_EQ(sa.count, before);
}

TEST(HdrHistogram, RegistryExportsBuckets) {
  Registry registry;
  HdrHistogram& h = registry.hdr("cadet_demo_seconds");
  h.record(0.001);
  h.record(0.010);
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("# TYPE cadet_demo_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("cadet_demo_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("cadet_demo_seconds_count 2"), std::string::npos);
}

// One recording thread + a scraping reader (the UdpRunner poll loop vs
// an admin /metrics scrape): no lost observations, snapshots monotone in
// count.
TEST(HdrHistogram, HdrContentionWriterAndScraper) {
  constexpr int kRecords = 80000;
  HdrHistogram h;

  std::atomic<bool> done{false};
  std::atomic<bool> scraping{false};
  std::thread scraper([&]() {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const HdrSnapshot snap = h.snapshot();
      ASSERT_GE(snap.count, last) << "snapshot count went backwards";
      last = snap.count;
      scraping.store(true, std::memory_order_relaxed);
    }
  });
  // Start recording only once the scraper runs, so the two overlap.
  while (!scraping.load(std::memory_order_relaxed)) std::this_thread::yield();

  for (int i = 0; i < kRecords; ++i) {
    h.record(0.0001 * static_cast<double>(1 + (i & 0xff)));
  }
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kRecords));
  const HdrSnapshot snap = h.snapshot();
  std::uint64_t cells_total = 0;
  for (const std::uint64_t c : snap.counts) cells_total += c;
  EXPECT_EQ(cells_total, snap.count);
}

}  // namespace
}  // namespace cadet::obs
