#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "obs/export.h"
#include "obs/hdr.h"
#include "obs/metrics.h"

namespace cadet::obs {
namespace {

TEST(Counter, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(Registry, FindOrCreateReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("cadet_test_hits", {{"tier", "edge"}});
  Counter& b = reg.counter("cadet_test_hits", {{"tier", "edge"}});
  EXPECT_EQ(&a, &b);
  // Different labels are a different series.
  Counter& c = reg.counter("cadet_test_hits", {{"tier", "server"}});
  EXPECT_NE(&a, &c);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, InstrumentAddressesStableAcrossGrowth) {
  Registry reg;
  Counter& first = reg.counter("cadet_test_first");
  for (int i = 0; i < 200; ++i) {
    reg.counter("cadet_test_filler_" + std::to_string(i));
  }
  first.inc(7);
  EXPECT_EQ(reg.counter("cadet_test_first").value(), 7u);
  EXPECT_EQ(&reg.counter("cadet_test_first"), &first);
}

TEST(Registry, TwoThreadsIncrementingYieldExactTotals) {
  Registry reg;
  Counter& counter = reg.counter("cadet_test_concurrent");
  Gauge& gauge = reg.gauge("cadet_test_concurrent_gauge");
  constexpr int kIters = 200000;
  auto worker = [&]() {
    for (int i = 0; i < kIters; ++i) {
      counter.inc();
      gauge.add(1);
    }
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(counter.value(), 2u * kIters);
  EXPECT_EQ(gauge.value(), 2 * kIters);
}

// The threaded callers' shape (UdpRunner's poll loop, an admin scrape):
// one writer, one concurrent reader. No update may be lost and the reader
// must never see the value go backwards.
TEST(Counter, ContentionWriterAndScraper) {
  constexpr std::uint64_t kIncrements = 200000;
  Counter counter;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&]() {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = counter.value();
      ASSERT_GE(now, last) << "scrape went backwards";
      last = now;
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Start writing only once the scraper runs, so the two overlap.
  while (scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (std::uint64_t i = 0; i < kIncrements; ++i) counter.inc();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(counter.value(), kIncrements);
}

TEST(Labels, TierLabelsSortedForDeterministicExport) {
  const Labels labels = tier_labels("edge", 100);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].first, "node");
  EXPECT_EQ(labels[0].second, "100");
  EXPECT_EQ(labels[1].first, "tier");
  EXPECT_EQ(labels[1].second, "edge");
}

TEST(Export, PrometheusTextContainsAllSeries) {
  Registry reg;
  reg.counter("cadet_test_uploads", tier_labels("edge", 100)).inc(3);
  reg.gauge("cadet_test_pool_bits", tier_labels("server", 1)).set(512);
  reg.hdr("cadet_test_latency_seconds").record(0.75);

  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE cadet_test_uploads counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("cadet_test_uploads_total{node=\"100\",tier=\"edge\"} 3"),
      std::string::npos);
  EXPECT_NE(
      text.find("cadet_test_pool_bits{node=\"1\",tier=\"server\"} 512"),
      std::string::npos);
  // Histogram series are cumulative and end with the +Inf bucket.
  EXPECT_NE(text.find("# TYPE cadet_test_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("cadet_test_latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cadet_test_latency_seconds_count 1"),
            std::string::npos);
}

}  // namespace
}  // namespace cadet::obs
