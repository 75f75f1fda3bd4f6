#include "sim/link.h"

#include <gtest/gtest.h>

#include "sim/cpu.h"
#include "util/stats.h"

namespace cadet::sim {
namespace {

TEST(LatencyProfile, SampleAtLeastBase) {
  util::Xoshiro256 rng(1);
  const auto profile = testbed_lan();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(profile.sample(rng, 0), profile.base);
  }
}

TEST(LatencyProfile, BytesAddSerializationDelay) {
  util::Xoshiro256 rng(2);
  LatencyProfile p;
  p.base = 1000;
  p.ns_per_byte = 10.0;
  EXPECT_EQ(p.sample(rng, 100), 1000 + 1000);
}

TEST(LatencyProfile, NoJitterIsDeterministic) {
  util::Xoshiro256 rng(3);
  LatencyProfile p;
  p.base = 5000;
  EXPECT_EQ(p.sample(rng, 0), 5000);
  EXPECT_EQ(p.sample(rng, 0), 5000);
}

TEST(LatencyProfile, WanSlowerThanLan) {
  util::Xoshiro256 rng(4);
  const auto lan = testbed_lan();
  const auto wan = internet_wan();
  util::Samples lan_stats, wan_stats;
  for (int i = 0; i < 2000; ++i) {
    lan_stats.add(static_cast<double>(lan.sample(rng, 64)));
    wan_stats.add(static_cast<double>(wan.sample(rng, 64)));
  }
  EXPECT_GT(wan_stats.mean(), 10 * lan_stats.mean());
  // Testbed LAN one-way should be well under a millisecond on average.
  EXPECT_LT(lan_stats.mean(), 1e6);
  // WAN should be tens of milliseconds.
  EXPECT_GT(wan_stats.mean(), 10e6);
  EXPECT_LT(wan_stats.mean(), 100e6);
}

TEST(LatencyProfile, LossProbability) {
  util::Xoshiro256 rng(5);
  LatencyProfile p;
  p.loss_prob = 0.25;
  int dropped = 0;
  for (int i = 0; i < 10000; ++i) {
    if (p.dropped(rng)) ++dropped;
  }
  EXPECT_NEAR(dropped / 10000.0, 0.25, 0.03);
}

TEST(LatencyProfile, ZeroLossNeverDrops) {
  util::Xoshiro256 rng(6);
  const auto p = testbed_lan();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(p.dropped(rng));
  }
}

TEST(CpuModel, CyclesToTime) {
  const CpuModel cpu(20e6);  // 20 MHz
  EXPECT_EQ(cpu.time_for_cycles(20e6), util::kSecond);
  EXPECT_EQ(cpu.time_for_cycles(1e6), 50 * util::kMillisecond);
}

TEST(CpuModel, TierOrdering) {
  // Same work takes 30x longer on a client than the edge, 2x edge vs server.
  const double cycles = 3e6;
  EXPECT_GT(kClientCpu.time_for_cycles(cycles),
            10 * kEdgeCpu.time_for_cycles(cycles));
  EXPECT_GT(kEdgeCpu.time_for_cycles(cycles),
            kServerCpu.time_for_cycles(cycles));
}

}  // namespace
}  // namespace cadet::sim
