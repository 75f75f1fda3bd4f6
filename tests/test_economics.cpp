// The client-economics table (cadet/economics.h): Eq. 1 usage with lazy
// decay, the robust heavy line, two-stage policing and the Table I / Eq. 2
// penalties — plus the two properties that let one table serve every tier:
// lazy decay agrees with the eager per-packet loop, and EdgeNode drives the
// table and the serve core (cadet/cache.h) exactly as ScaleWorld's call
// order does.
#include "cadet/economics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cadet/cache.h"
#include "cadet/edge_node.h"
#include "cadet/packet.h"
#include "entropy/sources.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace cadet {
namespace {

using Slot = ClientEconomics::Slot;

/// Id-keyed helpers: the full engines map client ids to slots on sight.
void record(ClientEconomics& table, std::uint32_t id, double usage) {
  table.record(table.slot(id), usage);
}
void track(ClientEconomics& table, std::uint32_t id) {
  table.track(table.slot(id));
}
void score_upload(ClientEconomics& table, std::uint32_t id, int checks) {
  table.record_result(table.slot(id), checks);
}
bool drops(ClientEconomics& table, std::uint32_t id, util::Xoshiro256& rng) {
  return table.should_drop(table.slot(id), rng);
}

// ------------------------------------------------------------ Eq. 1 usage

TEST(UsageTracker, Equation1SingleStep) {
  ClientEconomics table({}, 0.96);
  record(table, 1, 100.0);
  EXPECT_DOUBLE_EQ(table.score(1), 100.0);
  record(table, 1, 50.0);
  // US_t = usage_t + decay * US_{t-1}
  EXPECT_DOUBLE_EQ(table.score(1), 50.0 + 0.96 * 100.0);
}

TEST(UsageTracker, TickDecaysWithoutUsage) {
  ClientEconomics table({}, 0.5);
  record(table, 1, 64.0);
  table.tick();
  table.tick();
  EXPECT_DOUBLE_EQ(table.score(1), 16.0);
}

TEST(UsageTracker, EveryPacketAdvancesAllScores) {
  ClientEconomics table({}, 0.96);
  record(table, 1, 100.0);
  record(table, 2, 10.0);  // this step also decays client 1
  EXPECT_DOUBLE_EQ(table.score(1), 96.0);
  EXPECT_DOUBLE_EQ(table.score(2), 10.0);
}

TEST(UsageTracker, SteadyStateConverges) {
  ClientEconomics table({}, 0.96);
  for (int i = 0; i < 2000; ++i) record(table, 1, 10.0);
  // Geometric series limit: u / (1 - decay) = 250.
  EXPECT_NEAR(table.score(1), 250.0, 0.5);
}

TEST(UsageTracker, UnknownDeviceScoresZero) {
  const ClientEconomics table;
  EXPECT_DOUBLE_EQ(table.score(42), 0.0);
  EXPECT_FALSE(table.is_heavy(42));
}

TEST(UsageTracker, HeavyDetection) {
  ClientEconomics table({}, 0.96);
  for (std::uint32_t c = 1; c <= 7; ++c) track(table, c);
  // Mixed traffic: device 7 requests 80x more than the rest. The robust
  // threshold tracks the normal cohort, so the outlier is flagged even
  // though it would be within 3 *classical* sigmas of a cohort whose
  // sigma it inflates itself.
  for (int round = 0; round < 400; ++round) {
    for (std::uint32_t c = 1; c <= 6; ++c) record(table, c, 8.0);
    record(table, 7, 640.0);
  }
  EXPECT_TRUE(table.is_heavy(7));
  for (std::uint32_t c = 1; c <= 6; ++c) {
    EXPECT_FALSE(table.is_heavy(c)) << "client " << c;
  }
}

TEST(UsageTracker, ThresholdIsRobustToOutliers) {
  ClientEconomics table({}, 1.0);  // no decay for a clean hand computation
  // Normal cohort 10..15, one outlier at 500.
  double v = 10.0;
  for (std::uint32_t c = 1; c <= 6; ++c) {
    record(table, c, v);
    v += 1.0;
  }
  record(table, 7, 500.0);
  // Threshold derived from the median cohort, far below the outlier.
  const double threshold = table.heavy_line().threshold;
  EXPECT_GT(threshold, 15.0);
  EXPECT_LT(threshold, 100.0);
  EXPECT_TRUE(table.is_heavy(7));
}

TEST(UsageTracker, IdleNetworkSpikesJudgedByStddevFallback) {
  ClientEconomics table({}, 0.96);
  for (std::uint32_t c = 1; c <= 8; ++c) track(table, c);
  // All idle: MAD degenerates; with every score zero the threshold is zero
  // and the strict > comparison keeps everyone regular.
  for (int i = 0; i < 50; ++i) table.tick();
  EXPECT_DOUBLE_EQ(table.heavy_line().threshold, 0.0);
  for (std::uint32_t c = 1; c <= 8; ++c) EXPECT_FALSE(table.is_heavy(c));
  // The sole active client among sleepers IS the heavy one relative to its
  // cohort (stddev fallback, since MAD is still zero)...
  record(table, 1, 64.0);
  EXPECT_GT(table.heavy_line().threshold, 0.0);
  EXPECT_TRUE(table.is_heavy(1));
  // ...but once peers are comparably active the flag clears.
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t c = 1; c <= 8; ++c) record(table, c, 64.0);
  }
  EXPECT_FALSE(table.is_heavy(1));
}

TEST(UsageTracker, UniformLoadHasNoHeavyUsers) {
  ClientEconomics table;
  for (int round = 0; round < 200; ++round) {
    for (std::uint32_t c = 1; c <= 8; ++c) record(table, c, 64.0);
  }
  for (std::uint32_t c = 1; c <= 8; ++c) {
    EXPECT_FALSE(table.is_heavy(c));
  }
}

TEST(UsageTracker, HeavyUserRecoversAfterBurst) {
  ClientEconomics table({}, 0.96);
  for (std::uint32_t c = 1; c <= 8; ++c) track(table, c);
  for (int round = 0; round < 300; ++round) {
    for (std::uint32_t c = 1; c <= 8; ++c) record(table, c, 8.0);
  }
  for (int round = 0; round < 100; ++round) {
    for (std::uint32_t c = 1; c <= 7; ++c) record(table, c, 8.0);
    record(table, 8, 512.0);
  }
  ASSERT_TRUE(table.is_heavy(8));
  // Burst ends; device 8 goes quiet while others continue.
  int steps_to_recover = 0;
  while (table.is_heavy(8) && steps_to_recover < 10000) {
    for (std::uint32_t c = 1; c <= 7; ++c) record(table, c, 8.0);
    table.tick();
    steps_to_recover += 8;
  }
  EXPECT_FALSE(table.is_heavy(8));
  EXPECT_GT(steps_to_recover, 0);
}

TEST(UsageTracker, StepsCounted) {
  ClientEconomics table;
  record(table, 1, 1.0);
  table.tick();
  record(table, 2, 1.0);
  EXPECT_EQ(table.steps(), 3u);
}

TEST(UsageTracker, TrackIsIdempotent) {
  ClientEconomics table;
  record(table, 1, 50.0);
  track(table, 1);  // must not reset the score
  EXPECT_DOUBLE_EQ(table.score(1), 50.0);
  EXPECT_EQ(table.cohort_size(), 1u);
}

// ---- edge cases (adversarial economics suite) -----------------------------

TEST(UsageTracker, AllEqualNonzeroScoresNobodyHeavy) {
  // MAD degenerates to 0 when every score is identical but NONZERO. The
  // stddev fallback is also 0, so threshold == median — and with the
  // strict > comparison plus the median-ratio floor, a perfectly uniform
  // cohort can never flag anyone, no matter the load level.
  ClientEconomics table({}, 1.0);  // no decay: scores stay exactly equal
  for (std::uint32_t c = 1; c <= 8; ++c) track(table, c);
  for (std::uint32_t c = 1; c <= 8; ++c) {
    // One batch per device on a decay-free table: all end equal.
    record(table, c, 64.0);
  }
  for (std::uint32_t c = 1; c <= 8; ++c) {
    ASSERT_DOUBLE_EQ(table.score(c), 64.0);
  }
  EXPECT_DOUBLE_EQ(table.heavy_line().median, 64.0);
  for (std::uint32_t c = 1; c <= 8; ++c) {
    EXPECT_FALSE(table.is_heavy(c)) << "client " << c;
  }
}

TEST(UsageTracker, SingleDeviceIsItsOwnCohort) {
  // With one tracked device, median == score and MAD == 0: the device can
  // never exceed a threshold derived from itself. A lone client on an
  // edge must not be flagged heavy for merely being the only one active.
  ClientEconomics table({}, 0.96);
  for (int i = 0; i < 500; ++i) record(table, 1, 2048.0);
  EXPECT_GT(table.score(1), 0.0);
  EXPECT_DOUBLE_EQ(table.heavy_line().median, table.score(1));
  EXPECT_FALSE(table.is_heavy(1));
}

TEST(UsageTracker, ScoreExactlyAtThresholdIsNotHeavy) {
  // is_heavy demands score STRICTLY above the threshold (and above the
  // median-ratio floor); a score sitting exactly on the line stays
  // regular. Decay-free table so the hand-built distribution holds.
  ClientEconomics table({}, 1.0);
  // Cohort {10, 10, 10, 10, 10}: median 10, MAD 0, stddev 0 -> threshold
  // exactly 10, and a device at exactly 10 is not heavy.
  for (std::uint32_t c = 1; c <= 5; ++c) record(table, c, 10.0);
  // record() decays nothing at decay=1.0, so all five scores are 10.
  ASSERT_DOUBLE_EQ(table.heavy_line().threshold, 10.0);
  for (std::uint32_t c = 1; c <= 5; ++c) {
    EXPECT_DOUBLE_EQ(table.score(c), 10.0);
    EXPECT_FALSE(table.is_heavy(c)) << "client " << c;
  }
}

TEST(UsageTracker, LongTickOnlyGapDecaysEverybodyToEpsilon) {
  // A long stretch of usage-free steps (infrastructure packets only) must
  // drain every score toward zero without ever creating a heavy flag —
  // the regime an attacker tried to force by flooding no-usage packets
  // before the usage clock was gated to accepted work.
  ClientEconomics table({}, 0.96);
  for (std::uint32_t c = 1; c <= 8; ++c) record(table, c, 64.0);
  const double before = table.score(1);
  for (int i = 0; i < 2000; ++i) {
    table.tick();
    for (std::uint32_t c = 1; c <= 8; ++c) {
      ASSERT_FALSE(table.is_heavy(c)) << "step " << i << " client " << c;
    }
  }
  EXPECT_LT(table.score(1), before * 1e-9);
  EXPECT_LT(table.heavy_line().threshold, 1e-6);
  // A single fresh request in the drained cohort is the stddev-fallback
  // regime again; the median-ratio floor alone decides, and one 64-byte
  // request against an epsilon cohort IS an outlier — but the scores all
  // being epsilon, enforcement elsewhere (the rate floor) is what keeps
  // this from denying honest clients. Here we only pin the decay math.
  EXPECT_EQ(table.steps(), 2008u);
}

TEST(UsageTracker, MedianRatioFloorStopsCompressedCohortFlags) {
  // A device 3 MAD-sigmas out but within kUsageHeavyMedianRatio x median
  // must NOT be heavy: tight cohorts (tiny MAD) would otherwise flag
  // ordinary fluctuation. Cohort {100 x7, 130}: median 100, threshold
  // 100 + 3*1.4826*0 (MAD 0) -> stddev fallback; either way 130 < 400 so
  // the ratio floor keeps it regular.
  ClientEconomics table({}, 1.0);
  for (std::uint32_t c = 1; c <= 7; ++c) record(table, c, 100.0);
  record(table, 8, 130.0);
  EXPECT_FALSE(table.is_heavy(8));
  // Push it past 4x the median: now both the MAD test and the ratio floor
  // agree and the flag fires.
  record(table, 8, 300.0);  // score 430 > 4 * 100
  EXPECT_TRUE(table.is_heavy(8));
}

// The table once traversed an ordered map so that floating-point
// accumulation never depended on hash seeding or insertion history. Slots
// are assigned in first-seen order, and every per-slot update and order
// statistic is independent of that order: two tables that saw the same
// events in different discovery order stay bit-identical.
TEST(Determinism, UsageTrackerIndependentOfInsertionOrder) {
  ClientEconomics ascending;
  ClientEconomics shuffled;
  for (std::uint32_t id = 0; id < 8; ++id) track(ascending, id);
  for (const std::uint32_t id : {5u, 2u, 7u, 0u, 3u, 6u, 1u, 4u}) {
    track(shuffled, id);
  }
  // Identical event sequence against both; values chosen so float
  // accumulation order matters if traversal order ever regresses.
  for (int step = 0; step < 64; ++step) {
    const std::uint32_t device = static_cast<std::uint32_t>((step * 5) % 8);
    const double usage = 0.1 * static_cast<double>(step) + 1.0 / 3.0;
    record(ascending, device, usage);
    record(shuffled, device, usage);
  }
  for (std::uint32_t id = 0; id < 8; ++id) {
    EXPECT_EQ(ascending.score(id), shuffled.score(id)) << "device " << id;
    EXPECT_EQ(ascending.is_heavy(id), shuffled.is_heavy(id));
  }
  EXPECT_EQ(ascending.heavy_line().threshold,
            shuffled.heavy_line().threshold);
}

// ------------------------------------------------- lazy vs eager decay

/// The eager Eq. 1 table the lazy one replaces: decay every score on every
/// step, sort the cohort for the median and MAD.
class EagerUsage {
 public:
  explicit EagerUsage(double decay) : decay_(decay) {}

  void tick() {
    for (auto& [id, score] : scores_) score *= decay_;
  }
  void record(std::uint32_t id, double usage) {
    tick();
    scores_[id] += usage;
  }
  double score(std::uint32_t id) const {
    const auto it = scores_.find(id);
    return it == scores_.end() ? 0.0 : it->second;
  }
  bool is_heavy(std::uint32_t id) const {
    std::vector<double> values;
    for (const auto& [other, score] : scores_) values.push_back(score);
    const double median = median_of(values);
    std::vector<double> deviations;
    for (const double v : values) deviations.push_back(std::fabs(v - median));
    double spread = 1.4826 * median_of(deviations);
    if (spread == 0.0) {
      double mean = 0.0;
      for (const double v : values) mean += v;
      mean /= static_cast<double>(values.size());
      double m2 = 0.0;
      for (const double v : values) m2 += (v - mean) * (v - mean);
      spread = std::sqrt(m2 / static_cast<double>(values.size()));
    }
    const double threshold = median + kUsageSigmaThreshold * spread;
    const double s = score(id);
    return s > threshold && s > kUsageHeavyMedianRatio * median;
  }

 private:
  static double median_of(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n % 2 == 1) return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }

  double decay_;
  std::map<std::uint32_t, double> scores_;
};

TEST(Economics, LazyDecayMatchesEagerReference) {
  constexpr std::uint32_t kClients = 24;
  constexpr int kSteps = 60'000;
  // The scale passes 2^500 every 500 / log2(1 / decay) ~ 8.5k steps, so
  // the run crosses several renormalisations.
  ASSERT_GE(kSteps * std::log2(1.0 / kUsageDecay) / 500.0, 3.0);

  ClientEconomics lazy;
  EagerUsage eager(kUsageDecay);
  util::Xoshiro256 rng(0xdecafULL);
  int heavy_verdicts = 0;
  int light_verdicts = 0;
  for (int step = 0; step < kSteps; ++step) {
    if (rng.bernoulli(0.2)) {
      lazy.tick();
      eager.tick();
    } else {
      // Clients 0-1 run hot in alternating bursts so verdicts go both ways.
      const std::uint32_t id = static_cast<std::uint32_t>(rng.uniform(kClients));
      const bool burst = id < 2 && (step / 3000) % 2 == static_cast<int>(id);
      const double usage = (burst ? 400.0 : 8.0) * (0.5 + rng.uniform01());
      record(lazy, id, usage);
      eager.record(id, usage);
      const bool heavy = eager.is_heavy(id);
      ASSERT_EQ(lazy.is_heavy(id), heavy) << "step " << step << " id " << id;
      ++(heavy ? heavy_verdicts : light_verdicts);
    }
    for (std::uint32_t id = 0; id < kClients; ++id) {
      const double want = eager.score(id);
      ASSERT_NEAR(lazy.score(id), want, 1e-9 * want)
          << "step " << step << " id " << id;
    }
  }
  EXPECT_EQ(lazy.steps(), static_cast<std::uint64_t>(kSteps));
  EXPECT_GT(heavy_verdicts, 100);
  EXPECT_GT(light_verdicts, 100);
}

// -------------------------------------------------------- cohort / line

TEST(Economics, UploadOnlySlotStaysOutOfTheCohort) {
  ClientEconomics table({}, 1.0);
  for (std::uint32_t c = 1; c <= 3; ++c) record(table, c, 10.0 * c);
  const ClientEconomics::HeavyLine before = table.heavy_line();
  // Uploaders get a slot for their penalty score, not a zero in the median.
  for (std::uint32_t c = 100; c < 110; ++c) score_upload(table, c, 6);
  EXPECT_EQ(table.size(), 13u);
  EXPECT_EQ(table.cohort_size(), 3u);
  EXPECT_EQ(table.heavy_line().median, before.median);
  EXPECT_EQ(table.heavy_line().threshold, before.threshold);
}

TEST(Economics, CachedLineDecaysWithTheScores) {
  // Every statistic of the line scales with the scores, so a cached line
  // stays exact under ticks — across renormalisations too.
  ClientEconomics table({}, 0.96, 16);
  for (std::uint32_t i = 0; i < 16; ++i) {
    table.record(Slot{i}, i == 3 ? 900.0 : 10.0 + i);
  }
  table.refresh_line();
  ASSERT_TRUE(table.over(Slot{3}));
  for (int step = 0; step < 20'000; ++step) {
    table.tick();
    if (step % 997 != 0) continue;
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_EQ(table.over(Slot{i}), table.is_heavy(Slot{i}))
          << "step " << step << " slot " << i;
    }
  }
  EXPECT_TRUE(table.over(Slot{3}));
}

TEST(Economics, NobodyIsOverBeforeTheFirstRefresh) {
  ClientEconomics table({}, kUsageDecay, 4);
  table.record(Slot{0}, 1e6);
  EXPECT_FALSE(table.over(Slot{0}));
  EXPECT_FALSE(table.request(Slot{0}, 1e6, 0, /*refresh=*/false, true).over);
}

// ------------------------------------------------------------- policing

/// A cohort of seven quiet clients and one (slot 7) asking 100x more.
ClientEconomics policing_cohort() {
  ClientEconomics table({}, kUsageDecay, 8);
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t i = 0; i < 7; ++i) table.record(Slot{i}, 8.0);
  }
  return table;
}

TEST(Economics, StrikesThenRateFloorThenDenial) {
  ClientEconomics table = policing_cohort();
  // One burst instant: every request is over the line and the bucket
  // fills without draining. Denial waits for both the strike limit and
  // kUsageHeavyDenyWindow - 1 arrivals.
  int first_deny = 0;
  for (int n = 1; n <= 20 && first_deny == 0; ++n) {
    const ClientEconomics::Verdict v =
        table.request(Slot{7}, 800.0, 0, /*refresh=*/true,
                      /*denial_enabled=*/true);
    ASSERT_TRUE(v.over) << "request " << n;
    if (v.deny) first_deny = n;
  }
  EXPECT_EQ(first_deny, static_cast<int>(kUsageHeavyDenyWindow) - 1);
  // Denied at the limit: the score freezes (no record, no tick).
  const std::uint64_t steps = table.steps();
  const double score = table.score(Slot{7});
  const ClientEconomics::Verdict denied =
      table.request(Slot{7}, 800.0, 0, true, true);
  EXPECT_TRUE(denied.deny);
  EXPECT_EQ(table.steps(), steps);
  EXPECT_EQ(table.score(Slot{7}), score);
}

TEST(Economics, RequestsAtTheRateFloorAreNeverDenied) {
  ClientEconomics table = policing_cohort();
  // Exactly kUsageHeavyDenyMinRateHz: the bucket drains as fast as it
  // fills, so strikes pile up but the client is only reserve-blocked.
  const util::SimTime gap = util::from_seconds(1.0 / kUsageHeavyDenyMinRateHz);
  for (int n = 0; n < 200; ++n) {
    const ClientEconomics::Verdict v =
        table.request(Slot{7}, 800.0, n * gap, true, true);
    ASSERT_TRUE(v.over);
    ASSERT_FALSE(v.deny) << "request " << n;
  }
  EXPECT_GE(table.strikes(Slot{7}), kUsageHeavyStrikeLimit);
  // Twice the floor fills the bucket one arrival per two, so denial
  // arrives after about 2 * (window - 1) requests.
  ClientEconomics fast = policing_cohort();
  int first_deny = 0;
  for (int n = 1; n <= 100 && first_deny == 0; ++n) {
    if (fast.request(Slot{7}, 800.0, n * gap / 2, true, true).deny) {
      first_deny = n;
    }
  }
  EXPECT_GT(first_deny, static_cast<int>(kUsageHeavyDenyWindow));
  EXPECT_LE(first_deny, 2 * static_cast<int>(kUsageHeavyDenyWindow));
}

TEST(Economics, DenialDisabledOnlyCountsStrikes) {
  ClientEconomics table = policing_cohort();
  for (int n = 0; n < 40; ++n) {
    const ClientEconomics::Verdict v =
        table.request(Slot{7}, 800.0, 0, true, /*denial_enabled=*/false);
    ASSERT_TRUE(v.over);
    ASSERT_FALSE(v.deny);
    EXPECT_EQ(v.strikes, n + 1);
  }
  // One request judged normal resets the strike run.
  ClientEconomics::Verdict normal =
      table.request(Slot{0}, 8.0, 0, true, false);
  EXPECT_FALSE(normal.over);
  EXPECT_EQ(normal.strikes, 0);
}

// --------------------------------------- EdgeNode vs ScaleWorld call order

// A seeded request/upload stream through EdgeNode::on_packet and, side by
// side, through a bare pre-sized table and a bare serve core driven the way
// a ScaleWorld shard drives them: penalty gate, Table I scoring and a tick
// for accepted work; requests through request() with the line refreshed each
// time, then the core's take and refill; a landing refill ticks, inserts and
// drains. Every refill either side asks for is answered with the same fixed
// grant after the same delay. Every step must leave identical scores,
// strikes, verdicts, blacklists, serve outcomes, fills, queue depths,
// delivered bytes and refill sizes.
TEST(Economics, EdgeNodeMatchesScaleWorldCallOrder) {
  constexpr std::uint32_t kClients = 8;
  constexpr std::uint32_t kFirstId = 1000;
  constexpr std::size_t kGrant = 3072;
  const util::SimTime kRefillRtt = 40 * util::kMillisecond;
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 77;
  config.num_clients = kClients;
  EdgeNode edge(config);
  const ClientEconomics& edge_econ = edge.economics();
  const obs::Gauge& cache_bytes = edge.metrics().gauge(
      "cadet_edge_cache_bytes", obs::tier_labels("edge", config.id));

  ClientEconomics bare(config.penalty, kUsageDecay, kClients);
  using Core = EdgeCache<std::uint32_t>;  // ticket: the client index
  Core core(kClients);
  // EdgeNode's penalty-gate stream (its rng_), and a second sanity front
  // end fed the same payloads: the bare table sees the same draws and
  // outcomes.
  util::Xoshiro256 gate_rng(config.seed ^ 0x1234abcdULL);
  SanityChecker sanity;

  using Delivery = std::pair<std::uint32_t, std::size_t>;  // client, bytes
  // Splits what EdgeNode sent into client deliveries and the refill bits.
  const auto split = [&](const std::vector<net::Outgoing>& out,
                         std::vector<Delivery>& deliveries,
                         std::optional<std::uint16_t>& refill_bits) {
    for (const net::Outgoing& o : out) {
      const auto packet = decode(o.data);
      ASSERT_TRUE(packet.has_value());
      if (o.to == config.server) {
        ASSERT_FALSE(refill_bits.has_value());
        refill_bits = packet->header.argument;
      } else {
        deliveries.emplace_back(o.to, packet->payload.size());
      }
    }
  };
  util::SimTime refill_due = -1;  // the outstanding grant lands then
  std::uint64_t core_delivered = 0;
  const auto same_refill = [&](std::optional<std::uint16_t> edge_bits,
                               const Core::Refill& refill, util::SimTime t) {
    ASSERT_EQ(edge_bits.has_value(), refill.issue);
    if (!refill.issue) return;
    ASSERT_EQ(*edge_bits,
              std::min<std::size_t>(refill.bytes * 8, kMaxRefillBits));
    refill_due = t + kRefillRtt;
  };

  util::Xoshiro256 rng(0x5ca1eULL);
  util::SimTime now = 0;
  int denials = 0;
  int overs = 0;
  int hits = 0;
  int blocked = 0;
  int queued_served = 0;
  for (int step = 0; step < 4000; ++step) {
    now += util::from_seconds(rng.exponential(0.02));
    SCOPED_TRACE("step " + std::to_string(step));
    // Grants due before this arrival land first, on both sides.
    while (refill_due >= 0 && refill_due <= now) {
      const util::SimTime t = refill_due;
      refill_due = -1;
      const auto out = edge.on_packet(
          config.server,
          encode(Packet::data_ack(rng.bytes(kGrant), true, false)), t);
      bare.tick();
      core.refill_answered(t);
      core.insert(kGrant);
      std::vector<Delivery> answered;
      const Core::Refill refill =
          core.drain(t, [&](std::uint32_t k, std::size_t n) {
            answered.emplace_back(kFirstId + k, n);
            core_delivered += n;
          });
      std::vector<Delivery> delivered;
      std::optional<std::uint16_t> refill_bits;
      split(out, delivered, refill_bits);
      ASSERT_EQ(delivered, answered);
      queued_served += static_cast<int>(answered.size());
      same_refill(refill_bits, refill, t);
      ASSERT_FALSE(HasFatalFailure());
    }

    const std::uint32_t k = static_cast<std::uint32_t>(rng.uniform(kClients));
    const std::uint32_t id = kFirstId + k;
    const Slot slot{k};
    // Clients 0-1 flood requests; 6-7 upload mostly garbage.
    const bool request = k < 2 ? rng.bernoulli(0.9) : rng.bernoulli(0.4);
    if (request) {
      const std::uint16_t bits =
          static_cast<std::uint16_t>(k < 2 ? 4096 : 256 + rng.uniform(512));
      const std::uint64_t denied_before = edge.heavy_denials(id);
      const EdgeNode::Stats before = edge.stats();
      const auto out =
          edge.on_packet(id, encode(Packet::data_request(bits, false)), now);
      const EdgeNode::Stats after = edge.stats();

      const std::size_t bytes = core.clamp((bits + 7u) / 8u);
      const ClientEconomics::Verdict v =
          bare.request(slot, static_cast<double>(bytes), now, true, true);
      std::optional<Core::Serve> serve;
      Core::Refill refill;
      if (v.deny) {
        refill = core.refill(now);
      } else {
        const Core::Decision decision = core.serve(bytes, v.over, k, now);
        serve = decision.serve;
        refill = decision.refill;
      }
      const bool hit = serve == Core::Serve::kHit;
      const bool reserve_blocked = serve == Core::Serve::kReserveBlocked;
      const Slot edge_slot = *edge_econ.find(id);
      ASSERT_EQ(edge.heavy_denials(id) - denied_before, v.deny ? 1u : 0u);
      ASSERT_EQ(edge_econ.strikes(edge_slot), v.strikes);
      ASSERT_EQ(edge_econ.strikes(edge_slot) > 0, v.over);
      ASSERT_EQ(after.cache_hits - before.cache_hits, hit ? 1u : 0u);
      ASSERT_EQ(after.cache_misses - before.cache_misses,
                serve.has_value() && !hit ? 1u : 0u);
      ASSERT_EQ(after.heavy_rejections - before.heavy_rejections,
                v.deny || reserve_blocked ? 1u : 0u);
      std::vector<Delivery> delivered;
      std::optional<std::uint16_t> refill_bits;
      split(out, delivered, refill_bits);
      std::vector<Delivery> served;
      if (hit) served.emplace_back(id, bytes);
      ASSERT_EQ(delivered, served);
      if (hit) core_delivered += bytes;
      same_refill(refill_bits, refill, now);
      ASSERT_FALSE(HasFatalFailure());
      denials += v.deny ? 1 : 0;
      overs += v.over ? 1 : 0;
      hits += hit ? 1 : 0;
      blocked += reserve_blocked ? 1 : 0;
    } else {
      const util::Bytes payload = k >= 6 && rng.bernoulli(0.7)
                                      ? entropy::synth::bad(rng, 32)
                                      : entropy::synth::good(rng, 32);
      (void)edge.on_packet(id, encode(Packet::data_upload(payload, false)),
                           now);
      if (!bare.should_drop(slot, gate_rng)) {
        const SanityChecker::Outcome outcome = sanity.check(id, payload);
        bare.record_result(slot, outcome.checks_passed);
        if (outcome.accepted) bare.tick();
      }
    }
    // EdgeNode's byte count (its cache_bytes gauge tracks the byte FIFO)
    // against the core's fill.
    ASSERT_EQ(edge.cache().size_bytes(), core.size_bytes());
    ASSERT_EQ(cache_bytes.value(),
              static_cast<std::int64_t>(core.size_bytes()));
    ASSERT_EQ(edge.cache().pending(), core.pending());
    ASSERT_EQ(edge.stats().bytes_delivered, core_delivered);
    ASSERT_EQ(edge_econ.steps(), bare.steps());
    for (std::uint32_t c = 0; c < kClients; ++c) {
      ASSERT_EQ(edge_econ.penalty(kFirstId + c), bare.penalty(Slot{c}))
          << "client " << c;
      ASSERT_EQ(edge_econ.is_blacklisted(kFirstId + c),
                bare.is_blacklisted(Slot{c}));
      ASSERT_EQ(edge_econ.score(kFirstId + c), bare.score(Slot{c}));
    }
  }
  // The stream exercised every rule it compares: each serve outcome, and
  // the policing and penalty rules.
  EXPECT_GT(hits, 0);
  EXPECT_GT(queued_served, 0);
  EXPECT_GT(blocked, 0);
  EXPECT_GT(denials, 0);
  EXPECT_GT(overs, denials);
  std::set<std::uint32_t> blacklisted;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    if (bare.is_blacklisted(Slot{c})) blacklisted.insert(c);
  }
  EXPECT_FALSE(blacklisted.empty());
  EXPECT_EQ(blacklisted.count(0), 0u);
}

// -------------------------------------------------- penalties (Table I)

TEST(PenaltyScheme, TableIValues) {
  const auto base = PenaltyScheme::base();
  EXPECT_EQ(base.points, (std::array<double, 7>{5, 4, 3, 2, 1, 0, -1}));
  const auto loose = PenaltyScheme::loose();
  EXPECT_EQ(loose.points, (std::array<double, 7>{4, 3, 2, 1, 0, -1, -2}));
  const auto strict = PenaltyScheme::strict();
  EXPECT_EQ(strict.points, (std::array<double, 7>{10, 6, 3, 1, 0, -1, -1}));
}

TEST(PenaltyTable, NewDeviceIsTrusted) {
  ClientEconomics table;
  EXPECT_EQ(table.penalty(1), 0.0);
  EXPECT_FALSE(table.is_delinquent(1));
  EXPECT_FALSE(table.is_blacklisted(1));
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(drops(table, 1, rng));
  }
}

TEST(PenaltyTable, BadUploadsAccumulate) {
  ClientEconomics table;
  score_upload(table, 1, 0);  // +5
  score_upload(table, 1, 1);  // +4
  EXPECT_DOUBLE_EQ(table.penalty(1), 9.0);
  score_upload(table, 1, 2);  // +3 -> 12, past drop threshold 10
  EXPECT_TRUE(table.is_delinquent(1));
  EXPECT_FALSE(table.is_blacklisted(1));
}

TEST(PenaltyTable, GoodUploadsRedeem) {
  ClientEconomics table;
  score_upload(table, 1, 0);  // +5
  score_upload(table, 1, 6);  // -1
  EXPECT_DOUBLE_EQ(table.penalty(1), 4.0);
}

TEST(PenaltyTable, ScoreFloorsAtZero) {
  ClientEconomics table;
  score_upload(table, 1, 6);
  score_upload(table, 1, 6);
  EXPECT_DOUBLE_EQ(table.penalty(1), 0.0);
}

TEST(PenaltyTable, Equation2DropPercent) {
  const ClientEconomics table;  // thresh 10, max 35
  EXPECT_DOUBLE_EQ(table.drop_percent(0.0), 0.0);
  EXPECT_DOUBLE_EQ(table.drop_percent(9.99), 0.0);
  EXPECT_DOUBLE_EQ(table.drop_percent(10.0), 0.0);
  EXPECT_DOUBLE_EQ(table.drop_percent(22.5), 0.5);
  EXPECT_DOUBLE_EQ(table.drop_percent(35.0), 1.0);
  EXPECT_DOUBLE_EQ(table.drop_percent(50.0), 1.0);
}

TEST(PenaltyTable, BlacklistAlwaysIgnores) {
  ClientEconomics table;
  for (int i = 0; i < 7; ++i) score_upload(table, 1, 0);  // 7 x +5 = 35
  EXPECT_TRUE(table.is_blacklisted(1));
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(drops(table, 1, rng));
  }
}

TEST(PenaltyTable, DelinquentDropsProportionally) {
  ClientEconomics table;
  // Score 22.5 -> 50 % drop.
  for (int i = 0; i < 4; ++i) score_upload(table, 1, 0);  // 20
  score_upload(table, 1, 3);                              // +2 -> 22
  util::Xoshiro256 rng(3);
  int drop_count = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (drops(table, 1, rng)) ++drop_count;
  }
  EXPECT_NEAR(drop_count / static_cast<double>(trials),
              table.drop_percent(22.0), 0.02);
}

TEST(PenaltyTable, SigmoidCurveShape) {
  PenaltyConfig config;
  config.curve = DropCurve::kSigmoid;
  const ClientEconomics table(config);
  EXPECT_EQ(table.drop_percent(5.0), 0.0);  // below threshold: no drops
  const double mid = table.drop_percent(22.5);
  EXPECT_NEAR(mid, 0.5, 1e-9);
  // At max penalty the sigmoid stays below 1 (no permanent blacklist).
  EXPECT_LT(table.drop_percent(35.0), 1.0);
  EXPECT_GT(table.drop_percent(35.0), 0.95);
  // Monotone.
  double prev = 0.0;
  for (double p = 10.0; p <= 40.0; p += 1.0) {
    const double d = table.drop_percent(p);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(PenaltyTable, SigmoidLeavesSliverAtMaxPenalty) {
  PenaltyConfig config;
  config.curve = DropCurve::kSigmoid;
  ClientEconomics table(config);
  for (int i = 0; i < 7; ++i) score_upload(table, 7, 0);  // exactly 35
  ASSERT_DOUBLE_EQ(table.penalty(7), config.max_penalty);
  util::Xoshiro256 rng(4);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    if (!drops(table, 7, rng)) ++accepted;
  }
  // drop_percent(35) ~ 0.993: roughly 130 of 20000 packets still inspected,
  // so a reformed device can eventually redeem itself (unlike linear).
  EXPECT_GT(accepted, 20);
  EXPECT_LT(accepted, 400);
}

TEST(PenaltyTable, LooseSchemeGentler) {
  PenaltyConfig loose_config;
  loose_config.scheme = PenaltyScheme::loose();
  ClientEconomics loose(loose_config);
  ClientEconomics base;
  for (int i = 0; i < 3; ++i) {
    score_upload(loose, 1, 1);
    score_upload(base, 1, 1);
  }
  EXPECT_LT(loose.penalty(1), base.penalty(1));
}

TEST(PenaltyTable, StrictSchemeHarsher) {
  PenaltyConfig strict_config;
  strict_config.scheme = PenaltyScheme::strict();
  ClientEconomics strict(strict_config);
  score_upload(strict, 1, 0);
  EXPECT_DOUBLE_EQ(strict.penalty(1), 10.0);
  EXPECT_TRUE(strict.is_delinquent(1));
}

TEST(PenaltyTable, DevicesAreIndependent) {
  ClientEconomics table;
  score_upload(table, 1, 0);
  EXPECT_GT(table.penalty(1), 0.0);
  EXPECT_EQ(table.penalty(2), 0.0);
}

TEST(PenaltyTable, RejectsInvalidChecksPassed) {
  ClientEconomics table;
  EXPECT_THROW(score_upload(table, 1, -1), std::out_of_range);
  EXPECT_THROW(score_upload(table, 1, 7), std::out_of_range);
}

TEST(PenaltyTable, RejectsInvalidConfig) {
  PenaltyConfig config;
  config.drop_thresh = 35;
  config.max_penalty = 10;
  EXPECT_THROW(ClientEconomics{config}, std::invalid_argument);
  EXPECT_THROW(ClientEconomics({}, 0.0), std::invalid_argument);
  EXPECT_THROW(ClientEconomics({}, 1.5), std::invalid_argument);
}

// ---- property tests (adversarial economics suite) -------------------------

TEST(PenaltyTableProperty, DropCurvesMonotoneAndBoundedOnAnyConfig) {
  // Both curves, several (thresh, max) geometries: drop_percent must be 0
  // below the threshold, bounded to [0, 1], and monotone nondecreasing —
  // a delinquent device can never LOWER its drop rate by getting worse.
  const double geometries[][2] = {{10, 35}, {5, 20}, {0.5, 3.5}, {10, 11}};
  for (const auto curve : {DropCurve::kLinear, DropCurve::kSigmoid}) {
    for (const auto& g : geometries) {
      PenaltyConfig config;
      config.drop_thresh = g[0];
      config.max_penalty = g[1];
      config.curve = curve;
      const ClientEconomics table(config);
      SCOPED_TRACE((curve == DropCurve::kLinear ? "linear " : "sigmoid ") +
                   std::to_string(g[0]) + ".." + std::to_string(g[1]));

      double prev = 0.0;
      const double span = g[1] - g[0];
      for (int step = -20; step <= 220; ++step) {
        const double p = g[0] + span * (static_cast<double>(step) / 200.0);
        const double d = table.drop_percent(p);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
        if (p < g[0]) {
          EXPECT_EQ(d, 0.0);
        } else {
          EXPECT_GE(d, prev);
          prev = d;
        }
      }
      // Midpoint pins the two curves together; the endpoints tell them
      // apart: linear saturates at a hard 100 %, the sigmoid never does.
      EXPECT_NEAR(table.drop_percent((g[0] + g[1]) / 2.0), 0.5, 1e-9);
      if (curve == DropCurve::kLinear) {
        EXPECT_DOUBLE_EQ(table.drop_percent(g[1]), 1.0);
        EXPECT_DOUBLE_EQ(table.drop_percent(g[1] + span), 1.0);
      } else {
        // 1/(1+e^-5) regardless of geometry (scale = span/10).
        EXPECT_NEAR(table.drop_percent(g[1]), 0.99330714, 1e-6);
        EXPECT_LT(table.drop_percent(g[1] + span), 1.0);
      }
    }
  }
}

TEST(PenaltyTableProperty, ScoreInvariantsHoldUnderRandomSequences) {
  // Seeded random upload outcomes across all three Table I schemes: the
  // score can never go negative, and the delinquent/blacklist predicates
  // always agree with the score against the configured thresholds.
  util::Xoshiro256 rng(0xbadc0de5);
  for (const PenaltyScheme& scheme :
       {PenaltyScheme::base(), PenaltyScheme::loose(),
        PenaltyScheme::strict()}) {
    PenaltyConfig config;
    config.scheme = scheme;
    ClientEconomics table(config);
    SCOPED_TRACE(scheme.name);
    for (int i = 0; i < 5000; ++i) {
      const std::uint32_t device = static_cast<std::uint32_t>(rng.uniform(4));
      score_upload(table, device, static_cast<int>(rng.uniform(7)));
      const double s = table.penalty(device);
      ASSERT_GE(s, 0.0);
      ASSERT_EQ(table.is_delinquent(device), s >= config.drop_thresh);
      ASSERT_EQ(table.is_blacklisted(device), s >= config.max_penalty);
    }
  }
}

TEST(PenaltyTableProperty, LinearBlacklistIsPermanentUnderProtocol) {
  // Under the protocol discipline (a packet is only scored if the
  // pre-inspection gate let it through), the linear curve's blacklist is
  // forever: every later packet is dropped before it can redeem points,
  // even a perfect one.
  ClientEconomics table;
  for (int i = 0; i < 7; ++i) score_upload(table, 9, 0);  // 7 x +5 = 35
  ASSERT_TRUE(table.is_blacklisted(9));
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 5000; ++i) {
    if (!drops(table, 9, rng)) score_upload(table, 9, 6);
  }
  EXPECT_TRUE(table.is_blacklisted(9));
  EXPECT_DOUBLE_EQ(table.penalty(9), 35.0);
}

TEST(PenaltyTableProperty, SigmoidAllowsEventualRedemptionUnderProtocol) {
  // Same discipline under the sigmoid curve: the ~0.7 % acceptance sliver
  // at max penalty lets a genuinely reformed device claw its way back
  // below the drop threshold, which the linear curve forbids.
  PenaltyConfig config;
  config.curve = DropCurve::kSigmoid;
  ClientEconomics table(config);
  for (int i = 0; i < 7; ++i) score_upload(table, 9, 0);
  ASSERT_TRUE(table.is_blacklisted(9));
  util::Xoshiro256 rng(12);
  int attempts = 0;
  const int kAttemptBound = 200000;  // ~25 accepted-and-redeemed needed
  while (table.is_delinquent(9) && attempts < kAttemptBound) {
    ++attempts;
    if (!drops(table, 9, rng)) score_upload(table, 9, 6);
  }
  EXPECT_FALSE(table.is_delinquent(9))
      << "still delinquent after " << attempts << " perfect uploads";
  EXPECT_LT(table.penalty(9), config.drop_thresh);
}

}  // namespace
}  // namespace cadet
