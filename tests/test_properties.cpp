// Property-style sweeps (parameterized gtest) over the core invariants:
// codec round-trips at every size, seal/open inverses, pool conservation,
// penalty monotonicity for every scheme x curve, cache accounting for any
// client count, and statistical-test sanity across input scales.
#include <gtest/gtest.h>

#include <ostream>

#include "cadet/cadet.h"
#include "entropy/pool.h"
#include "entropy/sources.h"
#include "nist/tests.h"
#include "util/bitview.h"
#include "util/rng.h"

namespace cadet {
namespace {

// ------------------------------------------------------------ wire codec

class PacketPayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PacketPayloadSizes, UploadRoundTripsAtEverySize) {
  util::Xoshiro256 rng(GetParam() + 1);
  const auto payload = rng.bytes(GetParam());
  for (const bool edge_server : {false, true}) {
    const auto decoded =
        decode(encode(Packet::data_upload(payload, edge_server)));
    ASSERT_TRUE(decoded.has_value()) << GetParam();
    EXPECT_EQ(decoded->payload, payload);
    EXPECT_EQ(decoded->header.argument, GetParam());
    EXPECT_EQ(decoded->header.edge_server, edge_server);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PacketPayloadSizes,
                         ::testing::Values(0u, 1u, 4u, 32u, 64u, 255u, 256u,
                                           1024u, 65535u));

// ----------------------------------------------------------------- seal

class SealSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SealSizes, OpenInvertsSeal) {
  crypto::Csprng rng(GetParam() + 99);
  util::Xoshiro256 data_rng(GetParam() + 7);
  const util::Bytes key = data_rng.bytes(32);
  const auto plaintext = data_rng.bytes(GetParam());
  const auto sealed = seal(key, plaintext, rng);
  EXPECT_EQ(sealed.size(), GetParam() + kSealOverhead);
  const auto opened = open(key, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST_P(SealSizes, SingleBitFlipAlwaysDetected) {
  crypto::Csprng rng(GetParam() + 5);
  util::Xoshiro256 data_rng(GetParam() + 3);
  const util::Bytes key = data_rng.bytes(32);
  auto sealed = seal(key, data_rng.bytes(GetParam()), rng);
  // Flip one bit at a handful of positions across the buffer.
  for (const std::size_t pos :
       {std::size_t{0}, sealed.size() / 3, sealed.size() / 2,
        sealed.size() - 1}) {
    auto tampered = sealed;
    tampered[pos] ^= 0x40;
    EXPECT_FALSE(open(key, tampered).has_value()) << "pos " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SealSizes,
                         ::testing::Values(0u, 1u, 8u, 64u, 512u, 4096u));

// ----------------------------------------------------------------- pool

class PoolCapacities : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolCapacities, CreditNeverExceedsCapacity) {
  entropy::EntropyPool pool(GetParam());
  util::Xoshiro256 rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    pool.add(rng.bytes(rng.uniform(64) + 1), rng.uniform(4096));
    ASSERT_LE(pool.available_bits(), GetParam());
  }
}

TEST_P(PoolCapacities, ExtractionConservesCredit) {
  entropy::EntropyPool pool(GetParam());
  util::Xoshiro256 rng(GetParam() + 1);
  pool.add(rng.bytes(64), GetParam());
  std::size_t total_out = 0;
  while (pool.available_bits() >= 8) {
    const std::size_t before = pool.available_bits();
    const auto chunk = pool.extract(rng.uniform(16) + 1);
    total_out += chunk.size();
    ASSERT_EQ(pool.available_bits(), before - chunk.size() * 8);
  }
  EXPECT_EQ(total_out, GetParam() / 8);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PoolCapacities,
                         ::testing::Values(256u, 1024u, 4096u, 65536u));

// -------------------------------------------------------------- penalty

struct PenaltyCase {
  PenaltyScheme scheme;
  DropCurve curve;
};

// Test names carry the printed parameter. Without these PrintTo overloads
// gtest prints raw struct bytes (a string pointer, padding), so names
// changed from run to run.
void PrintTo(const PenaltyCase& c, std::ostream* os) {
  *os << c.scheme.name
      << (c.curve == DropCurve::kLinear ? ", linear" : ", sigmoid");
}

class PenaltySweep : public ::testing::TestWithParam<PenaltyCase> {};

TEST_P(PenaltySweep, DropPercentIsMonotoneAndBounded) {
  PenaltyConfig config;
  config.scheme = GetParam().scheme;
  config.curve = GetParam().curve;
  const ClientEconomics table(config);
  double prev = -1.0;
  for (double p = 0.0; p <= 60.0; p += 0.5) {
    const double d = table.drop_percent(p);
    ASSERT_GE(d, 0.0);
    ASSERT_LE(d, 1.0);
    ASSERT_GE(d, prev - 1e-12) << "not monotone at " << p;
    prev = d;
  }
  EXPECT_DOUBLE_EQ(table.drop_percent(0.0), 0.0);
}

TEST_P(PenaltySweep, ScoreNeverNegative) {
  PenaltyConfig config;
  config.scheme = GetParam().scheme;
  config.curve = GetParam().curve;
  ClientEconomics table(config);
  const ClientEconomics::Slot device = table.slot(1);
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    table.record_result(device, static_cast<int>(rng.uniform(7)));
    ASSERT_GE(table.penalty(device), 0.0);
  }
}

TEST_P(PenaltySweep, WorseUploadsNeverScoreBetter) {
  // Table I rows are non-increasing in checks passed for every scheme.
  const auto& points = GetParam().scheme.points;
  for (std::size_t k = 1; k < points.size(); ++k) {
    EXPECT_LE(points[k], points[k - 1]) << GetParam().scheme.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndCurves, PenaltySweep,
    ::testing::Values(PenaltyCase{PenaltyScheme::base(), DropCurve::kLinear},
                      PenaltyCase{PenaltyScheme::loose(), DropCurve::kLinear},
                      PenaltyCase{PenaltyScheme::strict(), DropCurve::kLinear},
                      PenaltyCase{PenaltyScheme::base(), DropCurve::kSigmoid},
                      PenaltyCase{PenaltyScheme::strict(),
                                  DropCurve::kSigmoid}));

// ----------------------------------------------------------------- cache

class CacheClientCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheClientCounts, AccountingInvariants) {
  EdgeCache<int> cache(GetParam());
  EXPECT_EQ(cache.capacity_bytes(), GetParam() * kClientBufferBits / 8);
  EXPECT_LE(cache.reserve_bytes(), cache.capacity_bytes());
  util::Xoshiro256 rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    cache.insert(rng.uniform(512) + 1);
    ASSERT_LE(cache.size_bytes(), cache.capacity_bytes());
    const std::size_t want = rng.uniform(256) + 1;
    const bool heavy = rng.bernoulli(0.3);
    const std::size_t before = cache.size_bytes();
    const std::size_t queued = cache.pending();
    if (cache.serve(want, heavy, i, 0).serve != EdgeCache<int>::Serve::kHit) {
      ASSERT_EQ(cache.size_bytes(), before);  // failed take leaves intact
      ASSERT_EQ(cache.pending(), queued + 1);
    } else {
      ASSERT_EQ(cache.size_bytes(), before - want);
      if (heavy) {
        ASSERT_GE(cache.size_bytes(), cache.reserve_bytes());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, CacheClientCounts,
                         ::testing::Values(1u, 2u, 4u, 11u, 32u));

// -------------------------------------------------------------- usage

class UsageDecays : public ::testing::TestWithParam<double> {};

TEST_P(UsageDecays, SteadyStateMatchesGeometricSeries) {
  ClientEconomics table({}, GetParam());
  const ClientEconomics::Slot device = table.slot(1);
  for (int i = 0; i < 5000; ++i) table.record(device, 10.0);
  EXPECT_NEAR(table.score(device), 10.0 / (1.0 - GetParam()),
              0.01 * 10.0 / (1.0 - GetParam()));
}

TEST_P(UsageDecays, ScoreIsNonNegativeAndDecaysToZero) {
  ClientEconomics table({}, GetParam());
  const ClientEconomics::Slot device = table.slot(1);
  table.record(device, 100.0);
  for (int i = 0; i < 2000; ++i) {
    table.tick();
    ASSERT_GE(table.score(device), 0.0);
  }
  EXPECT_LT(table.score(device), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Decays, UsageDecays,
                         ::testing::Values(0.5, 0.9, 0.96, 0.99));

// ---------------------------------------------------------- NIST sweeps

struct BiasCase {
  double bias;
  bool should_pass_frequency;
};

void PrintTo(const BiasCase& c, std::ostream* os) {
  *os << "bias " << c.bias
      << (c.should_pass_frequency ? ", passes" : ", fails");
}

class FrequencyBias : public ::testing::TestWithParam<BiasCase> {};

TEST_P(FrequencyBias, DetectsBiasAboveResolution) {
  // At 4096 bits the frequency test resolves biases of a few percent.
  util::Xoshiro256 rng(77);
  int passes = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const auto data = entropy::synth::biased(rng, 512, GetParam().bias);
    if (nist::frequency_test(util::BitView(data)).pass) ++passes;
  }
  if (GetParam().should_pass_frequency) {
    EXPECT_GE(passes, trials - 3);
  } else {
    EXPECT_LE(passes, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Biases, FrequencyBias,
                         ::testing::Values(BiasCase{0.50, true},
                                           BiasCase{0.51, true},
                                           BiasCase{0.60, false},
                                           BiasCase{0.70, false},
                                           BiasCase{0.30, false}));

class NistInputSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NistInputSizes, PValuesAlwaysInUnitInterval) {
  util::Xoshiro256 rng(GetParam());
  const auto data = rng.bytes(GetParam());
  const util::BitView bits(data);
  std::vector<nist::TestResult> results;
  results.push_back(nist::frequency_test(bits));
  results.push_back(nist::runs_test(bits));
  results.push_back(nist::cusum_test(bits, nist::CusumMode::Forward));
  results.push_back(nist::cusum_test(bits, nist::CusumMode::Reverse));
  if (GetParam() * 8 >= 128) {
    results.push_back(nist::longest_run_test(bits));
  }
  results.push_back(nist::approximate_entropy_test(bits, 2));
  for (const auto& r : results) {
    EXPECT_GE(r.p_value, 0.0) << r.name;
    EXPECT_LE(r.p_value, 1.0) << r.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NistInputSizes,
                         ::testing::Values(4u, 16u, 32u, 64u, 256u, 1024u,
                                           6250u));

// ----------------------------------------------------------- x25519

class X25519Seeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(X25519Seeds, DiffieHellmanCommutes) {
  crypto::Csprng rng(GetParam());
  const auto a = make_keypair(rng);
  const auto b = make_keypair(rng);
  const auto ab = a.shared_secret(b.public_key);
  const auto ba = b.shared_secret(a.public_key);
  EXPECT_EQ(ab, ba);
  // The shared secret is not either public key, and not all-zero.
  EXPECT_NE(ab, a.public_key);
  EXPECT_NE(ab, b.public_key);
  crypto::X25519Key zero{};
  EXPECT_NE(ab, zero);
}

INSTANTIATE_TEST_SUITE_P(Seeds, X25519Seeds,
                         ::testing::Values(1u, 2u, 3u, 10u, 100u, 1000u,
                                           0xdeadbeefu));

}  // namespace
}  // namespace cadet
