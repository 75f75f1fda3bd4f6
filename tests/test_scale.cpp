// Sharded-world tests: struct-of-arrays client engine and shard economics, the
// windowed conservative execution's determinism across executors, the
// protocol conservation invariants, and the bytes/client budget that
// justifies the SoA refactor (docs/PERFORMANCE.md "Sharded worlds").
#include "testbed/scale.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string_view>
#include <vector>

#include "cadet/client_engine.h"
#include "cadet/config.h"
#include "cadet/economics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/task_pool.h"

namespace cadet::testbed {
namespace {

ScaleWorld::Executor pool_executor(util::TaskPool& pool) {
  return [&pool](std::size_t count,
                 const std::function<void(std::size_t)>& task) {
    pool.run(count, task);
  };
}

void expect_stats_eq(const ScaleStats& a, const ScaleStats& b) {
  EXPECT_EQ(a.requests_sent, b.requests_sent);
  EXPECT_EQ(a.local_serves, b.local_serves);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.fulfilled, b.fulfilled);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.requests_received, b.requests_received);
  EXPECT_EQ(a.heavy_denied, b.heavy_denied);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.reserve_blocked, b.reserve_blocked);
  EXPECT_EQ(a.uploads_accepted, b.uploads_accepted);
  EXPECT_EQ(a.uploads_dropped_penalty, b.uploads_dropped_penalty);
  EXPECT_EQ(a.uploads_rejected_sanity, b.uploads_rejected_sanity);
  EXPECT_EQ(a.blacklisted_clients, b.blacklisted_clients);
  EXPECT_EQ(a.refills_requested, b.refills_requested);
  EXPECT_EQ(a.refills_completed, b.refills_completed);
  EXPECT_EQ(a.server_grant_bytes, b.server_grant_bytes);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
}

/// The terminal request invariant: every wire request resolves exactly
/// once, the boundary conserves every crossing event, and no entropy is
/// delivered twice.
void expect_conservation(const ScaleWorld& world) {
  const ScaleStats stats = world.stats();
  EXPECT_EQ(stats.requests_sent,
            stats.fulfilled + stats.fallback + stats.expired);
  // Entropy ledger: every byte a client receives left an edge cache, which
  // holds only its initial fill and what the server granted.
  const ScaleConfig& config = world.config();
  const double initial_fill =
      static_cast<double>(config.num_clients * (kClientBufferBits / 8)) *
      std::clamp(config.initial_cache_fill, 0.0, 1.0);
  EXPECT_LE(static_cast<double>(stats.bytes_delivered),
            initial_fill + static_cast<double>(stats.server_grant_bytes));
  EXPECT_EQ(world.boundary_emitted(), world.boundary_injected());
  // Refill protocol: every request reaches the server (the boundary is
  // reliable), every grant lands or dies in a crash window.
  EXPECT_EQ(stats.refills_requested + stats.refill_reissues,
            stats.server_grants);
  EXPECT_EQ(stats.server_grants,
            stats.refills_completed + stats.crash_dropped_refills);
  // Every request a live edge handles ends in exactly one serve decision.
  EXPECT_EQ(stats.requests_received,
            stats.heavy_denied + stats.cache_hits + stats.cache_misses);
  // Upload ledger (blacklist drops are a part of the penalty drops).
  EXPECT_EQ(stats.uploads_sent,
            stats.uploads_accepted + stats.uploads_dropped_penalty +
                stats.uploads_rejected_sanity + stats.wire_dropped_uploads +
                stats.crash_dropped_uploads);
  EXPECT_LE(stats.blacklist_drops, stats.uploads_dropped_penalty);
}

// ------------------------------------------------------------ ClientEngine

// The shard-side economics: one ClientEconomics slot per ClientEngine
// index, driven the way ScaleWorld drives it.

TEST(ClientEngine, LazyUsageDecayMatchesExplicit) {
  ClientEconomics econ({}, kUsageDecay, 4);
  const ClientEconomics::Slot slot{0};
  econ.record(slot, 100.0);
  for (int step = 0; step < 25; ++step) econ.tick();
  // 25 steps later the score is 100 * decay^25, though no tick touched it.
  const double expected = 100.0 * std::pow(kUsageDecay, 25.0);
  EXPECT_NEAR(econ.score(slot), expected, 1e-12 * expected);
  // The next record decays once more, then adds.
  econ.record(slot, 50.0);
  EXPECT_NEAR(econ.score(slot), expected * kUsageDecay + 50.0, 1e-12 * 50.0);
  EXPECT_EQ(econ.score(ClientEconomics::Slot{1}), 0.0);
}

TEST(ClientEngine, PoolCursorAndPendingSlot) {
  ClientEngine::Config config;
  config.seed = 3;
  config.count = 2;
  config.pool_capacity_bits = 1024;
  ClientEngine engine(config);
  EXPECT_FALSE(engine.pool_consume(0, 512));  // starts empty
  engine.pool_credit(0, 4096);                // clamps to capacity
  EXPECT_EQ(engine.pool_bits(0), 1024u);
  EXPECT_TRUE(engine.pool_consume(0, 512));
  EXPECT_EQ(engine.pool_bits(0), 512u);

  const std::uint16_t id = engine.issue_request(0, 256);
  EXPECT_TRUE(engine.request_pending(0));
  EXPECT_TRUE(engine.pending_matches(0, id));
  EXPECT_FALSE(engine.pending_matches(0, static_cast<std::uint16_t>(id + 1)));
  EXPECT_FALSE(engine.request_pending(1));  // neighbours unaffected
  engine.complete_request(0, 256);
  EXPECT_FALSE(engine.request_pending(0));
  EXPECT_EQ(engine.pool_bits(0), 768u);
}

TEST(ClientEngine, PenaltyClampsAndBlacklists) {
  ClientEconomics econ({}, kUsageDecay, 1);
  const ClientEconomics::Slot slot{0};
  econ.record_result(slot, 0);                              // +5
  for (int i = 0; i < 6; ++i) econ.record_result(slot, 6);  // floors at zero
  EXPECT_DOUBLE_EQ(econ.penalty(slot), 0.0);
  EXPECT_FALSE(econ.is_blacklisted(slot));
  // A bad uploader scores Table I Base's 0-of-6 row: blacklisted at 7.
  for (int i = 0; i < 7; ++i) econ.record_result(slot, 0);
  EXPECT_DOUBLE_EQ(econ.penalty(slot), kMaxPenalty);
  EXPECT_TRUE(econ.is_blacklisted(slot));
  util::Xoshiro256 rng(9);
  EXPECT_TRUE(econ.should_drop(slot, rng));
}

TEST(ClientEngine, HeavyScanFlagsTheOutlier) {
  ClientEconomics econ({}, kUsageDecay, 64);
  // Population hums at ~10; client 7 runs 100x that.
  for (std::uint32_t i = 0; i < 64; ++i) {
    econ.record(ClientEconomics::Slot{i}, i == 7 ? 1000.0 : 10.0);
  }
  const auto heavy_count = [&econ] {
    std::uint32_t heavy = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
      heavy += econ.over(ClientEconomics::Slot{i}) ? 1 : 0;
    }
    return heavy;
  };
  EXPECT_EQ(heavy_count(), 0u);  // no scan yet: nobody is over
  econ.refresh_line();
  EXPECT_EQ(heavy_count(), 1u);
  EXPECT_TRUE(econ.over(ClientEconomics::Slot{7}));
  EXPECT_FALSE(econ.over(ClientEconomics::Slot{6}));
  // Client 7 goes quiet while the others keep asking: once it has decayed
  // back into the cohort, the next scan clears it.
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      if (i != 7) econ.record(ClientEconomics::Slot{i}, 10.0);
    }
  }
  EXPECT_TRUE(econ.over(ClientEconomics::Slot{7}));  // until the next scan
  econ.refresh_line();
  EXPECT_EQ(heavy_count(), 0u);
}

TEST(ClientEngine, ColdStateIsDeterministicPerSeed) {
  ClientEngine::Config config;
  config.seed = 1234;
  config.count = 8;
  ClientEngine a(config);
  ClientEngine b(config);
  for (std::uint32_t i = 0; i < 8; ++i) {
    for (std::size_t k = 0; k < ClientEngine::kColdBytes; ++k) {
      ASSERT_EQ(a.cold(i)[k], b.cold(i)[k]);
    }
  }
  config.seed = 1235;
  ClientEngine c(config);
  bool differs = false;
  for (std::size_t k = 0; k < ClientEngine::kColdBytes; ++k) {
    differs = differs || a.cold(0)[k] != c.cold(0)[k];
  }
  EXPECT_TRUE(differs);
}

// -------------------------------------------------------------- ScaleWorld

ScaleConfig small_config() {
  ScaleConfig config;
  config.seed = 42;
  config.num_clients = 4000;
  config.clients_per_edge = 500;  // 8 edge shards + the server shard
  config.duration_s = 3.0;
  config.drop_prob = 0.02;
  config.flooder_fraction = 0.005;
  config.bad_uploader_fraction = 0.1;
  return config;
}

TEST(ScaleWorld, SameSeedTracesAreExecutorIndependent) {
  const ScaleConfig config = small_config();
  ScaleWorld sequential(config);
  sequential.run();

  util::TaskPool pool4(4);
  ScaleWorld pooled(config);
  pooled.run(pool_executor(pool4));

  util::TaskPool pool2(2);
  ScaleWorld pooled2(config);
  pooled2.run(pool_executor(pool2));

  util::TaskPool pool3(3);  // an odd worker count (the 2 and 4 splits of
                            // the 9 shards are the uneven ones)
  ScaleWorld pooled3(config);
  pooled3.run(pool_executor(pool3));

  EXPECT_EQ(sequential.checksum(), pooled.checksum());
  EXPECT_EQ(sequential.checksum(), pooled2.checksum());
  EXPECT_EQ(sequential.checksum(), pooled3.checksum());
  EXPECT_EQ(sequential.events_executed(), pooled.events_executed());
  EXPECT_EQ(sequential.events_executed(), pooled2.events_executed());
  EXPECT_EQ(sequential.events_executed(), pooled3.events_executed());
  expect_stats_eq(sequential.stats(), pooled.stats());
  expect_stats_eq(sequential.stats(), pooled2.stats());
  expect_stats_eq(sequential.stats(), pooled3.stats());
}

TEST(ScaleWorld, DifferentSeedsDiverge) {
  ScaleConfig config = small_config();
  ScaleWorld a(config);
  a.run();
  config.seed = 43;
  ScaleWorld b(config);
  b.run();
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(ScaleWorld, RequestAndBoundaryConservation) {
  const ScaleConfig config = small_config();
  ScaleWorld world(config);
  world.run();
  const ScaleStats stats = world.stats();
  EXPECT_GT(stats.requests_sent, 0u);
  EXPECT_GT(stats.fulfilled, 0u);
  EXPECT_GT(stats.local_serves, 0u);
  EXPECT_GT(stats.wire_dropped_requests, 0u);  // drop_prob did something
  expect_conservation(world);
}

TEST(ScaleWorld, FloodersGetHeavyDenied) {
  ScaleConfig config = small_config();
  config.drop_prob = 0.0;
  config.flooder_fraction = 0.01;
  config.duration_s = 6.0;  // past several scan periods
  ScaleWorld world(config);
  world.run();
  const ScaleStats stats = world.stats();
  EXPECT_GT(stats.heavy_scan_flags, 0u);
  EXPECT_GT(stats.heavy_denied, 0u);
  // Policing must not collapse honest service: wire requests still mostly
  // fulfill (denials land on the flooders' requests).
  EXPECT_GT(stats.fulfilled * 10, stats.requests_sent * 8);
  expect_conservation(world);
}

TEST(ScaleWorld, HonestPopulationIsNeverDenied) {
  // Without flooders the scans still flag the momentarily busiest honest
  // clients, but nobody at 0.25 Hz clears the arrival-rate floor, so
  // strikes never escalate to denial.
  ScaleConfig config = small_config();
  config.flooder_fraction = 0.0;
  config.request_rate_hz = 0.25;
  config.duration_s = 6.0;
  ScaleWorld world(config);
  world.run();
  const ScaleStats stats = world.stats();
  EXPECT_GT(stats.requests_sent, 0u);
  EXPECT_EQ(stats.heavy_denied, 0u);
  expect_conservation(world);
}

TEST(ScaleWorld, BadUploadersAreBlacklisted) {
  ScaleConfig config = small_config();
  config.drop_prob = 0.0;
  config.flooder_fraction = 0.0;
  config.producer_fraction = 1.0;
  config.bad_uploader_fraction = 0.25;
  config.upload_rate_hz = 2.0;  // enough strikes inside the run
  config.duration_s = 6.0;
  ScaleWorld world(config);
  world.run();
  const ScaleStats stats = world.stats();
  EXPECT_GT(stats.blacklisted_clients, 0u);
  EXPECT_GT(stats.blacklist_drops, 0u);
  EXPECT_GT(stats.uploads_accepted, 0u);  // honest producers unharmed
  expect_conservation(world);
}

TEST(ScaleWorld, DeliveredEntropyComesFromFillAndGrants) {
  // Uploads are the only entropy here: empty caches and a 1 B/s server
  // source. An accepted upload reaches a client only through the server
  // pool and a refill, so the ledger in expect_conservation bites.
  ScaleConfig config = small_config();
  config.duration_s = 10.0;
  config.initial_cache_fill = 0.0;
  config.source_rate_bytes_per_s = 1.0;
  config.producer_fraction = 1.0;
  config.upload_rate_hz = 1.0;
  ScaleWorld world(config);
  world.run();
  EXPECT_GT(world.stats().bytes_delivered, 0u);
  expect_conservation(world);
}

TEST(ScaleWorld, CacheMissIsQueuedNotFailed) {
  // Empty caches, no loss, no flooders: early requests miss, wait behind
  // the refill and are served. A miss costs a round trip, not a fallback
  // (Fig. 8a, Fig. 10a-b). At 8 clients per edge Eq. 1's heavy line judges
  // honest clients fairly, so no request is kept off the reserve (at
  // hundreds per edge it does not: docs/ADVERSARIES.md, "Residual risk").
  ScaleConfig config = small_config();
  config.num_clients = 800;
  config.clients_per_edge = 8;
  config.initial_cache_fill = 0.0;
  config.drop_prob = 0.0;
  config.flooder_fraction = 0.0;
  // The default source is sized to steady demand, not to filling every
  // cache from empty: in this run it grants 72 kB of the 410 kB the caches
  // hold, and 338 of 427 requests fall back for want of entropy. One full
  // fill per second (two in the starting pool) separates a queued miss
  // from a starved one.
  config.source_rate_bytes_per_s =
      static_cast<double>(config.num_clients * (kClientBufferBits / 8));
  ScaleWorld world(config);
  world.run();
  const ScaleStats stats = world.stats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_EQ(stats.reserve_blocked, 0u);
  EXPECT_EQ(stats.fallback + stats.expired, 0u);
  expect_conservation(world);
}

TEST(ScaleWorld, RetransmittedRequestIsHandledOnce) {
  // Lost replies make clients retransmit requests the edge already
  // handled. The edge drops each such retransmission before it is scored
  // or queued, so it handles every wire request at most once and its usage
  // clock ticks once per handled request (nobody here is denied).
  ScaleConfig config = small_config();
  config.drop_prob = 0.2;
  config.flooder_fraction = 0.0;
  ScaleWorld world(config);
  world.run();
  const ScaleStats stats = world.stats();
  ASSERT_GT(stats.wire_dropped_replies, 0u);
  ASSERT_EQ(stats.heavy_denied, 0u);
  EXPECT_LE(stats.requests_received, stats.requests_sent);
  std::uint64_t steps = 0;
  for (std::size_t s = 0; s < world.num_edges(); ++s) {
    steps += world.edge_economics(s).steps();
  }
  EXPECT_EQ(steps, stats.requests_received + stats.uploads_accepted +
                       stats.refills_completed);
  expect_conservation(world);
}

TEST(ScaleWorld, LosslessRunRunsNoDeadTimers) {
  // No loss, full caches, no flooders: every request is answered within a
  // millisecond, so no retransmission timer ever needs to fire, and one
  // that was scheduled anyway would pop and do nothing.
  ScaleConfig config = small_config();
  config.drop_prob = 0.0;
  config.flooder_fraction = 0.0;
  config.initial_cache_fill = 1.0;
  ScaleWorld world(config);
  const std::uint64_t events = world.run();
  const ScaleStats stats = world.stats();
  ASSERT_GT(stats.requests_sent, 1000u);
  ASSERT_EQ(stats.retried, 0u);
  ASSERT_EQ(stats.fulfilled, stats.requests_sent);
  // The protocol's own events: request and upload ticks, the requests and
  // uploads reaching the edge, the replies, the heavy scans, the server's
  // source ticks, and one per boundary crossing (refill requests, refill
  // data, upload forwards).
  const auto periods = [&config](double period_s) {
    return static_cast<std::uint64_t>(config.duration_s / period_s);
  };
  const std::uint64_t protocol =
      stats.requests_sent + stats.local_serves + stats.uploads_sent +
      stats.requests_sent + stats.uploads_sent + stats.fulfilled +
      world.num_edges() * periods(2.0) + periods(0.5) +
      world.boundary_injected();
  ASSERT_GE(events, protocol);
  // What is left is ticks that found a request in flight: far fewer than
  // the one idle timer event per wire request that arming every retry
  // timer in the simulator would add.
  EXPECT_LT(events - protocol, stats.requests_sent / 2);
}

TEST(ScaleWorld, RetryChainMatchesTheEngines) {
  // Every datagram is lost, so each request rides the whole chain: it
  // retransmits about 1, 3 and 7 s after it was issued and falls back at
  // about 15 s, as the engines' timer chain does
  // (ClientNode.RetryChainFallsBackAfterFifteenSeconds), although the
  // world holds each timer outside the simulator until its window.
  ScaleConfig config = small_config();
  config.num_clients = 2000;
  config.duration_s = 2.0;
  config.drop_prob = 1.0;
  config.flooder_fraction = 0.0;
  obs::MemorySink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.enable(true);
  ScaleWorld world(config);
  world.set_tracer(&tracer);
  world.enable_tracing(true);
  // Every timer fires in the window it falls due in, so each barrier folds
  // only events at or past the previous window's end.
  std::size_t checked = 0;
  util::SimTime window_start = 0;
  world.set_window_hook([&](const ScaleWorld::WindowReport& report) {
    for (; checked < sink.events().size(); ++checked) {
      ASSERT_GE(sink.events()[checked].ts, window_start) << checked;
    }
    window_start = report.watermark;
  });
  world.run();

  const ScaleStats stats = world.stats();
  ASSERT_GT(stats.requests_sent, 10u);
  EXPECT_EQ(stats.fallback, stats.requests_sent);
  EXPECT_EQ(stats.retried, kMaxRequestRetries * stats.requests_sent);
  // Each chain's client events in order: the request, its retransmissions
  // and the fallback.
  std::map<std::uint64_t, std::vector<util::SimTime>> chains;
  for (const obs::TraceEvent& event : sink.events()) {
    const std::string_view name = event.name;
    if (std::string_view(event.tier) == "client" &&
        (name == "request" || name == "request_retry" ||
         name == "fallback")) {
      chains[event.trace].push_back(event.ts);
    }
  }
  ASSERT_EQ(chains.size(), stats.requests_sent);
  for (const auto& [trace, times] : chains) {
    ASSERT_EQ(times.size(), kMaxRequestRetries + 2) << trace;
    // Wait k is kRequestRetryBaseNs * 2^k with ±10 % jitter, to the
    // nanosecond: a timer fired late or early would stretch or shrink one.
    for (std::size_t k = 0; k + 1 < times.size(); ++k) {
      const util::SimTime wait = times[k + 1] - times[k];
      const util::SimTime nominal = kRequestRetryBaseNs << k;
      EXPECT_GE(wait, nominal / 10 * 9) << trace << " wait " << k;
      EXPECT_LT(wait, nominal / 10 * 11) << trace << " wait " << k;
    }
  }
}

TEST(ScaleWorld, CrashWindowsLoseNoAccountedEvents) {
  ScaleConfig config = small_config();
  config.drop_prob = 0.0;
  // Partition-aligned crash windows: multiples of the boundary window so
  // a crash edge never splits a window (the alignment the merge queue's
  // conservation argument assumes).
  ScaleWorld probe(config);
  const util::SimTime w = probe.window();
  config.crashes.push_back({0, 50 * w, 150 * w});
  config.crashes.push_back({3, 100 * w, 250 * w});
  ScaleWorld world(config);
  world.run();
  const ScaleStats stats = world.stats();
  EXPECT_GT(stats.crash_dropped_requests, 0u);
  expect_conservation(world);
}

TEST(ScaleWorld, SoAFootprintStaysUnderBudget) {
  ScaleConfig config;
  config.seed = 7;
  config.num_clients = 50'000;
  config.clients_per_edge = 1024;
  config.duration_s = 2.0;
  ScaleWorld world(config);
  world.run();
  const double per_client = static_cast<double>(world.memory_bytes()) /
                            static_cast<double>(world.num_clients());
  // The committed BENCH_7 gate is 512 B/client; the order-of-magnitude
  // claim vs the per-node ClientNode graph (multiple KB) rides on it.
  EXPECT_LT(per_client, 512.0);
  EXPECT_GT(world.events_executed(), 0u);
}

TEST(ScaleWorld, PartitionIsTopologyNotWorkerCount) {
  ScaleConfig config = small_config();
  ScaleWorld world(config);
  EXPECT_EQ(world.num_edges(), 8u);
  EXPECT_EQ(world.num_shards(), 9u);  // + the server shard
  EXPECT_EQ(world.num_clients(), 4000u);
  EXPECT_GT(world.window(), 0);
}

}  // namespace
}  // namespace cadet::testbed
