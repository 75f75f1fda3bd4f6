#include "cadet/edge_node.h"

#include <gtest/gtest.h>

#include "cadet/server_node.h"
#include "engine_harness.h"
#include "entropy/sources.h"
#include "util/rng.h"

namespace cadet {
namespace {

EdgeNode::Config edge_config(std::size_t num_clients = 4) {
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 55;
  config.num_clients = num_clients;
  return config;
}

util::Bytes upload_from_client(util::Xoshiro256& rng, std::size_t n = 32) {
  return encode(Packet::data_upload(entropy::synth::good(rng, n), false));
}

TEST(EdgeNode, AcceptedUploadsAccumulateUntilForwardThreshold) {
  auto config = edge_config();
  config.upload_forward_bytes = 64;
  EdgeNode edge(config);
  util::Xoshiro256 rng(1);

  // 32-byte uploads: the first should not forward, the second should.
  auto out = edge.on_packet(1000, upload_from_client(rng), 0);
  EXPECT_TRUE(out.empty());
  out = edge.on_packet(1000, upload_from_client(rng), 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1u);
  const auto bulk = decode(out[0].data);
  ASSERT_TRUE(bulk.has_value());
  EXPECT_TRUE(bulk->header.dat);
  EXPECT_TRUE(bulk->header.edge_server);
  EXPECT_EQ(bulk->payload.size(), 64u);
  EXPECT_EQ(edge.stats().bulk_uploads_sent, 1u);
}

TEST(EdgeNode, BadUploadRejectedAndPenalized) {
  EdgeNode edge(edge_config());
  util::Xoshiro256 rng(2);
  const auto bad = encode(
      Packet::data_upload(entropy::synth::biased(rng, 32, 0.85), false));
  (void)edge.on_packet(1000, bad, 0);
  EXPECT_EQ(edge.stats().uploads_rejected_sanity, 1u);
  EXPECT_GT(edge.economics().penalty(1000), 2.0);
}

TEST(EdgeNode, BlacklistedClientIgnoredBeforeInspection) {
  EdgeNode edge(edge_config());
  util::Xoshiro256 rng(3);
  // Drive the client to blacklist with patterned garbage (penalty-gate
  // drops along the way slow the climb, hence the generous iteration cap).
  for (int i = 0; i < 60; ++i) {
    (void)edge.on_packet(
        1000, encode(Packet::data_upload(entropy::synth::patterned(32), false)),
        0);
  }
  ASSERT_TRUE(edge.economics().is_blacklisted(1000));
  const auto before = edge.stats().uploads_dropped_penalty;
  (void)edge.on_packet(1000, upload_from_client(rng), 0);
  EXPECT_EQ(edge.stats().uploads_dropped_penalty, before + 1);
}

TEST(EdgeNode, RequestMissOnColdCacheForwardsToServer) {
  EdgeNode edge(edge_config());
  const auto out =
      edge.on_packet(1000, encode(Packet::data_request(512, false)), 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1u);
  const auto fwd = decode(out[0].data);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_TRUE(fwd->header.req);
  EXPECT_TRUE(fwd->header.edge_server);
  EXPECT_EQ(edge.stats().cache_misses, 1u);
}

TEST(EdgeNode, ServerDeliveryFillsCacheAndAnswersPending) {
  EdgeNode edge(edge_config());
  util::Xoshiro256 rng(4);
  (void)edge.on_packet(1000, encode(Packet::data_request(512, false)), 0);

  const auto delivery =
      Packet::data_ack(entropy::synth::good(rng, 2048), true, false);
  const auto out = edge.on_packet(1, encode(delivery), 0);
  ASSERT_GE(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1000u);
  const auto reply = decode(out[0].data);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->header.ack);
  EXPECT_EQ(reply->payload.size(), 64u);  // 512 bits
  EXPECT_GT(edge.cache().size_bytes(), 0u);
}

TEST(EdgeNode, WarmCacheHitsLocally) {
  EdgeNode edge(edge_config());
  util::Xoshiro256 rng(5);
  // Warm up via a server delivery with nothing pending.
  (void)edge.on_packet(
      1, encode(Packet::data_ack(entropy::synth::good(rng, 2048), true, false)),
      0);
  const auto out =
      edge.on_packet(1000, encode(Packet::data_request(256, false)), 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1000u);  // direct reply, no server round trip
  EXPECT_EQ(edge.stats().cache_hits, 1u);
}

TEST(EdgeNode, ServesOldestSurvivingBytesInArrivalOrder) {
  // An unregistered edge takes plaintext grants and answers in plaintext,
  // so the served bytes can be read back.
  EdgeNode edge(edge_config(/*num_clients=*/2));  // capacity 1024, reserve 256
  util::Xoshiro256 rng(7);
  const util::Bytes first = rng.bytes(700);
  const util::Bytes second = rng.bytes(400);
  (void)edge.on_packet(1, encode(Packet::data_ack(first, true, false)), 0);
  (void)edge.on_packet(1, encode(Packet::data_ack(second, true, false)), 0);
  // 1,100 bytes landed in a 1,024-byte cache: the oldest 76 were evicted.
  ASSERT_EQ(edge.cache().size_bytes(), 1024u);
  const auto served = [&](net::NodeId client, std::uint16_t bits) {
    util::Bytes payload;
    for (const auto& o : edge.on_packet(
             client, encode(Packet::data_request(bits, false)), 0)) {
      const auto packet = decode(o.data);
      if (o.to == client && packet) payload = packet->payload;
    }
    return payload;
  };
  // 768 bytes (capacity minus reserve): what survives of the first grant,
  // then the head of the second.
  util::Bytes expected(first.begin() + 76, first.end());
  expected.insert(expected.end(), second.begin(), second.begin() + 144);
  EXPECT_EQ(served(1000, 768 * 8), expected);
  // The next request continues where that one stopped.
  EXPECT_EQ(served(1001, 128 * 8),
            util::Bytes(second.begin() + 144, second.begin() + 272));
  EXPECT_EQ(edge.stats().cache_hits, 2u);
  EXPECT_EQ(edge.cache().size_bytes(), 128u);
}

TEST(EdgeNode, ZeroBitRequestIsDropped) {
  // A request for zero bits asks for nothing. It is dropped before it is
  // counted or scored, so it takes no serve outcome and cannot sit at the
  // head of the queue where no refill could ever answer it.
  EdgeNode edge(edge_config());
  EXPECT_TRUE(
      edge.on_packet(1000, encode(Packet::data_request(0, false)), 0).empty());
  EXPECT_EQ(edge.stats().requests_received, 0u);
  EXPECT_EQ(edge.stats().cache_misses, 0u);
  EXPECT_EQ(edge.economics().steps(), 0u);
  EXPECT_EQ(edge.cache().pending(), 0u);
  // A real request on the cold cache queues and the next grant answers it.
  (void)edge.on_packet(1001, encode(Packet::data_request(512, false)), 0);
  ASSERT_EQ(edge.cache().pending(), 1u);
  util::Xoshiro256 rng(8);
  const auto out = edge.on_packet(
      1, encode(Packet::data_ack(rng.bytes(2048), true, false)), 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].to, 1001u);
  EXPECT_EQ(edge.cache().pending(), 0u);
}

TEST(EdgeNode, RefillRequestedBelowQuarterCapacity) {
  EdgeNode edge(edge_config(/*num_clients=*/2));  // capacity 1024
  util::Xoshiro256 rng(6);
  (void)edge.on_packet(
      1, encode(Packet::data_ack(entropy::synth::good(rng, 1024), true, false)),
      0);
  // Drain to just above threshold (256): take 256 bytes -> 768 left.
  auto out = edge.on_packet(1000, encode(Packet::data_request(2048, false)), 0);
  ASSERT_EQ(out.size(), 1u);  // reply only, no refill yet
  // Drain past the threshold: 768 - 520 = 248 < 256.
  out = edge.on_packet(1000, encode(Packet::data_request(4160, false)), 0);
  bool refill_seen = false;
  for (const auto& o : out) {
    const auto p = decode(o.data);
    if (p && p->header.req && p->header.edge_server) refill_seen = true;
  }
  EXPECT_TRUE(refill_seen);
}

TEST(EdgeNode, UsageScoreRecordedPerRequest) {
  EdgeNode edge(edge_config());
  (void)edge.on_packet(1000, encode(Packet::data_request(512, false)), 0);
  EXPECT_DOUBLE_EQ(edge.economics().score(1000), 64.0);
  (void)edge.on_packet(1001, encode(Packet::data_request(256, false)), 0);
  EXPECT_DOUBLE_EQ(edge.economics().score(1001), 32.0);
  EXPECT_NEAR(edge.economics().score(1000), 64.0 * kUsageDecay, 1e-9);
}

TEST(EdgeNode, HeavyUserBlockedFromReserve) {
  EdgeNode edge(edge_config(/*num_clients=*/2));  // cap 1024, reserve 256
  util::Xoshiro256 rng(7);
  (void)edge.on_packet(
      1, encode(Packet::data_ack(entropy::synth::good(rng, 1024), true, false)),
      0);

  // Make client 2000 heavy relative to peers: quiet history first, then a
  // sustained burst.
  ClientEconomics& econ = edge.economics();
  for (int i = 0; i < 200; ++i) {
    econ.record(econ.slot(1001), 8.0);
    econ.record(econ.slot(1002), 8.0);
    econ.record(econ.slot(2000), 8.0);
  }
  for (int i = 0; i < 50; ++i) {
    econ.record(econ.slot(1001), 8.0);
    econ.record(econ.slot(1002), 8.0);
    econ.record(econ.slot(2000), 800.0);
  }
  ASSERT_TRUE(edge.economics().is_heavy(2000));

  // Drain the open portion with regular clients: 1024 -> 272 bytes.
  for (int i = 0; i < 2; ++i) {
    (void)edge.on_packet(1001, encode(Packet::data_request(3008, false)), 0);
  }
  ASSERT_LE(edge.cache().size_bytes(), 300u);

  // The heavy user's modest request would dip into the reserve: blocked
  // from it (queued for the next refill, not served locally).
  const auto before_hits = edge.stats().cache_hits;
  (void)edge.on_packet(2000, encode(Packet::data_request(512, false)), 0);
  EXPECT_EQ(edge.stats().cache_hits, before_hits);
  EXPECT_GE(edge.stats().heavy_rejections, 1u);
  EXPECT_EQ(edge.heavy_denials(2000), 0u);

  // Sustained over-line requests at flooding rate escalate from
  // reserve-blocking to full denial: once the strike limit and the
  // arrival-rate window (all these arrivals share one instant — a burst)
  // are both satisfied, requests are refused outright, no longer queued.
  const int flood = static_cast<int>(kUsageHeavyDenyWindow) +
                    kUsageHeavyStrikeLimit;
  for (int i = 0; i < flood && edge.heavy_denials(2000) == 0; ++i) {
    (void)edge.on_packet(2000, encode(Packet::data_request(512, false)), 0);
  }
  ASSERT_GE(edge.heavy_denials(2000), 1u);
  const auto before_pending = edge.cache().pending();
  (void)edge.on_packet(2000, encode(Packet::data_request(512, false)), 0);
  EXPECT_EQ(edge.stats().cache_hits, before_hits);
  EXPECT_EQ(edge.cache().pending(), before_pending);

  // A regular user still gets served from the reserve.
  const auto out =
      edge.on_packet(1002, encode(Packet::data_request(512, false)), 0);
  bool served = false;
  for (const auto& o : out) {
    if (o.to == 1002) served = true;
  }
  EXPECT_TRUE(served);
}

TEST(EdgeNode, EdgeRegistrationHandshake) {
  EdgeNode edge(edge_config());
  ServerNode::Config sc;
  sc.id = 1;
  sc.seed = 9;
  ServerNode server(sc);
  test::EnginePump pump;
  pump.attach(edge);
  pump.attach(server);

  bool complete = false;
  auto out = edge.begin_edge_reg(0, [&](util::SimTime) { complete = true; });
  pump.pump(std::move(out), edge.id());
  EXPECT_TRUE(complete);
  EXPECT_TRUE(edge.registered());
  EXPECT_TRUE(server.edge_registered(edge.id()));
}

TEST(EdgeNode, ReregForwardRequiresRegistration) {
  EdgeNode edge(edge_config());
  util::Bytes payload(36, 0xab);
  const auto out = edge.on_packet(
      1000,
      encode(Packet::registration(RegSubtype::kReregReq, payload, true, false,
                                  true, false)),
      0);
  EXPECT_TRUE(out.empty());  // no esk yet -> dropped
}

TEST(EdgeNode, SanityChecksCanBeDisabled) {
  auto config = edge_config();
  config.sanity_checks_enabled = false;
  EdgeNode edge(config);
  (void)edge.on_packet(
      1000, encode(Packet::data_upload(entropy::synth::patterned(32), false)),
      0);
  EXPECT_EQ(edge.stats().uploads_rejected_sanity, 0u);
  EXPECT_EQ(edge.stats().uploads_accepted, 1u);
}

// Adversary-harness finding (decay-clock attack): any attacker-reachable
// gate that ticked the usage clock let a garbage or retransmit flood
// compress every honest score toward zero until honest double-fires
// crossed the shrunken heavy threshold. Gated packets are "not
// processed" — they must not advance the clock.
TEST(EdgeNode, GatedPacketsDoNotAdvanceUsageClock) {
  EdgeNode edge(edge_config());
  util::Xoshiro256 rng(11);
  // Malformed bytes die at the decode gate.
  auto steps = edge.economics().steps();
  (void)edge.on_packet(1000, util::Bytes{0xff, 0xff}, 0);
  EXPECT_EQ(edge.economics().steps(), steps);
  // A duplicated packet (sequenced retransmission) dies at the replay
  // gate. seq 0 would bypass dedup, so stamp one explicitly.
  Packet req = Packet::data_request(512, false);
  req.header.seq = 7;
  const auto wire_req = encode(req);
  (void)edge.on_packet(1000, wire_req, 0);
  steps = edge.economics().steps();
  (void)edge.on_packet(1000, wire_req, 0);
  EXPECT_EQ(edge.economics().steps(), steps);
  EXPECT_EQ(edge.stats().dupes_dropped, 1u);
  // A sanity-rejected upload dies at the sanity gate.
  const auto bad =
      encode(Packet::data_upload(entropy::synth::biased(rng, 32, 0.85), false));
  steps = edge.economics().steps();
  (void)edge.on_packet(1001, bad, 0);
  ASSERT_EQ(edge.stats().uploads_rejected_sanity, 1u);
  EXPECT_EQ(edge.economics().steps(), steps);
}

// The flip side: accepted work does advance the clock, so scores still
// decay at the edge's organic packet rate.
TEST(EdgeNode, AcceptedUploadAdvancesUsageClock) {
  EdgeNode edge(edge_config());
  util::Xoshiro256 rng(12);
  const auto steps = edge.economics().steps();
  (void)edge.on_packet(1000, upload_from_client(rng), 0);
  EXPECT_EQ(edge.economics().steps(), steps + 1);
}

}  // namespace
}  // namespace cadet
