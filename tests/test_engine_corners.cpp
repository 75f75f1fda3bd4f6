// Corner cases across the engines: registration window expiry, sealed
// delivery to reregistered clients, upload buffer boundaries, quality-
// check quarantine, direct (no-edge) client traffic, and cost metering.
#include <gtest/gtest.h>

#include "cadet/cadet.h"
#include "engine_harness.h"
#include "entropy/sources.h"
#include "util/rng.h"

namespace cadet {
namespace {

struct Trio {
  ServerNode server;
  EdgeNode edge;
  ClientNode client;
  test::EnginePump pump;

  explicit Trio(std::uint64_t seed)
      : server(server_config(seed)),
        edge(edge_config(seed)),
        client(client_config(seed)) {
    pump.attach(server);
    pump.attach(edge);
    pump.attach(client);
  }

  static ServerNode::Config server_config(std::uint64_t seed) {
    ServerNode::Config c;
    c.id = 1;
    c.seed = seed;
    return c;
  }
  static EdgeNode::Config edge_config(std::uint64_t seed) {
    EdgeNode::Config c;
    c.id = 100;
    c.server = 1;
    c.seed = seed + 1;
    c.num_clients = 2;
    return c;
  }
  static ClientNode::Config client_config(std::uint64_t seed) {
    ClientNode::Config c;
    c.id = 1000;
    c.edge = 100;
    c.server = 1;
    c.seed = seed + 2;
    return c;
  }
};

TEST(RegistrationWindow, StaleTokenHashRejected) {
  Trio t(11);
  t.pump.pump(t.edge.begin_edge_reg(0), t.edge.id());
  t.pump.pump(t.client.begin_init(0), t.client.id());
  ASSERT_TRUE(t.client.initialized());

  // Craft the rereg at time T, but deliver it when the server's clock has
  // moved two full token windows ahead: both accepted windows miss.
  const util::SimTime craft_time = 10 * util::kSecond;
  auto rereg = t.client.begin_rereg(craft_time);
  const util::SimTime delivery_time = craft_time + 3 * kTokenWindow;
  t.pump.pump(std::move(rereg), t.client.id(), delivery_time);
  EXPECT_FALSE(t.client.reregistered());

  // A fresh attempt at the delivery time works (previous-window grace).
  auto retry = t.client.begin_rereg(delivery_time);
  t.pump.pump(std::move(retry), t.client.id(), delivery_time);
  EXPECT_TRUE(t.client.reregistered());
}

TEST(RegistrationWindow, PreviousWindowGraceAccepted) {
  Trio t(12);
  t.pump.pump(t.edge.begin_edge_reg(0), t.edge.id());
  t.pump.pump(t.client.begin_init(0), t.client.id());

  // Crafted just before a window boundary, delivered just after it.
  const util::SimTime craft_time = kTokenWindow - util::kSecond;
  auto rereg = t.client.begin_rereg(craft_time);
  t.pump.pump(std::move(rereg), t.client.id(),
              kTokenWindow + util::kSecond);
  EXPECT_TRUE(t.client.reregistered());
}

TEST(EdgeNode, ReregisteredClientGetsSealedDelivery) {
  Trio t(13);
  util::Xoshiro256 rng(14);
  t.server.seed_pool(rng.bytes(4096));
  t.pump.pump(t.edge.begin_edge_reg(0), t.edge.id());
  t.pump.pump(t.client.begin_init(0), t.client.id());
  t.pump.pump(t.client.begin_rereg(0), t.client.id());
  ASSERT_TRUE(t.client.reregistered());

  // Warm the cache through the real path (a registered edge rejects
  // plaintext deliveries, so hand-feeding it unsealed data cannot work —
  // by design). The first request's refill overfills the cache.
  t.pump.pump(t.client.request_entropy(256, 0), t.client.id());
  ASSERT_GT(t.edge.cache().size_bytes(), 64u);

  std::size_t delivered = 0;
  auto out = t.client.request_entropy(
      256, 0, [&](util::BytesView data, util::SimTime) {
        delivered = data.size();
      });
  // Inspect the edge's reply on the wire before the client decodes it.
  auto edge_out = t.edge.on_packet(t.client.id(), out[0].data, 0);
  ASSERT_EQ(edge_out.size(), 1u);
  const auto wire = decode(edge_out[0].data);
  ASSERT_TRUE(wire.has_value());
  EXPECT_TRUE(wire->header.encrypted);
  EXPECT_EQ(wire->payload.size(), 32u + kSealOverhead);
  (void)t.client.on_packet(t.edge.id(), edge_out[0].data, 0);
  EXPECT_EQ(delivered, 32u);
}

TEST(EdgeNode, UploadBufferExactBoundary) {
  auto config = Trio::edge_config(15);
  config.upload_forward_bytes = 96;
  // Buffer mechanics are the subject here; keep the statistical gate out.
  config.sanity_checks_enabled = false;
  EdgeNode edge(config);
  util::Xoshiro256 rng(16);
  // 3 x 32 = exactly 96: forwards on the third upload, buffer drains fully.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(edge.on_packet(1000,
                               encode(Packet::data_upload(
                                   entropy::synth::good(rng, 32), false)),
                               0)
                    .empty());
  }
  const auto out = edge.on_packet(
      1000,
      encode(Packet::data_upload(entropy::synth::good(rng, 32), false)), 0);
  ASSERT_EQ(out.size(), 1u);
  const auto bulk = decode(out[0].data);
  ASSERT_TRUE(bulk.has_value());
  EXPECT_EQ(bulk->payload.size(), 96u);
  // Next upload starts a fresh buffer.
  EXPECT_TRUE(edge.on_packet(1000,
                             encode(Packet::data_upload(
                                 entropy::synth::good(rng, 32), false)),
                             0)
                  .empty());
}

TEST(ServerNode, QualityFailureQuarantinesPoolHead) {
  ServerNode::Config config = Trio::server_config(17);
  config.quality_check_interval_bytes = 0;
  config.quality_check_bits = 4096;
  ServerNode server(config);
  // Seed the pool with grossly biased data, bypassing the sanity gate
  // (seed_pool models locally-loaded data, which is exactly where an
  // operator mistake would enter).
  util::Xoshiro256 rng(18);
  server.seed_pool(entropy::synth::biased(rng, 1024, 0.9));
  const std::size_t before = server.pool().size();
  const auto verdict = server.run_quality_check();
  EXPECT_FALSE(verdict.all_passed());
  EXPECT_EQ(server.stats().quality_checks_failed, 1u);
  EXPECT_LT(server.pool().size(), before);  // head segment dropped
}

TEST(ServerNode, DirectClientTrafficWithoutEdge) {
  // No-edge deployments: the client's "edge" is the server itself.
  ServerNode server(Trio::server_config(19));
  util::Xoshiro256 rng(20);
  server.seed_pool(rng.bytes(1024));

  ClientNode::Config cc;
  cc.id = 1000;
  cc.edge = 1;  // server plays the edge role
  cc.server = 1;
  cc.seed = 21;
  ClientNode client(cc);

  test::EnginePump pump;
  pump.attach(server);
  pump.attach(client);

  // Upload straight to the server.
  pump.pump(client.upload_entropy(entropy::synth::good(rng, 64), 0),
            client.id());
  EXPECT_EQ(server.stats().uploads_received, 1u);

  // Request straight from the server.
  bool got = false;
  pump.pump(client.request_entropy(
                512, 0,
                [&](util::BytesView data, util::SimTime) {
                  got = data.size() == 64;
                }),
            client.id());
  EXPECT_TRUE(got);
}

TEST(CostMetering, EveryEngineChargesPacketWork) {
  Trio t(22);
  (void)t.client.cost().take();
  (void)t.edge.cost().take();
  (void)t.server.cost().take();

  util::Xoshiro256 rng(23);
  auto upload = t.client.upload_entropy(entropy::synth::good(rng, 32), 0);
  EXPECT_GT(t.client.cost().pending(), 0.0);
  (void)t.edge.on_packet(t.client.id(), upload[0].data, 0);
  // Edge charged both the processing and the sanity battery.
  EXPECT_GE(t.edge.cost().pending(),
            cost::kProcessPacket + cost::kSanityPerByte * 32);
  (void)t.server.on_packet(
      t.edge.id(),
      encode(Packet::data_upload(entropy::synth::good(rng, 128), true)), 0);
  EXPECT_GT(t.server.cost().pending(), 0.0);
}

TEST(EdgeNode, OversizedRequestClampedToServableSize) {
  // The 16-bit field allows 8 kB asks; a 2-client edge cache holds 1 kB.
  // The request must be clamped to what the tier can ever serve, not
  // queued forever.
  Trio t(26);
  util::Xoshiro256 rng(27);
  t.server.seed_pool(rng.bytes(1 << 16));
  t.pump.pump(t.edge.begin_edge_reg(0), t.edge.id());

  bool got = false;
  std::size_t got_bytes = 0;
  t.pump.pump(t.client.request_entropy(
                  0xffff, 0,
                  [&](util::BytesView data, util::SimTime) {
                    got = true;
                    got_bytes = data.size();
                  }),
              t.client.id());
  EXPECT_TRUE(got);
  EXPECT_GT(got_bytes, 0u);
  EXPECT_LE(got_bytes, t.edge.cache().capacity_bytes());
}

TEST(EdgeNode, StalePendingEntriesSwept) {
  auto config = Trio::edge_config(28);
  EdgeNode edge(config);
  // Cold cache, no server reply ever: requests queue...
  (void)edge.on_packet(1000, encode(Packet::data_request(512, false)), 0);
  (void)edge.on_packet(1001, encode(Packet::data_request(512, false)),
                       util::from_seconds(1));
  // ...then a delivery far past the pending timeout serves only live
  // entries (none), and the stale ones are gone rather than consuming it.
  util::Xoshiro256 rng(29);
  EdgeNode::Config sc;
  const auto out = edge.on_packet(
      1, encode(Packet::data_ack(rng.bytes(256), true, false)),
      util::from_seconds(30));
  (void)sc;
  EXPECT_TRUE(out.empty());  // nobody left to serve
  EXPECT_EQ(edge.cache().size_bytes(), 256u);  // data kept for the future
}

TEST(UsageTracking, UploadsDoNotCountAsUsage) {
  Trio t(24);
  util::Xoshiro256 rng(25);
  for (int i = 0; i < 10; ++i) {
    (void)t.edge.on_packet(
        t.client.id(),
        encode(Packet::data_upload(entropy::synth::good(rng, 32), false)),
        0);
  }
  // Contributions must not make a device "heavy" (only requests do).
  EXPECT_DOUBLE_EQ(t.edge.economics().score(t.client.id()), 0.0);
}

}  // namespace
}  // namespace cadet
