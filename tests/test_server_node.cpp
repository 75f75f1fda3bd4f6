#include "cadet/server_node.h"

#include <gtest/gtest.h>

#include "cadet/client_node.h"
#include "cadet/edge_node.h"
#include "cadet/seal.h"
#include "engine_harness.h"
#include "entropy/sources.h"
#include "util/rng.h"

namespace cadet {
namespace {

ServerNode::Config server_config() {
  ServerNode::Config config;
  config.id = 1;
  config.seed = 99;
  return config;
}

TEST(ServerNode, UploadIsMixedIntoPool) {
  ServerNode server(server_config());
  util::Xoshiro256 rng(1);
  const auto upload =
      Packet::data_upload(entropy::synth::good(rng, 256), true);
  (void)server.on_packet(100, encode(upload), 0);
  EXPECT_EQ(server.stats().uploads_received, 1u);
  EXPECT_EQ(server.stats().bytes_mixed, 256u);
  EXPECT_GT(server.pool().size(), 0u);
}

TEST(ServerNode, BadBulkUploadRejected) {
  ServerNode server(server_config());
  util::Xoshiro256 rng(2);
  const auto upload =
      Packet::data_upload(entropy::synth::biased(rng, 256, 0.8), true);
  (void)server.on_packet(100, encode(upload), 0);
  EXPECT_EQ(server.stats().uploads_rejected_sanity, 1u);
  EXPECT_EQ(server.pool().size(), 0u);
  EXPECT_GT(server.economics().penalty(100), 0.0);
}

TEST(ServerNode, RequestServedFromPool) {
  ServerNode server(server_config());
  util::Xoshiro256 rng(3);
  server.seed_pool(rng.bytes(1024));
  const auto out =
      server.on_packet(100, encode(Packet::data_request(512, true)), 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 100u);
  const auto reply = decode(out[0].data);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->header.ack);
  EXPECT_FALSE(reply->header.encrypted);  // edge not registered
  EXPECT_EQ(reply->payload.size(), 64u);
  EXPECT_EQ(server.pool().size(), 1024u - 64u);
}

TEST(ServerNode, ShortPoolServesPartial) {
  ServerNode server(server_config());
  util::Xoshiro256 rng(4);
  server.seed_pool(rng.bytes(10));
  const auto out =
      server.on_packet(100, encode(Packet::data_request(512, true)), 0);
  ASSERT_EQ(out.size(), 1u);
  const auto reply = decode(out[0].data);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload.size(), 10u);
  EXPECT_EQ(server.stats().requests_short, 1u);
}

TEST(ServerNode, RegisteredEdgeGetsSealedDelivery) {
  ServerNode server(server_config());
  EdgeNode::Config ec;
  ec.id = 100;
  ec.server = 1;
  ec.seed = 5;
  EdgeNode edge(ec);
  test::EnginePump pump;
  pump.attach(server);
  pump.attach(edge);
  pump.pump(edge.begin_edge_reg(0), edge.id());
  ASSERT_TRUE(edge.registered());

  util::Xoshiro256 rng(6);
  server.seed_pool(rng.bytes(1024));
  const auto out =
      server.on_packet(100, encode(Packet::data_request(512, true)), 0);
  ASSERT_EQ(out.size(), 1u);
  const auto reply = decode(out[0].data);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->header.encrypted);
  EXPECT_EQ(reply->payload.size(), 64u + kSealOverhead);

  // The edge can open it and fill its cache.
  (void)edge.on_packet(1, out[0].data, 0);
  EXPECT_EQ(edge.cache().size_bytes(), 64u);
}

TEST(ServerNode, FullReregistrationFlow) {
  ServerNode server(server_config());
  EdgeNode::Config ec;
  ec.id = 100;
  ec.server = 1;
  ec.seed = 7;
  EdgeNode edge(ec);
  ClientNode::Config cc;
  cc.id = 1000;
  cc.edge = 100;
  cc.server = 1;
  cc.seed = 8;
  ClientNode client(cc);

  test::EnginePump pump;
  pump.attach(server);
  pump.attach(edge);
  pump.attach(client);

  pump.pump(edge.begin_edge_reg(0), edge.id());
  pump.pump(client.begin_init(0), client.id());
  ASSERT_TRUE(client.initialized());

  bool rereg_done = false;
  pump.pump(client.begin_rereg(util::from_seconds(10),
                               [&](util::SimTime) { rereg_done = true; }),
            client.id(), util::from_seconds(10));
  EXPECT_TRUE(rereg_done);
  EXPECT_TRUE(client.reregistered());
}

TEST(ServerNode, ReregWithBogusTokenRejected) {
  ServerNode server(server_config());
  EdgeNode::Config ec;
  ec.id = 100;
  ec.server = 1;
  ec.seed = 9;
  EdgeNode edge(ec);
  ClientNode::Config cc;
  cc.id = 1000;
  cc.edge = 100;
  cc.server = 1;
  cc.seed = 10;
  ClientNode client(cc);

  test::EnginePump pump;
  pump.attach(server);
  pump.attach(edge);
  pump.attach(client);
  pump.pump(edge.begin_edge_reg(0), edge.id());
  pump.pump(client.begin_init(0), client.id());

  // Forge a rereg with a wrong token hash via the edge.
  util::Bytes payload(4);
  util::put_u32_be(payload.data(), 1000);
  payload.insert(payload.end(), 32, 0xee);
  bool done = false;
  (void)done;
  pump.pump({{100, encode(Packet::registration(RegSubtype::kReregReq,
                                               payload, true, false, true,
                                               false))}},
            client.id());
  EXPECT_FALSE(client.reregistered());
}

TEST(ServerNode, ReregForUnknownClientRejected) {
  ServerNode server(server_config());
  EdgeNode::Config ec;
  ec.id = 100;
  ec.server = 1;
  ec.seed = 11;
  EdgeNode edge(ec);
  test::EnginePump pump;
  pump.attach(server);
  pump.attach(edge);
  pump.pump(edge.begin_edge_reg(0), edge.id());

  util::Bytes payload(4);
  util::put_u32_be(payload.data(), 4242);  // never initialized
  payload.insert(payload.end(), 32, 0x11);
  pump.pump({{100, encode(Packet::registration(RegSubtype::kReregReq,
                                               payload, true, false, true,
                                               false))}},
            4242);
  // Server must not mint a key for the unknown client.
  EXPECT_FALSE(server.client_known(4242));
}

TEST(ServerNode, PoolExchangeMovesDataBetweenServers) {
  ServerNode::Config ca = server_config();
  ServerNode::Config cb = server_config();
  cb.id = 2;
  cb.seed = 123;
  ServerNode a(ca), b(cb);
  util::Xoshiro256 rng(12);
  a.seed_pool(rng.bytes(1024));

  test::EnginePump pump;
  pump.attach(a);
  pump.attach(b);
  pump.pump(a.begin_pool_exchange(2, 256), a.id());
  EXPECT_EQ(a.pool().size(), 1024u - 256u);
  EXPECT_GT(b.pool().size(), 0u);
  EXPECT_EQ(a.stats().pool_exchanges, 1u);
}

TEST(ServerNode, QualityCheckRunsAndPasses) {
  ServerNode::Config config = server_config();
  config.quality_check_interval_bytes = 0;  // manual only
  config.quality_check_bits = 20000;
  ServerNode server(config);
  util::Xoshiro256 rng(13);
  for (int i = 0; i < 200; ++i) {
    (void)server.on_packet(
        100, encode(Packet::data_upload(entropy::synth::good(rng, 64), true)),
        0);
  }
  const auto result = server.run_quality_check();
  EXPECT_EQ(server.stats().quality_checks_run, 1u);
  EXPECT_GE(result.passed(), 6);
  EXPECT_EQ(server.stats().quality_checks_failed, 0u);
}

TEST(ServerNode, PeriodicQualityCheckTriggers) {
  ServerNode::Config config = server_config();
  config.quality_check_interval_bytes = 4096;
  config.quality_check_bits = 8192;
  ServerNode server(config);
  util::Xoshiro256 rng(14);
  for (int i = 0; i < 100; ++i) {
    (void)server.on_packet(
        100, encode(Packet::data_upload(entropy::synth::good(rng, 64), true)),
        0);
  }
  EXPECT_GE(server.stats().quality_checks_run, 1u);
}

TEST(ServerNode, MalformedPacketIgnored) {
  ServerNode server(server_config());
  EXPECT_TRUE(server.on_packet(100, util::Bytes{9}, 0).empty());
}

TEST(ServerNode, ForgedRegistrationConfirmRejected) {
  ServerNode server(server_config());
  util::Xoshiro256 rng(15);
  crypto::Csprng csprng(std::uint64_t{16});
  const auto kp = make_keypair(csprng);
  const Nonce n = csprng.array<8>();
  (void)server.on_packet(
      100,
      encode(Packet::registration(RegSubtype::kEdgeRegReq,
                                  encode_reg_request(kp.public_key, n), true,
                                  false, false, true)),
      0);
  // Confirm with garbage instead of E(n+2, esk).
  (void)server.on_packet(
      100,
      encode(Packet::registration(RegSubtype::kEdgeRegAck, rng.bytes(36),
                                  false, true, false, true, true)),
      0);
  EXPECT_FALSE(server.edge_registered(100));
}

}  // namespace
}  // namespace cadet
