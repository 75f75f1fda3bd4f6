// End-to-end (untrusted-edge) delivery mode: the paper's §VIII scenario
// where the edge (e.g. coffee-shop Wi-Fi) cannot be trusted, so entropy is
// sealed under the client-server key and merely relayed by the edge.
#include <gtest/gtest.h>

#include "cadet/client_node.h"
#include "cadet/edge_node.h"
#include "cadet/seal.h"
#include "cadet/server_node.h"
#include "engine_harness.h"
#include "util/rng.h"

namespace cadet {
namespace {

struct E2eWorld {
  ServerNode server;
  EdgeNode edge;
  ClientNode client;
  test::EnginePump pump;

  E2eWorld()
      : server(make_server()), edge(make_edge()), client(make_client()) {
    pump.attach(server);
    pump.attach(edge);
    pump.attach(client);
    util::Xoshiro256 rng(7);
    server.seed_pool(rng.bytes(4096));
    pump.pump(edge.begin_edge_reg(0), edge.id());
    pump.pump(client.begin_init(0), client.id());
  }

  static ServerNode::Config make_server() {
    ServerNode::Config c;
    c.id = 1;
    c.seed = 1001;
    return c;
  }
  static EdgeNode::Config make_edge() {
    EdgeNode::Config c;
    c.id = 100;
    c.server = 1;
    c.seed = 1002;
    c.num_clients = 2;
    return c;
  }
  static ClientNode::Config make_client() {
    ClientNode::Config c;
    c.id = 1000;
    c.edge = 100;
    c.server = 1;
    c.seed = 1003;
    return c;
  }
};

TEST(EndToEnd, PacketCodecRoundTrip) {
  const Packet req = Packet::data_request_e2e(512, false, 1000);
  const auto decoded = decode(encode(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->header.end_to_end);
  EXPECT_TRUE(decoded->header.encrypted);
  EXPECT_EQ(util::get_u32_be(decoded->payload.data()), 1000u);

  const Packet ack = Packet::data_ack_e2e({1, 2, 3}, true);
  const auto decoded_ack = decode(encode(ack));
  ASSERT_TRUE(decoded_ack.has_value());
  EXPECT_TRUE(decoded_ack->header.end_to_end);
  EXPECT_TRUE(decoded_ack->header.ack);
}

TEST(EndToEnd, CodecRejectsMalformed) {
  // e2e flag without ENC is invalid.
  auto wire = encode(Packet::data_request_e2e(512, false, 1000));
  wire[1] &= static_cast<std::uint8_t>(~0x02);  // clear ENC
  EXPECT_FALSE(decode(wire).has_value());
  // e2e request without the client id payload is invalid.
  auto req = Packet::data_request_e2e(512, false, 1000);
  req.payload.clear();
  EXPECT_FALSE(decode(encode(req)).has_value());
  // variable-arguments byte above 1 on a DAT packet is invalid.
  auto wire2 = encode(Packet::data_request(512, false));
  wire2[4] = 2;
  EXPECT_FALSE(decode(wire2).has_value());
}

TEST(EndToEnd, FullRoundTripDeliversSealedEntropy) {
  E2eWorld world;
  util::Bytes delivered;
  auto out = world.client.request_entropy(
      512, 0,
      [&](util::BytesView data, util::SimTime) {
        delivered.assign(data.begin(), data.end());
      },
      /*end_to_end=*/true);
  world.pump.pump(std::move(out), world.client.id());
  EXPECT_EQ(delivered.size(), 64u);
  EXPECT_EQ(world.edge.stats().e2e_forwarded, 1u);
  // The edge cache was never touched.
  EXPECT_EQ(world.edge.stats().cache_hits, 0u);
  EXPECT_EQ(world.edge.cache().size_bytes(), 0u);
}

TEST(EndToEnd, RequiresInitialization) {
  ClientNode client(E2eWorld::make_client());
  const auto out = client.request_entropy(512, 0, {}, /*end_to_end=*/true);
  EXPECT_TRUE(out.empty());
}

TEST(EndToEnd, EdgeCannotReadDelivery) {
  E2eWorld world;
  // Capture what the server sends for an e2e request.
  const auto replies = world.server.on_packet(
      world.edge.id(),
      encode(Packet::data_request_e2e(512, true, world.client.id())), 0);
  ASSERT_EQ(replies.size(), 1u);
  const auto packet = decode(replies[0].data);
  ASSERT_TRUE(packet.has_value());
  ASSERT_TRUE(packet->header.end_to_end);
  // Strip the routing id; what remains is sealed. The edge's only secret is
  // esk — opening with it must fail.
  const util::Bytes sealed(packet->payload.begin() + 4,
                           packet->payload.end());
  // Probe with a few hundred guessed keys, standing in for anything the
  // edge could derive.
  for (std::uint64_t guess = 0; guess < 200; ++guess) {
    crypto::Csprng rng(guess);
    const auto key = rng.array<32>();
    EXPECT_FALSE(open(key, sealed).has_value());
  }
}

TEST(EndToEnd, UnknownClientGetsNothing) {
  E2eWorld world;
  const auto replies = world.server.on_packet(
      world.edge.id(), encode(Packet::data_request_e2e(512, true, 4242)), 0);
  EXPECT_TRUE(replies.empty());
}

TEST(EndToEnd, MixedModeRequestsMatchCorrectly) {
  E2eWorld world;
  // Warm the cache so standard requests hit locally.
  util::Xoshiro256 rng(9);
  (void)world.edge.on_packet(
      1, encode(Packet::data_ack(rng.bytes(1024), true, false)), 0);

  int standard_done = 0, e2e_done = 0;
  auto out1 = world.client.request_entropy(
      256, 0,
      [&](util::BytesView, util::SimTime) { ++standard_done; }, false);
  auto out2 = world.client.request_entropy(
      256, 0, [&](util::BytesView, util::SimTime) { ++e2e_done; }, true);
  world.pump.pump(std::move(out1), world.client.id());
  world.pump.pump(std::move(out2), world.client.id());
  EXPECT_EQ(standard_done, 1);
  EXPECT_EQ(e2e_done, 1);
}

TEST(EndToEnd, UsageScoreStillTracksE2eRequests) {
  E2eWorld world;
  auto out = world.client.request_entropy(2048, 0, {}, true);
  world.pump.pump(std::move(out), world.client.id());
  // 256 bytes recorded at the request, decayed once when the edge relayed
  // the server's reply (every processed packet is a decay step).
  EXPECT_DOUBLE_EQ(world.edge.economics().score(world.client.id()),
                   256.0 * kUsageDecay);
}

}  // namespace
}  // namespace cadet
