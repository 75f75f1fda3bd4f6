#include "cadet/client_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cadet/server_node.h"
#include "engine_harness.h"
#include "util/rng.h"

namespace cadet {
namespace {

ClientNode::Config client_config() {
  ClientNode::Config config;
  config.id = 1000;
  config.edge = 100;
  config.server = 1;
  config.seed = 77;
  return config;
}

ServerNode::Config server_config() {
  ServerNode::Config config;
  config.id = 1;
  config.seed = 88;
  return config;
}

TEST(ClientNode, RequestEmitsDataRequestToEdge) {
  ClientNode client(client_config());
  const auto out = client.request_entropy(512, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 100u);
  const auto packet = decode(out[0].data);
  ASSERT_TRUE(packet.has_value());
  EXPECT_TRUE(packet->header.dat);
  EXPECT_TRUE(packet->header.req);
  EXPECT_TRUE(packet->header.client_edge);
  EXPECT_EQ(packet->header.argument, 512);
}

TEST(ClientNode, UploadEmitsDataPacket) {
  ClientNode client(client_config());
  util::Xoshiro256 rng(1);
  const auto payload = rng.bytes(32);
  const auto out = client.upload_entropy(payload, 0);
  ASSERT_EQ(out.size(), 1u);
  const auto packet = decode(out[0].data);
  ASSERT_TRUE(packet.has_value());
  EXPECT_TRUE(packet->header.dat);
  EXPECT_FALSE(packet->header.req);
  EXPECT_EQ(packet->payload, payload);
}

TEST(ClientNode, PlainDeliveryFulfillsRequestAndFeedsPool) {
  ClientNode client(client_config());
  util::Bytes delivered;
  (void)client.request_entropy(
      256, 0, [&](util::BytesView data, util::SimTime) {
        delivered.assign(data.begin(), data.end());
      });
  ASSERT_TRUE(client.pool().empty());

  util::Xoshiro256 rng(2);
  const auto payload = rng.bytes(32);
  const auto reply = Packet::data_ack(payload, false, false);
  (void)client.on_packet(100, encode(reply), util::from_seconds(1));

  EXPECT_EQ(delivered, payload);
  EXPECT_EQ(client.requests_fulfilled(), 1u);
  // Remote entropy is credited at half weight (trust haircut).
  EXPECT_EQ(client.pool().available_bits(), 32u * 4u);
}

TEST(ClientNode, RequestsFulfilledInFifoOrder) {
  ClientNode client(client_config());
  std::vector<int> order;
  (void)client.request_entropy(64, 0, [&](util::BytesView, util::SimTime) {
    order.push_back(1);
  });
  (void)client.request_entropy(64, 0, [&](util::BytesView, util::SimTime) {
    order.push_back(2);
  });
  util::Xoshiro256 rng(3);
  (void)client.on_packet(100, encode(Packet::data_ack(rng.bytes(8), false,
                                                      false)), 0);
  (void)client.on_packet(100, encode(Packet::data_ack(rng.bytes(8), false,
                                                      false)), 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ClientNode, InitHandshakeWithServer) {
  ClientNode client(client_config());
  ServerNode server(server_config());
  test::EnginePump pump;
  pump.attach(client);
  pump.attach(server);

  bool completed = false;
  auto out = client.begin_init(0, [&](util::SimTime) { completed = true; });
  pump.pump(std::move(out), client.id());

  EXPECT_TRUE(completed);
  EXPECT_TRUE(client.initialized());
  EXPECT_TRUE(server.client_known(client.id()));
}

TEST(ClientNode, ReregBeforeInitIsRejected) {
  ClientNode client(client_config());
  const auto out = client.begin_rereg(0);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(client.reregistered());
}

TEST(ClientNode, EncryptedDeliveryWithoutKeyIsIgnored) {
  ClientNode client(client_config());
  bool fulfilled = false;
  (void)client.request_entropy(64, 0, [&](util::BytesView, util::SimTime) {
    fulfilled = true;
  });
  util::Xoshiro256 rng(4);
  const auto reply = Packet::data_ack(rng.bytes(40), false, /*encrypted=*/true);
  (void)client.on_packet(100, encode(reply), 0);
  EXPECT_FALSE(fulfilled);
}

TEST(ClientNode, MalformedPacketIgnored) {
  ClientNode client(client_config());
  EXPECT_TRUE(client.on_packet(100, util::Bytes{1, 2}, 0).empty());
}

TEST(ClientNode, ForgedInitAckIgnored) {
  ClientNode client(client_config());
  (void)client.begin_init(0);
  // An attacker replies with garbage of the right shape but wrong crypto.
  util::Xoshiro256 rng(5);
  const auto forged = Packet::registration(
      RegSubtype::kClientInitReqAck, rng.bytes(32 + 36 + 60), true, true,
      false, false, true);
  const auto out = client.on_packet(1, encode(forged), 0);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(client.initialized());
}

TEST(ClientNode, StaleRequestsExpireWithEmptyCallback) {
  auto config = client_config();
  config.request_timeout = 5 * util::kSecond;
  ClientNode client(config);
  bool expired = false;
  (void)client.request_entropy(128, 0,
                               [&](util::BytesView data, util::SimTime) {
                                 expired = data.empty();
                               });
  EXPECT_EQ(client.requests_pending(), 1u);
  // A later action past the timeout sweeps the stale entry.
  (void)client.request_entropy(128, util::from_seconds(6));
  EXPECT_TRUE(expired);
  EXPECT_EQ(client.requests_expired(), 1u);
  EXPECT_EQ(client.requests_pending(), 1u);  // only the fresh one remains
}

TEST(ClientNode, LateDeliveryAfterExpiryFeedsPoolButNoCallback) {
  auto config = client_config();
  config.request_timeout = 1 * util::kSecond;
  ClientNode client(config);
  int calls = 0;
  (void)client.request_entropy(128, 0, [&](util::BytesView, util::SimTime) {
    ++calls;
  });
  util::Xoshiro256 rng(9);
  // Delivery arrives after expiry: the entry is swept first (callback with
  // empty data), then the entropy still lands in the pool.
  (void)client.on_packet(100,
                         encode(Packet::data_ack(rng.bytes(16), false, false)),
                         util::from_seconds(5));
  EXPECT_EQ(calls, 1);  // exactly the expiry call
  EXPECT_EQ(client.requests_expired(), 1u);
  EXPECT_GT(client.pool().available_bits(), 0u);
}

TEST(ClientNode, RetryChainFallsBackAfterFifteenSeconds) {
  // The timer-driven chain (config.h): kMaxRequestRetries retransmissions,
  // doubling from kRequestRetryBaseNs with ±10 % jitter, go out about 1, 3
  // and 7 s after the request; the fallback fires after the last wait, at
  // about 15 s — after the lazy 10 s request_timeout.
  struct Pending {
    util::SimTime at;
    EngineWork work;
  };
  std::vector<Pending> timers;
  util::SimTime now = 0;
  auto config = client_config();
  config.seed = 5;
  config.timer = [&](util::SimTime delay, EngineWork work) {
    timers.push_back({now + delay, std::move(work)});
  };
  ClientNode client(config);
  bool fell_back = false;
  (void)client.request_entropy(256, 0,
                               [&](util::BytesView data, util::SimTime) {
                                 fell_back = !data.empty();
                               });
  std::vector<double> resent_s;
  while (!timers.empty() && client.requests_fallback() == 0) {
    const auto next = std::min_element(
        timers.begin(), timers.end(),
        [](const Pending& a, const Pending& b) { return a.at < b.at; });
    const Pending timer = std::move(*next);
    timers.erase(next);
    now = timer.at;
    for (const net::Outgoing& out : timer.work(now)) {
      if (out.to == config.edge) resent_s.push_back(util::to_seconds(now));
    }
  }
  ASSERT_EQ(resent_s.size(), kMaxRequestRetries);
  const double expected_s[] = {1.0, 3.0, 7.0};
  for (std::size_t k = 0; k < resent_s.size(); ++k) {
    EXPECT_NEAR(resent_s[k], expected_s[k], 0.1 * expected_s[k]) << k;
  }
  EXPECT_EQ(client.requests_fallback(), 1u);
  EXPECT_NEAR(util::to_seconds(now), 15.0, 1.5);
  EXPECT_TRUE(fell_back);
  EXPECT_EQ(client.requests_retried(), kMaxRequestRetries);
}

TEST(ClientNode, CostAccrues) {
  ClientNode client(client_config());
  (void)client.request_entropy(128, 0);
  EXPECT_GT(client.cost().pending(), 0.0);
  (void)client.cost().take();
  EXPECT_EQ(client.cost().pending(), 0.0);
}

}  // namespace
}  // namespace cadet
