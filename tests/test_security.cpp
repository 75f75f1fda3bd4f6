// Security-focused tests mirroring the paper's §VI-D threat analysis:
// eavesdropping resistance of the registration exchanges, replay
// behaviour, tampering, and the boundaries of the threat model.
#include <gtest/gtest.h>

#include "cadet/cadet.h"
#include "engine_harness.h"
#include "entropy/sources.h"
#include "util/rng.h"

namespace cadet {
namespace {

struct CapturedWire {
  std::vector<util::Bytes> packets;
};

/// Pump that also records every datagram an eavesdropper would see.
struct TappedWorld {
  ServerNode server;
  EdgeNode edge;
  ClientNode client;
  test::EnginePump pump;
  CapturedWire tap;

  explicit TappedWorld(std::uint64_t seed)
      : server(make_server(seed)),
        edge(make_edge(seed)),
        client(make_client(seed)) {
    pump.attach(server.id(), [this](net::NodeId f, util::BytesView d,
                                    util::SimTime t) {
      tap.packets.emplace_back(d.begin(), d.end());
      return server.on_packet(f, d, t);
    });
    pump.attach(edge.id(), [this](net::NodeId f, util::BytesView d,
                                  util::SimTime t) {
      tap.packets.emplace_back(d.begin(), d.end());
      return edge.on_packet(f, d, t);
    });
    pump.attach(client.id(), [this](net::NodeId f, util::BytesView d,
                                    util::SimTime t) {
      tap.packets.emplace_back(d.begin(), d.end());
      return client.on_packet(f, d, t);
    });
  }

  static ServerNode::Config make_server(std::uint64_t seed) {
    ServerNode::Config c;
    c.id = 1;
    c.seed = seed;
    return c;
  }
  static EdgeNode::Config make_edge(std::uint64_t seed) {
    EdgeNode::Config c;
    c.id = 100;
    c.server = 1;
    c.seed = seed + 1;
    c.num_clients = 2;
    return c;
  }
  static ClientNode::Config make_client(std::uint64_t seed) {
    ClientNode::Config c;
    c.id = 1000;
    c.edge = 100;
    c.server = 1;
    c.seed = seed + 2;
    return c;
  }
};

TEST(Eavesdropping, CapturedHandshakesDoNotRevealDeliveredEntropy) {
  TappedWorld w(31);
  util::Xoshiro256 rng(32);
  w.server.seed_pool(rng.bytes(4096));

  // Full registration + one sealed delivery, all captured.
  w.pump.pump(w.edge.begin_edge_reg(0), w.edge.id());
  w.pump.pump(w.client.begin_init(0), w.client.id());
  w.pump.pump(w.client.begin_rereg(0), w.client.id());
  util::Bytes delivered;
  w.pump.pump(w.client.request_entropy(
                  512, 0,
                  [&](util::BytesView data, util::SimTime) {
                    delivered.assign(data.begin(), data.end());
                  }),
              w.client.id());
  ASSERT_EQ(delivered.size(), 64u);
  ASSERT_GT(w.tap.packets.size(), 8u);

  // The delivered entropy must not appear in ANY captured datagram: every
  // hop that carried it was sealed.
  for (const auto& wire : w.tap.packets) {
    if (wire.size() < delivered.size()) continue;
    for (std::size_t off = 0; off + delivered.size() <= wire.size(); ++off) {
      EXPECT_FALSE(std::equal(delivered.begin(), delivered.end(),
                              wire.begin() + static_cast<long>(off)))
          << "delivered entropy leaked in cleartext on the wire";
    }
  }
}

TEST(Eavesdropping, CapturedTokenHashDoesNotEnableImpersonation) {
  TappedWorld w(33);
  w.pump.pump(w.edge.begin_edge_reg(0), w.edge.id());
  w.pump.pump(w.client.begin_init(0), w.client.id());

  // Capture the client's rereg request off the wire...
  auto rereg = w.client.begin_rereg(0);
  const util::Bytes captured = rereg[0].data;
  w.pump.pump(std::move(rereg), w.client.id());
  ASSERT_TRUE(w.client.reregistered());

  // ...and replay it from an attacker node. The server will mint a new cek
  // for client 1000, but both copies are sealed under esk and csk — the
  // attacker (who has neither) learns nothing and cannot decrypt
  // deliveries addressed to the client.
  ClientNode attacker(TappedWorld::make_client(999));
  test::EnginePump pump2;
  pump2.attach(w.server);
  pump2.attach(w.edge);
  pump2.attach(attacker.id(), [&](net::NodeId f, util::BytesView d,
                                  util::SimTime t) {
    return attacker.on_packet(f, d, t);
  });
  pump2.pump({{w.edge.id(), captured}}, attacker.id());
  EXPECT_FALSE(attacker.reregistered());
  EXPECT_FALSE(attacker.initialized());
}

TEST(Replay, EdgeRegAckReplayDoesNotConfuseServer) {
  TappedWorld w(34);
  w.pump.pump(w.edge.begin_edge_reg(0), w.edge.id());
  ASSERT_TRUE(w.server.edge_registered(w.edge.id()));

  // Replay every captured registration packet at the server; no crash, and
  // the edge is still registered with a working key afterwards.
  for (const auto& wire : w.tap.packets) {
    (void)w.server.on_packet(w.edge.id(), wire, util::from_seconds(5));
  }
  EXPECT_TRUE(w.server.edge_registered(w.edge.id()));

  util::Xoshiro256 rng(35);
  w.server.seed_pool(rng.bytes(1024));
  bool served = false;
  w.pump.pump(w.client.request_entropy(
                  256, util::from_seconds(6),
                  [&](util::BytesView data, util::SimTime) {
                    served = !data.empty();
                  }),
              w.client.id(), util::from_seconds(6));
  EXPECT_TRUE(served);
}

TEST(Tampering, BitFlippedRegistrationPacketsRejected) {
  TappedWorld w(36);
  // Run edge registration but flip one byte of the server's REQ+ACK before
  // the edge sees it: the nonce verification must fail, leaving the edge
  // unregistered (no downgrade to an attacker-influenced key).
  EdgeNode fresh_edge(TappedWorld::make_edge(37));
  auto req = fresh_edge.begin_edge_reg(0);
  auto server_replies =
      w.server.on_packet(fresh_edge.id(), req[0].data, 0);
  ASSERT_EQ(server_replies.size(), 1u);
  auto tampered = server_replies[0].data;
  tampered[tampered.size() / 2] ^= 0x20;
  const auto out = fresh_edge.on_packet(1, tampered, 0);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(fresh_edge.registered());
}

TEST(Tampering, CorruptedBulkUploadPenalizesTheEdgeNotTheClients) {
  // If an attacker corrupts an edge->server bulk upload in flight, the
  // server's sanity check judges (and penalizes) the *edge* as uploader —
  // the paper's per-link accountability.
  ServerNode server(TappedWorld::make_server(38));
  util::Xoshiro256 rng(39);
  auto bulk = Packet::data_upload(entropy::synth::good(rng, 256), true);
  // Corrupt: overwrite half the payload with a constant run.
  for (std::size_t i = 0; i < 128; ++i) bulk.payload[i] = 0xff;
  bulk.header.argument = static_cast<std::uint16_t>(bulk.payload.size());
  (void)server.on_packet(100, encode(bulk), 0);
  EXPECT_EQ(server.stats().uploads_rejected_sanity, 1u);
  EXPECT_GT(server.economics().penalty(100), 0.0);
}

TEST(ThreatModel, PassiveCaptureOfInitDoesNotYieldCsk) {
  // The attacker records c.pub, s.pub, and both sealed blobs from a client
  // initialization. Deriving csk requires a private key; verify that the
  // sealed token cannot be opened with keys derived from the *public*
  // transcript pieces.
  TappedWorld w(40);
  w.pump.pump(w.client.begin_init(0), w.client.id());
  ASSERT_TRUE(w.client.initialized());

  // Find the ClientInitReqAck in the capture (the only 128-byte payload).
  util::Bytes ack_payload;
  crypto::X25519Key c_pub{}, s_pub{};
  for (const auto& wire : w.tap.packets) {
    const auto packet = decode(wire);
    if (!packet || !packet->header.reg) continue;
    if (packet->header.subtype == RegSubtype::kClientInitReq) {
      std::copy_n(packet->payload.begin(), 32, c_pub.begin());
    }
    if (packet->header.subtype == RegSubtype::kClientInitReqAck) {
      ack_payload = packet->payload;
      std::copy_n(packet->payload.begin(), 32, s_pub.begin());
    }
  }
  ASSERT_FALSE(ack_payload.empty());
  const util::Bytes sealed_token(ack_payload.begin() + 32 + 36,
                                 ack_payload.end());

  // Candidate "keys" a naive attacker might try from public material.
  const std::vector<SharedKey> candidates = {
      derive_key(c_pub, util::BytesView(kLabelCsk, sizeof(kLabelCsk))),
      derive_key(s_pub, util::BytesView(kLabelCsk, sizeof(kLabelCsk))),
      derive_key(crypto::x25519(c_pub, s_pub),
                 util::BytesView(kLabelCsk, sizeof(kLabelCsk))),
  };
  for (const auto& key : candidates) {
    EXPECT_FALSE(open(key, sealed_token).has_value());
  }
}

TEST(TokenRotation, ReregistrationDoesNotResetPenaltyOrEscapeBlacklist) {
  // The free-rider/poisoner evasion the adversary suite attacks head-on:
  // a device that rotated its registration token (fresh init + rereg under
  // the same node id) must carry its penalty score, delinquency band, and
  // usage score across the rotation — the tables key on the device, not
  // the token.
  TappedWorld w(41);
  util::Xoshiro256 rng(42);
  w.server.seed_pool(rng.bytes(4096));
  w.pump.pump(w.edge.begin_edge_reg(0), w.edge.id());
  w.pump.pump(w.client.begin_init(0), w.client.id());
  w.pump.pump(w.client.begin_rereg(0), w.client.id());
  ASSERT_TRUE(w.client.reregistered());

  // Build up usage (accepted requests tick the clock and accrue score)...
  util::SimTime now = util::kSecond;
  for (int i = 0; i < 4; ++i) {
    now += util::kSecond;
    w.pump.pump(w.client.request_entropy(256, now, {}), w.client.id(), now);
  }
  ASSERT_GT(w.edge.economics().score(w.client.id()), 0.0);

  // ...and a delinquent penalty score with patterned poison uploads.
  const util::Bytes poison = entropy::synth::patterned(96);
  int uploads = 0;
  while (!w.edge.economics().is_delinquent(w.client.id()) && uploads < 40) {
    ++uploads;
    now += util::kSecond;
    w.pump.pump(w.client.upload_entropy(poison, now), w.client.id(), now);
  }
  ASSERT_TRUE(w.edge.economics().is_delinquent(w.client.id()));
  const double penalty_before = w.edge.economics().penalty(w.client.id());
  const double usage_before = w.edge.economics().score(w.client.id());
  ASSERT_GT(usage_before, 0.0);

  // Rotate the token: a full fresh registration under the same node id.
  now += util::kSecond;
  w.pump.pump(w.client.begin_init(now), w.client.id(), now);
  now += util::kSecond;
  w.pump.pump(w.client.begin_rereg(now), w.client.id(), now);
  ASSERT_TRUE(w.client.reregistered());

  // Nothing shed: penalty exactly preserved, still delinquent, and the
  // usage score untouched (registration packets do not advance the usage
  // clock, so rotation cannot even decay it).
  EXPECT_DOUBLE_EQ(w.edge.economics().penalty(w.client.id()), penalty_before);
  EXPECT_TRUE(w.edge.economics().is_delinquent(w.client.id()));
  EXPECT_DOUBLE_EQ(w.edge.economics().score(w.client.id()), usage_before);

  // Keep poisoning through the random-drop band until blacklisted.
  while (!w.edge.economics().is_blacklisted(w.client.id()) && uploads < 100) {
    ++uploads;
    now += util::kSecond;
    w.pump.pump(w.client.upload_entropy(poison, now), w.client.id(), now);
  }
  ASSERT_TRUE(w.edge.economics().is_blacklisted(w.client.id()))
      << "not blacklisted after " << uploads << " poison uploads";
  const double blacklist_score = w.edge.economics().penalty(w.client.id());

  // Rotating again does not open the gate: still blacklisted, and a
  // post-rotation upload dies at the penalty gate without being scored.
  now += util::kSecond;
  w.pump.pump(w.client.begin_init(now), w.client.id(), now);
  now += util::kSecond;
  w.pump.pump(w.client.begin_rereg(now), w.client.id(), now);
  ASSERT_TRUE(w.client.reregistered());
  EXPECT_TRUE(w.edge.economics().is_blacklisted(w.client.id()));
  EXPECT_DOUBLE_EQ(w.edge.economics().penalty(w.client.id()), blacklist_score);

  const std::uint64_t dropped_before =
      w.edge.stats().uploads_dropped_penalty;
  now += util::kSecond;
  w.pump.pump(w.client.upload_entropy(poison, now), w.client.id(), now);
  EXPECT_EQ(w.edge.stats().uploads_dropped_penalty, dropped_before + 1);
  EXPECT_DOUBLE_EQ(w.edge.economics().penalty(w.client.id()), blacklist_score);
}

}  // namespace
}  // namespace cadet
