// Extension features beyond the paper's prototype: adaptive cache refill
// (§VIII flow control), edge timing-entropy injection and multi-client
// aggregation (§VI-D3 mitigations), multi-server pool exchange (Fig. 2
// steps 10-11), and failure injection against the refill timeout.
#include <gtest/gtest.h>

#include "entropy/sources.h"
#include "testbed/topology.h"
#include "testbed/workload.h"

namespace cadet::testbed {
namespace {

// ------------------------------------------------------- adaptive refill

TEST(AdaptiveRefill, LearnsDemandRate) {
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 1;
  config.num_clients = 4;
  config.refill_policy = RefillPolicy::kAdaptive;
  EdgeNode edge(config);

  // 64-byte requests every second for a minute: ~64 B/s demand.
  for (int t = 0; t < 60; ++t) {
    (void)edge.on_packet(1000, encode(Packet::data_request(512, false)),
                         util::from_seconds(t));
  }
  EXPECT_NEAR(edge.cache().demand_rate_bps() / 8.0, 64.0, 25.0);
}

TEST(AdaptiveRefill, QuietEdgeStopsRefilling) {
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 2;
  config.num_clients = 4;
  config.refill_policy = RefillPolicy::kAdaptive;
  EdgeNode edge(config);
  util::Xoshiro256 rng(3);

  // Fill the cache once.
  (void)edge.on_packet(1, encode(Packet::data_ack(rng.bytes(1024), true,
                                                  false)),
                       0);
  // A single small request long after traffic stopped: demand estimate is
  // near zero, so no refill should accompany the reply even though the
  // fixed-fraction policy would see 1024 < 25 % of 2048 and refill.
  const auto out = edge.on_packet(
      1000, encode(Packet::data_request(256, false)),
      util::from_seconds(600));
  for (const auto& o : out) {
    const auto p = decode(o.data);
    ASSERT_TRUE(p.has_value());
    EXPECT_FALSE(p->header.req && p->header.edge_server)
        << "unexpected refill from a quiet adaptive edge";
  }
}

TEST(AdaptiveRefill, RefillsAheadOfSustainedDemand) {
  TestbedConfig config;
  config.seed = 4;
  config.num_networks = 1;
  config.clients_per_network = 6;
  config.profiles = {NetworkProfile::kConsumer};
  config.refill_policy = RefillPolicy::kAdaptive;
  config.server_seed_bytes = 1 << 20;
  World world(config);
  world.register_edges();

  WorkloadDriver driver(world, 5);
  ClientBehavior consumer;
  consumer.request_rate_hz = 0.5;
  consumer.request_bits = 1024;
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, consumer, 0, util::from_seconds(300));
  }
  world.simulator().run();

  const auto& stats = world.edge(0).stats();
  const auto& metrics = driver.metrics();
  EXPECT_EQ(metrics.responses_received, metrics.requests_sent);
  // After warmup, nearly all requests should be cache hits.
  EXPECT_GT(static_cast<double>(stats.cache_hits),
            0.9 * static_cast<double>(stats.requests_received));
}

// ------------------------------------------- timing-entropy injection

TEST(TimingInjection, InjectsBytesBetweenContributions) {
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 6;
  config.num_clients = 2;
  config.inject_timing_entropy = true;
  config.upload_forward_bytes = 128;
  EdgeNode edge(config);
  util::Xoshiro256 rng(7);

  std::vector<net::Outgoing> bulk;
  for (int i = 0; i < 4; ++i) {
    auto out = edge.on_packet(
        1000 + (i % 2),
        encode(Packet::data_upload(entropy::synth::good(rng, 32), false)),
        util::from_millis(137 * i + 13));
    for (auto& o : out) bulk.push_back(std::move(o));
  }
  ASSERT_EQ(bulk.size(), 1u);
  const auto packet = decode(bulk[0].data);
  ASSERT_TRUE(packet.has_value());
  // 4 x 32 payload + 4 x 2 injected jitter bytes.
  EXPECT_EQ(packet->payload.size(), 4u * 32u + 4u * 2u);
  EXPECT_EQ(edge.stats().timing_bytes_injected, 8u);
}

TEST(TimingInjection, DisabledByDefault) {
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 8;
  config.num_clients = 2;
  config.upload_forward_bytes = 64;
  EdgeNode edge(config);
  util::Xoshiro256 rng(9);
  auto out1 = edge.on_packet(
      1000, encode(Packet::data_upload(entropy::synth::good(rng, 32), false)),
      0);
  auto out2 = edge.on_packet(
      1000, encode(Packet::data_upload(entropy::synth::good(rng, 32), false)),
      util::from_seconds(1));
  ASSERT_EQ(out2.size(), 1u);
  const auto packet = decode(out2[0].data);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->payload.size(), 64u);
  EXPECT_EQ(edge.stats().timing_bytes_injected, 0u);
}

TEST(TimingInjection, JitterBytesVary) {
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 10;
  config.num_clients = 2;
  config.inject_timing_entropy = true;
  config.upload_forward_bytes = 32;  // forward after every upload
  EdgeNode edge(config);
  util::Xoshiro256 rng(11);

  util::Bytes first_jitter, second_jitter;
  for (int i = 0; i < 2; ++i) {
    auto out = edge.on_packet(
        1000,
        encode(Packet::data_upload(entropy::synth::good(rng, 32), false)),
        util::from_millis(97 * (i + 1)));
    ASSERT_EQ(out.size(), 1u);
    const auto packet = decode(out[0].data);
    ASSERT_TRUE(packet.has_value());
    util::Bytes jitter(packet->payload.end() - 2, packet->payload.end());
    (i == 0 ? first_jitter : second_jitter) = jitter;
  }
  EXPECT_NE(first_jitter, second_jitter);
}

// -------------------------------------------------- multi-client batches

TEST(MinContributors, HoldsAggregateUntilEnoughClients) {
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 12;
  config.num_clients = 4;
  config.min_contributors = 2;
  config.upload_forward_bytes = 32;
  EdgeNode edge(config);
  util::Xoshiro256 rng(13);

  // One client filling the buffer alone: held back.
  auto out = edge.on_packet(
      1000, encode(Packet::data_upload(entropy::synth::good(rng, 64), false)),
      0);
  EXPECT_TRUE(out.empty());
  // A second contributor releases it.
  out = edge.on_packet(
      1001, encode(Packet::data_upload(entropy::synth::good(rng, 32), false)),
      util::from_seconds(1));
  ASSERT_EQ(out.size(), 1u);
  const auto packet = decode(out[0].data);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->payload.size(), 96u);
  EXPECT_EQ(edge.stats().bulk_uploads_sent, 1u);
}

// -------------------------------------------------- multi-server tier

TEST(MultiServer, EdgesSpreadAcrossServers) {
  TestbedConfig config;
  config.seed = 14;
  config.num_networks = 4;
  config.clients_per_network = 2;
  config.num_servers = 2;
  World world(config);
  world.register_edges();
  // Edges 0,2 -> server 0; edges 1,3 -> server 1.
  EXPECT_TRUE(world.server(0).edge_registered(edge_id(0)));
  EXPECT_TRUE(world.server(0).edge_registered(edge_id(2)));
  EXPECT_TRUE(world.server(1).edge_registered(edge_id(1)));
  EXPECT_TRUE(world.server(1).edge_registered(edge_id(3)));
  EXPECT_FALSE(world.server(0).edge_registered(edge_id(1)));
}

TEST(MultiServer, PoolExchangeMovesBytesAroundTheRing) {
  TestbedConfig config;
  config.seed = 15;
  config.num_networks = 2;
  config.clients_per_network = 2;
  config.num_servers = 2;
  config.server_seed_bytes = 1 << 16;
  World world(config);

  const std::size_t before0 = world.server(0).pool().size();
  world.start_pool_exchange(/*period_s=*/5.0, /*bytes=*/512,
                            /*until_s=*/60.0);
  world.simulator().run_until(util::from_seconds(120));
  world.simulator().run();

  EXPECT_GE(world.server(0).stats().pool_exchanges, 10u);
  EXPECT_GE(world.server(1).stats().pool_exchanges, 10u);
  // Exchanged data is mixed, not dropped: pools stay near their size.
  EXPECT_GT(world.server(0).pool().size(), before0 / 2);
}

TEST(MultiServer, RegistrationWorksOnBothServers) {
  TestbedConfig config;
  config.seed = 16;
  config.num_networks = 2;
  config.clients_per_network = 2;
  config.num_servers = 2;
  World world(config);
  world.register_edges();
  world.register_clients();
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    EXPECT_TRUE(world.client(i).reregistered()) << "client " << i;
  }
}

// ------------------------------------------------- failure injection

TEST(FailureInjection, RefillTimeoutRecoversFromLostResponse) {
  EdgeNode::Config config;
  config.id = 100;
  config.server = 1;
  config.seed = 17;
  config.num_clients = 2;
  EdgeNode edge(config);
  util::Xoshiro256 rng(18);

  // A request on a cold cache triggers a refill (which we "lose").
  auto out = edge.on_packet(1000, encode(Packet::data_request(512, false)),
                            util::from_seconds(0));
  ASSERT_EQ(out.size(), 1u);  // the refill request
  // Within the timeout, further requests don't re-ask the server.
  out = edge.on_packet(1000, encode(Packet::data_request(512, false)),
                       util::from_seconds(1));
  EXPECT_TRUE(out.empty());
  // After the timeout the edge declares the refill lost and re-issues.
  out = edge.on_packet(1000, encode(Packet::data_request(512, false)),
                       util::from_seconds(4));
  ASSERT_EQ(out.size(), 1u);
  const auto p = decode(out[0].data);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->header.req);
  EXPECT_TRUE(p->header.edge_server);
}

TEST(FailureInjection, EdgeReregistersAfterServerRestart) {
  // Build server + edge, register, then "restart" the server (fresh
  // instance, same id): the edge's sealed refills now fail and it must
  // recover by re-registering.
  ServerNode::Config sc;
  sc.id = 1;
  sc.seed = 501;
  auto server = std::make_unique<ServerNode>(sc);
  util::Xoshiro256 rng(502);
  server->seed_pool(rng.bytes(8192));

  EdgeNode::Config ec;
  ec.id = 100;
  ec.server = 1;
  ec.seed = 503;
  ec.num_clients = 2;
  EdgeNode edge(ec);

  // Message pump that always routes to the *current* server instance.
  using Inflight = std::pair<net::NodeId, net::Outgoing>;  // (sender, msg)
  auto deliver_round = [&](std::vector<net::Outgoing> initial,
                           net::NodeId initial_from, util::SimTime now) {
    std::vector<Inflight> queue;
    for (auto& m : initial) queue.emplace_back(initial_from, std::move(m));
    while (!queue.empty()) {
      std::vector<Inflight> next;
      for (auto& [sender, m] : queue) {
        if (m.to == 1) {
          for (auto& r : server->on_packet(sender, m.data, now)) {
            next.emplace_back(1, std::move(r));
          }
        } else if (m.to == 100) {
          for (auto& r : edge.on_packet(sender, m.data, now)) {
            next.emplace_back(100, std::move(r));
          }
        }
      }
      queue = std::move(next);
    }
  };

  deliver_round(edge.begin_edge_reg(0), 100, 0);
  ASSERT_TRUE(edge.registered());

  // Server restarts: all registration state is gone.
  server = std::make_unique<ServerNode>(sc);
  server->seed_pool(rng.bytes(8192));

  // The edge's refill requests now draw plaintext replies (the reborn
  // server has no esk). After the failure threshold, the edge re-registers
  // and service resumes sealed.
  for (int attempt = 0; attempt < 5; ++attempt) {
    const util::SimTime t = util::from_seconds(10 + attempt * 3);
    deliver_round(edge.on_packet(
                      1000, encode(Packet::data_request(512, false)), t),
                  /*initial_from=*/100, t);
    if (edge.stats().reregistrations > 0) break;
  }
  EXPECT_GE(edge.stats().reregistrations, 1u);
  EXPECT_TRUE(edge.registered());
  EXPECT_TRUE(server->edge_registered(100));
}

TEST(FailureInjection, LossyBackboneStillConverges) {
  TestbedConfig config;
  config.seed = 19;
  config.num_networks = 1;
  config.clients_per_network = 4;
  config.profiles = {NetworkProfile::kBalanced};
  config.server_seed_bytes = 1 << 20;
  // 10 % packet loss between edge and server.
  config.backbone_link.loss_prob = 0.10;
  World world(config);

  WorkloadDriver driver(world, 20);
  ClientBehavior consumer;
  consumer.request_rate_hz = 0.5;
  consumer.request_bits = 512;
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, consumer, 0, util::from_seconds(600));
  }
  world.simulator().run();

  const auto& metrics = driver.metrics();
  // Refill retries keep the service alive: the vast majority of requests
  // complete despite the lossy backbone.
  EXPECT_GT(static_cast<double>(metrics.responses_received),
            0.9 * static_cast<double>(metrics.requests_sent));
}

TEST(FailureInjection, AdversarialGarbageDoesNotCrashEngines) {
  TestbedConfig config;
  config.seed = 21;
  config.num_networks = 1;
  config.clients_per_network = 2;
  World world(config);
  world.register_edges();

  util::Xoshiro256 rng(22);
  auto& transport = world.transport();
  for (int i = 0; i < 500; ++i) {
    // Random garbage of random sizes to every tier from a rogue node.
    transport.send(31337, kServerId, rng.bytes(rng.uniform(128)));
    transport.send(31337, edge_id(0), rng.bytes(rng.uniform(128)));
    transport.send(31337, client_id(0), rng.bytes(rng.uniform(128)));
  }
  EXPECT_NO_FATAL_FAILURE(world.simulator().run());
  // The system still works afterwards.
  bool fulfilled = false;
  ClientNode* client = &world.client(0);
  world.client_sim(0).post([&, client](util::SimTime now) {
    return client->request_entropy(
        256, now, [&](util::BytesView, util::SimTime) { fulfilled = true; });
  });
  world.simulator().run();
  EXPECT_TRUE(fulfilled);
}

}  // namespace
}  // namespace cadet::testbed
