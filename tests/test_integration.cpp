// End-to-end tests over the simulated testbed: full registration flows,
// request/response timing behaviour, upload aggregation, and encrypted
// delivery — the protocol running whole, not module by module.
#include <gtest/gtest.h>

#include "testbed/topology.h"
#include "testbed/workload.h"

namespace cadet::testbed {
namespace {

TestbedConfig tiny_config(std::uint64_t seed = 1) {
  TestbedConfig config;
  config.seed = seed;
  config.num_networks = 1;
  config.clients_per_network = 4;
  config.profiles = {NetworkProfile::kBalanced};
  config.server_seed_bytes = 1 << 16;
  return config;
}

TEST(Integration, EdgeAndClientRegistrationComplete) {
  World world(tiny_config());
  world.register_edges();
  EXPECT_TRUE(world.edge(0).registered());
  EXPECT_TRUE(world.server().edge_registered(edge_id(0)));

  world.register_clients();
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    EXPECT_TRUE(world.client(i).initialized()) << "client " << i;
    EXPECT_TRUE(world.client(i).reregistered()) << "client " << i;
    EXPECT_TRUE(world.server().client_known(client_id(i)));
  }
}

TEST(Integration, RequestResolvesEndToEnd) {
  World world(tiny_config(2));
  world.register_edges();

  bool fulfilled = false;
  util::Bytes received;
  ClientNode* client = &world.client(0);
  SimNode* node = &world.client_sim(0);
  node->post([&, client](util::SimTime now) {
    return client->request_entropy(
        512, now, [&](util::BytesView data, util::SimTime) {
          fulfilled = true;
          received.assign(data.begin(), data.end());
        });
  });
  world.simulator().run();
  EXPECT_TRUE(fulfilled);
  EXPECT_EQ(received.size(), 64u);
  EXPECT_GT(client->pool().available_bits(), 0u);
}

TEST(Integration, EncryptedDeliveryAfterRegistration) {
  World world(tiny_config(3));
  world.register_edges();
  world.register_clients();

  bool fulfilled = false;
  ClientNode* client = &world.client(1);
  SimNode* node = &world.client_sim(1);
  node->post([&, client](util::SimTime now) {
    return client->request_entropy(
        256, now,
        [&](util::BytesView data, util::SimTime) {
          fulfilled = data.size() == 32;
        });
  });
  world.simulator().run();
  EXPECT_TRUE(fulfilled);
}

TEST(Integration, SecondRequestIsFasterThanFirst) {
  // Cold cache -> miss (server round trip + edge mixing); warm cache ->
  // local hit. This is the Fig. 8a cache effect end to end.
  World world(tiny_config(4));
  world.register_edges();
  auto& sim = world.simulator();

  auto timed_request = [&](std::size_t client_idx) {
    const util::SimTime t0 = sim.now();
    double elapsed = -1.0;
    ClientNode* client = &world.client(client_idx);
    SimNode* node = &world.client_sim(client_idx);
    node->post([&, client, node, t0](util::SimTime now) {
      return client->request_entropy(
          512, now, [&, node, t0](util::BytesView, util::SimTime) {
            node->post([&, t0](util::SimTime done) {
              elapsed = util::to_seconds(done - t0);
              return std::vector<net::Outgoing>{};
            });
          });
    });
    sim.run();
    return elapsed;
  };

  const double cold = timed_request(0);
  const double warm = timed_request(0);
  ASSERT_GT(cold, 0.0);
  ASSERT_GT(warm, 0.0);
  EXPECT_GT(cold, warm * 1.5) << "cold=" << cold << " warm=" << warm;
  // Paper ballpark: ~0.25 s uncached, ~0.12 s cached on the testbed.
  EXPECT_LT(warm, 0.2);
  EXPECT_LT(cold, 0.5);
}

TEST(Integration, UploadsAggregateBeforeReachingServer) {
  TestbedConfig config = tiny_config(5);
  config.upload_forward_bytes = 128;
  World world(config);
  world.register_edges();
  world.transport().reset_counters();

  auto& sim = world.simulator();
  util::Xoshiro256 rng(6);
  // 8 uploads of 32 bytes -> 256 payload bytes -> exactly 2 bulk packets.
  for (int i = 0; i < 8; ++i) {
    ClientNode* client = &world.client(static_cast<std::size_t>(i % 4));
    SimNode* node = &world.client_sim(static_cast<std::size_t>(i % 4));
    const auto payload = rng.bytes(32);
    sim.schedule_at(util::from_seconds(1 + i), [node, client, payload]() {
      node->post([client, payload](util::SimTime t) {
        return client->upload_entropy(payload, t);
      });
    });
  }
  sim.run();
  EXPECT_EQ(world.server().stats().uploads_received, 2u);
  EXPECT_EQ(world.server().stats().bytes_mixed, 256u);
  EXPECT_GT(world.server().pool().size(), 0u);
}

TEST(Integration, NoEdgeModeTalksDirectlyToServer) {
  TestbedConfig config = tiny_config(7);
  config.use_edge = false;
  World world(config);

  bool fulfilled = false;
  ClientNode* client = &world.client(0);
  SimNode* node = &world.client_sim(0);
  node->post([&, client](util::SimTime now) {
    return client->request_entropy(
        512, now,
        [&](util::BytesView data, util::SimTime) {
          fulfilled = data.size() == 64;
        });
  });
  world.simulator().run();
  EXPECT_TRUE(fulfilled);
  EXPECT_EQ(world.server().stats().requests_served, 1u);
}

TEST(Integration, WorkloadDriverCollectsMetrics) {
  World world(tiny_config(8));
  world.register_edges();
  WorkloadDriver driver(world, 9);
  ClientBehavior behavior;
  behavior.request_rate_hz = 1.0;
  behavior.request_bits = 256;
  behavior.upload_rate_hz = 1.0;
  behavior.upload_bytes = 32;
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, behavior, 0, util::from_seconds(30));
  }
  world.simulator().run();
  const auto& metrics = driver.metrics();
  EXPECT_GT(metrics.requests_sent, 50u);
  EXPECT_EQ(metrics.responses_received, metrics.requests_sent);
  EXPECT_GT(metrics.uploads_sent, 50u);
  EXPECT_GT(metrics.response_times_s.count(), 0u);
  EXPECT_LT(metrics.response_times_s.mean(), 1.0);
  EXPECT_EQ(metrics.events.size(), metrics.responses_received);
}

TEST(Integration, MaliciousUploaderGetsPenalized) {
  World world(tiny_config(10));
  world.register_edges();
  WorkloadDriver driver(world, 11);
  ClientBehavior honest;
  honest.upload_rate_hz = 2.0;
  honest.upload_bytes = 32;
  ClientBehavior malicious = honest;
  malicious.bad_fraction = 0.5;
  malicious.bad_bias = 0.85;
  driver.drive(0, honest, 0, util::from_seconds(120));
  driver.drive(1, malicious, 0, util::from_seconds(120));
  world.simulator().run();

  EdgeNode& edge = world.edge(0);
  EXPECT_GT(edge.economics().penalty(client_id(1)),
            edge.economics().penalty(client_id(0)));
  EXPECT_TRUE(edge.economics().is_delinquent(client_id(1)));
  EXPECT_FALSE(edge.economics().is_delinquent(client_id(0)));
}

TEST(Integration, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    World world(tiny_config(seed));
    world.register_edges();
    WorkloadDriver driver(world, seed);
    ClientBehavior behavior;
    behavior.request_rate_hz = 2.0;
    for (std::size_t i = 0; i < world.num_clients(); ++i) {
      driver.drive(i, behavior, 0, util::from_seconds(20));
    }
    world.simulator().run();
    return driver.metrics().response_times_s.mean();
  };
  EXPECT_DOUBLE_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(Integration, ServerPoolGrowsUnderProducerWorkload) {
  World world(tiny_config(12));
  world.register_edges();
  const auto initial_pool = world.server().pool().size();
  WorkloadDriver driver(world, 13);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, ClientBehavior::producer(), 0, util::from_seconds(120));
  }
  world.simulator().run();
  EXPECT_GT(world.server().stats().bytes_mixed, 0u);
  EXPECT_GE(world.server().pool().size(), initial_pool);
}

}  // namespace
}  // namespace cadet::testbed
