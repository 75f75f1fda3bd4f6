// Paper-scale soak: the full Fig. 9 testbed (44 clients in four networks,
// four edges, one server) under its mixed workload for 10 simulated
// minutes, asserting global health invariants at the end — the closest
// thing to "running the paper's testbed" in one test.
#include <gtest/gtest.h>

#include "testbed/topology.h"
#include "testbed/workload.h"

namespace cadet::testbed {
namespace {

TEST(Soak, FullTestbedTenMinutes) {
  TestbedConfig config;
  config.seed = 20180711;
  // Defaults are the paper's topology: 4 networks x 11 clients,
  // consumer / balanced / balanced / producer.
  config.server_seed_bytes = 1 << 20;
  World world(config);
  world.register_edges();
  world.register_clients();

  WorkloadDriver driver(world, 1);
  const util::SimTime t_end = util::from_seconds(600);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, ClientBehavior::for_profile(world.profile_of(i)), 0,
                 t_end);
  }
  world.simulator().run_until(t_end + util::from_seconds(30));
  world.simulator().run();

  const auto& metrics = driver.metrics();

  // Service: essentially every request answered, at testbed latencies.
  ASSERT_GT(metrics.requests_sent, 1000u);
  EXPECT_GT(static_cast<double>(metrics.responses_received),
            0.995 * static_cast<double>(metrics.requests_sent));
  EXPECT_LT(metrics.response_times_s.mean(), 0.3);
  EXPECT_LT(metrics.response_times_s.quantile(0.95), 0.5);

  // Edge tier: caches sized right, hits dominate, honest traffic not
  // penalized.
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t k = 0; k < world.num_edges(); ++k) {
    EdgeNode& edge = world.edge(k);
    EXPECT_EQ(edge.cache().capacity_bytes(),
              config.clients_per_network * kClientBufferBits / 8);
    hits += edge.stats().cache_hits;
    misses += edge.stats().cache_misses;
    for (std::size_t i = 0; i < config.clients_per_network; ++i) {
      const net::NodeId client =
          client_id(k * config.clients_per_network + i);
      EXPECT_FALSE(edge.economics().is_blacklisted(client))
          << "honest client " << client << " blacklisted";
    }
  }
  EXPECT_GT(static_cast<double>(hits),
            5.0 * static_cast<double>(misses));

  // Server tier: pool alive and statistically healthy.
  EXPECT_GT(world.server().stats().bytes_mixed, 10000u);
  const auto quality = world.server().run_quality_check();
  EXPECT_GE(quality.passed(), quality.total() - 1);

  // Conservation: entropy delivered to clients entered their pools.
  std::size_t clients_with_credit = 0;
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    if (world.client(i).pool().available_bits() > 0) ++clients_with_credit;
    EXPECT_EQ(world.client(i).requests_pending(), 0u)
        << "client " << i << " left with stuck requests";
  }
  EXPECT_GT(clients_with_credit, world.num_clients() / 2);
}

TEST(Soak, LossyNetworkTenMinutes) {
  // The full testbed again, but every datagram crosses a 5 %-loss,
  // 5 %-reorder FaultyTransport for the whole 10-minute run. The
  // retry/timeout/backoff machinery must keep the deployment healthy: no
  // client ends up stuck, every request resolves (delivery, explicit
  // fallback, or expiry), and deliveries still dominate by a wide margin.
  TestbedConfig config;
  config.seed = 20180713;
  config.server_seed_bytes = 1 << 20;
  net::FaultPlan plan;
  plan.seed = 20180713u * 7919 + 17;
  plan.default_rule.drop = 0.05;
  plan.default_rule.reorder = 0.05;
  config.fault_plan = plan;
  World world(config);

  world.faults()->set_enabled(false);
  world.register_edges();
  world.register_clients();
  world.faults()->set_enabled(true);

  WorkloadDriver driver(world, 3);
  const util::SimTime t_end = util::from_seconds(600);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, ClientBehavior::for_profile(world.profile_of(i)), 0,
                 t_end);
  }
  world.simulator().run_until(t_end + util::from_seconds(30));
  world.simulator().run();

  const auto& metrics = driver.metrics();
  ASSERT_GT(metrics.requests_sent, 1000u);

  // The loss actually happened, and retransmission actually ran.
  EXPECT_GT(world.faults()->counts().dropped, 100u);
  EXPECT_GT(world.faults()->counts().reordered, 100u);

  std::uint64_t fulfilled = 0, fallback = 0, expired = 0, retried = 0;
  std::size_t starved_clients = 0;
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    ClientNode& c = world.client(i);
    // No stuck clients: every request resolved one way or another.
    EXPECT_EQ(c.requests_pending(), 0u)
        << "client " << i << " left with stuck requests";
    fulfilled += c.requests_fulfilled();
    fallback += c.requests_fallback();
    expired += c.requests_expired();
    retried += c.requests_retried();
    if (c.requests_fulfilled() == 0) ++starved_clients;
  }
  EXPECT_GT(retried, 0u);
  EXPECT_EQ(starved_clients, 0u);

  // Delivery stays monotone and healthy: genuine deliveries dwarf the
  // degraded outcomes even at 5 % loss (retransmission recovers most
  // losses before the fallback deadline; the residue is mostly requests
  // that land in an edge refill gap widened by lost refill rounds).
  EXPECT_GT(fulfilled, 8 * (fallback + expired));
  EXPECT_GT(static_cast<double>(fulfilled),
            0.9 * static_cast<double>(metrics.requests_sent));

  // Loss alone must never look like misbehaviour to the penalty system.
  for (std::size_t k = 0; k < world.num_edges(); ++k) {
    for (std::size_t i = 0; i < config.clients_per_network; ++i) {
      const net::NodeId client =
          client_id(k * config.clients_per_network + i);
      EXPECT_FALSE(world.edge(k).economics().is_blacklisted(client))
          << "honest client " << client << " blacklisted under loss";
    }
  }
}

TEST(Soak, NoEdgeBaselineTenMinutes) {
  // The same world without the edge tier still serves (slower, heavier on
  // the server) — the Fig. 10 "W/O" configuration end to end.
  TestbedConfig config;
  config.seed = 20180712;
  config.use_edge = false;
  config.server_seed_bytes = 1 << 21;
  World world(config);

  WorkloadDriver driver(world, 2);
  const util::SimTime t_end = util::from_seconds(600);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, ClientBehavior::for_profile(world.profile_of(i)), 0,
                 t_end);
  }
  world.simulator().run_until(t_end + util::from_seconds(30));
  world.simulator().run();

  const auto& metrics = driver.metrics();
  ASSERT_GT(metrics.requests_sent, 1000u);
  EXPECT_GT(static_cast<double>(metrics.responses_received),
            0.99 * static_cast<double>(metrics.requests_sent));
  // Without the cache every request pays the server round trip: server
  // request count tracks client request count instead of collapsing.
  EXPECT_GT(world.server().stats().requests_served,
            metrics.requests_sent / 2);
}

}  // namespace
}  // namespace cadet::testbed
