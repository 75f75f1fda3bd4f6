// Seeded chaos-scenario runner for the fault-injection tests: builds a
// small testbed behind a FaultyTransport, registers it over a clean network,
// flips the faults on, drives a mixed workload, and snapshots every counter
// the invariant checks need. One ScenarioConfig seed fully determines the
// run — workload arrivals, link faults, retry jitter — so a failing seed
// reported by test_chaos reproduces exactly (docs/FAULT_INJECTION.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/faulty_transport.h"
#include "obs/metrics.h"
#include "testbed/topology.h"
#include "testbed/workload.h"

namespace cadet::testbed::chaos {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  /// Link-fault probabilities applied to every link.
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
  /// Timed partitions / crash windows (absolute sim time; registration
  /// finishes within the first ~5 simulated seconds, so windows at >= 10 s
  /// land mid-workload).
  std::vector<net::Partition> partitions;
  std::vector<net::Crash> crashes;
  /// Workload horizon (starts when registration completes) and the drain
  /// window afterwards in which retry/fallback chains must resolve.
  double horizon_s = 60.0;
  double drain_s = 20.0;
  std::size_t num_networks = 2;
  std::size_t clients_per_network = 4;
  double request_rate_hz = 0.5;
  double upload_rate_hz = 0.5;
};

/// Everything the invariant checks look at, snapshotted after the drain.
struct ScenarioResult {
  // Per-run totals across all clients.
  std::uint64_t requests_sent = 0;
  std::uint64_t fulfilled = 0;
  std::uint64_t fallback = 0;
  std::uint64_t expired = 0;
  std::uint64_t retried = 0;
  std::uint64_t pending = 0;  // stuck requests (must be 0 after drain)
  std::uint64_t client_bytes_received = 0;
  std::uint64_t client_dupes_dropped = 0;
  /// Clients that resolved at least one request (delivery or fallback).
  std::size_t clients_served = 0;
  std::size_t num_clients = 0;

  // Edge tier totals.
  std::uint64_t edge_bytes_delivered = 0;
  std::uint64_t edge_dupes_dropped = 0;
  std::uint64_t edge_refill_retries = 0;
  bool honest_client_blacklisted = false;

  // Server tier.
  std::uint64_t server_dupes_dropped = 0;

  net::FaultyTransport::FaultCounts faults;
  WorkloadMetrics workload;
};

inline net::FaultPlan make_plan(const ScenarioConfig& cfg) {
  net::FaultPlan plan;
  plan.seed = cfg.seed * 7919 + 17;
  plan.default_rule.drop = cfg.drop;
  plan.default_rule.duplicate = cfg.duplicate;
  plan.default_rule.reorder = cfg.reorder;
  plan.default_rule.corrupt = cfg.corrupt;
  plan.partitions = cfg.partitions;
  plan.crashes = cfg.crashes;
  return plan;
}

inline ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  TestbedConfig tc;
  tc.seed = cfg.seed;
  tc.num_networks = cfg.num_networks;
  tc.clients_per_network = cfg.clients_per_network;
  tc.profiles.assign(cfg.num_networks, NetworkProfile::kBalanced);
  tc.fault_plan = make_plan(cfg);
  World world(tc);

  // Registration runs over a clean network (the scenarios probe data-path
  // robustness; registration under loss is covered by the retry unit
  // tests), then the faults switch on for the whole workload + drain.
  world.faults()->set_enabled(false);
  world.register_edges();
  world.register_clients();
  world.faults()->set_enabled(true);

  WorkloadDriver driver(world, cfg.seed ^ 0x5ce7a210ULL);
  ClientBehavior behavior;
  behavior.request_rate_hz = cfg.request_rate_hz;
  behavior.upload_rate_hz = cfg.upload_rate_hz;
  const util::SimTime t0 = world.simulator().now();
  const util::SimTime t_end = t0 + util::from_seconds(cfg.horizon_s);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, behavior, t0, t_end);
  }
  world.simulator().run_until(t_end + util::from_seconds(cfg.drain_s));

  ScenarioResult r;
  r.num_clients = world.num_clients();
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    ClientNode& c = world.client(i);
    r.requests_sent +=
        world.metrics()
            .counter("cadet_client_requests_sent",
                     obs::tier_labels("client", c.id()))
            .value();
    r.fulfilled += c.requests_fulfilled();
    r.fallback += c.requests_fallback();
    r.expired += c.requests_expired();
    r.retried += c.requests_retried();
    r.pending += c.requests_pending();
    r.client_dupes_dropped += c.dupes_dropped();
    r.client_bytes_received +=
        world.metrics()
            .counter("cadet_client_bytes_received",
                     obs::tier_labels("client", c.id()))
            .value();
    if (c.requests_fulfilled() + c.requests_fallback() > 0) {
      ++r.clients_served;
    }
  }
  for (std::size_t k = 0; k < world.num_edges(); ++k) {
    EdgeNode& e = world.edge(k);
    const auto stats = e.stats();
    r.edge_bytes_delivered += stats.bytes_delivered;
    r.edge_dupes_dropped += stats.dupes_dropped;
    r.edge_refill_retries += stats.refill_retries;
    for (std::size_t i = 0; i < cfg.clients_per_network; ++i) {
      const net::NodeId client =
          client_id(k * cfg.clients_per_network + i);
      if (e.economics().is_blacklisted(client)) {
        r.honest_client_blacklisted = true;
      }
    }
  }
  for (std::size_t j = 0; j < world.num_servers(); ++j) {
    r.server_dupes_dropped += world.server(j).stats().dupes_dropped;
  }
  r.faults = world.faults()->counts();
  r.workload = driver.metrics();
  return r;
}

/// The fault mixes the seed sweep rotates through.
inline ScenarioConfig mix_for_seed(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = 20180000 + seed;
  switch (seed % 5) {
    case 0:  // loss only
      cfg.drop = 0.10;
      break;
    case 1:  // loss + duplication
      cfg.drop = 0.05;
      cfg.duplicate = 0.10;
      break;
    case 2:  // loss + duplication + reordering
      cfg.drop = 0.05;
      cfg.duplicate = 0.05;
      cfg.reorder = 0.10;
      break;
    case 3:  // everything, including corruption
      cfg.drop = 0.05;
      cfg.duplicate = 0.05;
      cfg.reorder = 0.05;
      cfg.corrupt = 0.02;
      break;
    default:  // partition + crash windows on top of light loss
      cfg.drop = 0.02;
      cfg.partitions.push_back(
          {edge_id(0), kServerId, util::from_seconds(15),
           util::from_seconds(25)});
      cfg.crashes.push_back(
          {edge_id(1), util::from_seconds(30), util::from_seconds(36)});
      break;
  }
  return cfg;
}

}  // namespace cadet::testbed::chaos
