// Builds the paper's 49-Pi testbed (Fig. 9) inside the simulator:
// four networks of 11 clients behind one edge each, one central server;
// clients at 20 MHz, edges at 300 MHz, the server at 600 MHz. A no-edge
// variant (clients wired straight to the server) backs the Fig. 10 "W/O"
// comparisons, and node counts are configurable so single-network
// experiments (Fig. 8) reuse the same builder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cadet/client_node.h"
#include "cadet/edge_node.h"
#include "cadet/server_node.h"
#include "net/faulty_transport.h"
#include "net/sim_transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "testbed/sim_node.h"

namespace cadet::testbed {

/// Behavioural profile of a client network (paper §VI-A): consumers mostly
/// request, producers mostly upload, balanced networks mix both.
enum class NetworkProfile { kConsumer, kProducer, kBalanced };

struct TestbedConfig {
  std::uint64_t seed = 42;
  std::size_t num_networks = 4;
  std::size_t clients_per_network = 11;
  /// Server-tier size (paper Fig. 1: "a collection of 1 to N devices").
  /// Edges and clients are assigned round-robin. Start ring pool exchange
  /// (Fig. 2 steps 10-11) with World::start_pool_exchange().
  std::size_t num_servers = 1;
  std::vector<NetworkProfile> profiles = {
      NetworkProfile::kConsumer, NetworkProfile::kBalanced,
      NetworkProfile::kBalanced, NetworkProfile::kProducer};
  /// false reproduces the Fig. 10 "W/O" runs: clients address the server
  /// directly and no aggregation or caching happens.
  bool use_edge = true;
  /// Latency between tiers; swap in internet_wan() for the paper's
  /// "real world" timing columns.
  sim::LatencyProfile client_link = sim::testbed_lan();
  sim::LatencyProfile backbone_link = sim::testbed_backbone();
  /// Server pool bootstrap (bytes of seed entropy).
  std::size_t server_seed_bytes = 1 << 16;
  PenaltyConfig penalty{};
  std::size_t upload_forward_bytes = kUploadForwardBytes;
  RefillPolicy refill_policy = RefillPolicy::kFixedFraction;
  bool inject_timing_entropy = false;
  std::size_t min_contributors = 1;
  /// Stage-2 heavy-user policing (outright denial after sustained
  /// strikes at flooding rate). Off reproduces the paper's prototype,
  /// which only reserve-blocks (§III-C) — the Fig. 8c score-trace
  /// experiment needs the raw Eq. 1 dynamics.
  bool heavy_denial_enabled = true;
  /// When set, every datagram crosses a FaultyTransport driven by this
  /// plan (chaos experiments); engines get retry timers either way.
  std::optional<net::FaultPlan> fault_plan;
};

/// Node-id plan: servers = 1 + j, edges = 100 + k, clients = 1000 + i.
inline constexpr net::NodeId kServerId = 1;
inline net::NodeId server_id(std::size_t j) {
  return static_cast<net::NodeId>(1 + j);
}
inline net::NodeId edge_id(std::size_t k) {
  return static_cast<net::NodeId>(100 + k);
}
inline net::NodeId client_id(std::size_t i) {
  return static_cast<net::NodeId>(1000 + i);
}

class World {
 public:
  explicit World(const TestbedConfig& config);

  sim::Simulator& simulator() noexcept { return sim_; }
  net::SimTransport& transport() noexcept { return *transport_; }
  /// Fault-injection layer; null unless the config carried a fault_plan.
  net::FaultyTransport* faults() noexcept { return faulty_.get(); }
  const TestbedConfig& config() const noexcept { return config_; }

  /// World-wide metrics registry. Every node, the transport, and the
  /// simulator publish here; each World owns its own so repeated runs
  /// (benches build many Worlds) never bleed counts into each other.
  obs::Registry& metrics() noexcept { return *metrics_; }

  /// Primary server (index 0); multi-server deployments use server(j).
  ServerNode& server() noexcept { return *servers_[0]; }
  SimNode& server_sim() noexcept { return *server_sims_[0]; }
  std::size_t num_servers() const noexcept { return servers_.size(); }
  ServerNode& server(std::size_t j) noexcept { return *servers_[j]; }
  SimNode& server_sim(std::size_t j) noexcept { return *server_sims_[j]; }

  std::size_t num_edges() const noexcept { return edges_.size(); }
  EdgeNode& edge(std::size_t k) noexcept { return *edges_[k]; }
  SimNode& edge_sim(std::size_t k) noexcept { return *edge_sims_[k]; }

  std::size_t num_clients() const noexcept { return clients_.size(); }
  ClientNode& client(std::size_t i) noexcept { return *clients_[i]; }
  SimNode& client_sim(std::size_t i) noexcept { return *client_sims_[i]; }

  /// Which network a client index belongs to.
  std::size_t network_of(std::size_t i) const noexcept {
    return i / config_.clients_per_network;
  }
  NetworkProfile profile_of(std::size_t i) const noexcept {
    return config_.profiles[network_of(i)];
  }

  /// Register every edge with the server and run the exchanges to
  /// completion. No-op in no-edge mode.
  void register_edges();

  /// Run client initialization (and reregistration when edges exist) for
  /// every client, to completion.
  void register_clients();

  /// Begin periodic ring pool exchange between servers (Fig. 2 steps
  /// 10-11): every `period_s`, each server ships `bytes` of its oldest
  /// pool data to the next server, until simulated time `until_s`.
  void start_pool_exchange(double period_s, std::size_t bytes,
                           double until_s);

 private:
  void schedule_pool_exchange(double period_s, std::size_t bytes,
                              double until_s);

  TestbedConfig config_;
  // Declared before the nodes so it outlives them (nodes hold raw
  // instrument pointers into the registry).
  std::shared_ptr<obs::Registry> metrics_;
  sim::Simulator sim_;
  std::unique_ptr<net::SimTransport> transport_;
  std::unique_ptr<net::FaultyTransport> faulty_;

  std::vector<std::unique_ptr<ServerNode>> servers_;
  std::vector<std::unique_ptr<SimNode>> server_sims_;
  std::vector<std::unique_ptr<EdgeNode>> edges_;
  std::vector<std::unique_ptr<SimNode>> edge_sims_;
  std::vector<std::unique_ptr<ClientNode>> clients_;
  std::vector<std::unique_ptr<SimNode>> client_sims_;
};

}  // namespace cadet::testbed
