// Transport implementation over the discrete-event simulator. Latency per
// directed link comes from a LatencyProfile (default: testbed LAN); packet
// and byte counters feed the Fig. 10 load-accounting experiments.
//
// Hot-path layout: each node's handler and traffic counters live together
// in one NodeState, so a send touches exactly one hash lookup per endpoint
// (the old code did 3-4: handlers_, counters_ twice, and an ordered-map
// walk for the link profile). The destination's NodeState pointer is
// resolved at send time and captured by the delivery closure —
// unordered_map references are stable, so no lookup happens at delivery.
// Link-profile overrides sit in a flat hash map keyed by the packed
// (from, to) pair, with an empty-map fast path for the common
// default-profile case. Payloads move (never copy) from send() through the
// scheduled delivery into the handler, and their storage is recycled
// through util::BufferPool afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace cadet::net {

class SimTransport final : public Transport {
 public:
  SimTransport(sim::Simulator& simulator, std::uint64_t seed);

  void send(NodeId from, NodeId to, util::Bytes data) override;
  void set_handler(NodeId id, PacketHandler handler) override;

  /// Pre-size the node and link tables (topology build time) so steady-state
  /// sends never rehash.
  void reserve(std::size_t nodes, std::size_t links = 0);

  /// Latency profile for every link without an explicit override.
  void set_default_profile(const sim::LatencyProfile& profile);

  /// Override the profile of the directed link from -> to.
  void set_link_profile(NodeId from, NodeId to,
                        const sim::LatencyProfile& profile);

  /// Per-node traffic accounting.
  struct NodeCounters {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
  };
  const NodeCounters& counters(NodeId id) const;
  std::uint64_t total_packets() const noexcept { return total_packets_; }
  std::uint64_t dropped_packets() const noexcept { return dropped_packets_; }
  void reset_counters();

  /// Publish link-layer totals (cadet_net_packets / _bytes / _dropped
  /// counters, cadet_net_latency_seconds histogram) to `registry`, which
  /// must outlive the transport.
  void bind_metrics(obs::Registry& registry);

 private:
  /// Handler + counters of one node, colocated so the send path resolves
  /// both with a single lookup. References into nodes_ stay valid across
  /// rehashes (unordered_map guarantees element stability), which is what
  /// lets delivery closures capture NodeState pointers.
  struct NodeState {
    PacketHandler handler;
    NodeCounters counters;
  };

  static constexpr std::uint64_t link_key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) |
           static_cast<std::uint64_t>(to);
  }

  const sim::LatencyProfile& profile_for(NodeId from, NodeId to) const;
  void count_unbound_drop(NodeId from, NodeId to);

  sim::Simulator& simulator_;
  util::Xoshiro256 rng_;
  sim::LatencyProfile default_profile_;
  std::unordered_map<std::uint64_t, sim::LatencyProfile> link_profiles_;
  mutable std::unordered_map<NodeId, NodeState> nodes_;
  std::uint64_t total_packets_ = 0;
  std::uint64_t dropped_packets_ = 0;

  obs::Counter* packets_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::HdrHistogram* latency_hist_ = nullptr;
};

}  // namespace cadet::net
