// Server-tier protocol engine (paper §II "Server", Fig. 2 right column).
//
// Central servers do the heavy lifting: bulk storage in the entropy pool,
// the Yarrow-style mixing function, periodic NIST quality checks on pool
// contents, their own sanity/penalty gate on edge uploads, the registration
// database (edge keys, client keys, client tokens), and occasional pool
// exchange with peer servers (Fig. 2 steps 10-11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cadet/dedup.h"
#include "cadet/economics.h"
#include "cadet/node_common.h"
#include "cadet/packet.h"
#include "cadet/provenance.h"
#include "cadet/registration.h"
#include "entropy/yarrow.h"
#include "net/transport.h"
#include "nist/battery.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/rng.h"

namespace cadet {

class ServerNode {
 public:
  struct Config {
    net::NodeId id = net::kInvalidNode;
    std::uint64_t seed = 0;
    std::size_t pool_capacity_bytes = 1 << 20;
    PenaltyConfig penalty{};
    bool sanity_checks_enabled = true;
    /// Run a quality check after this many bytes have been mixed in
    /// (0 disables periodic checks).
    std::size_t quality_check_interval_bytes = 64 * 1024;
    /// Bits inspected per quality check (paper: 50 000-bit accumulations).
    std::size_t quality_check_bits = 50000;
    /// Peer servers for pool exchange.
    std::vector<net::NodeId> peers;
    /// Shared metrics registry (testbed::World wires its own). When null
    /// the node keeps a private registry, so standalone nodes (unit tests)
    /// stay isolated.
    obs::Registry* metrics = nullptr;
  };

  explicit ServerNode(const Config& config);

  net::NodeId id() const noexcept { return config_.id; }

  /// Handle an incoming packet from an edge, client, or peer server.
  std::vector<net::Outgoing> on_packet(net::NodeId from, util::BytesView data,
                                       util::SimTime now);

  /// Partial pool exchange with a peer server (Fig. 2 steps 10-11): pop
  /// `bytes` from the local pool head and ship them to `peer`, which mixes
  /// them like any other contribution.
  std::vector<net::Outgoing> begin_pool_exchange(net::NodeId peer,
                                                 std::size_t bytes);

  /// Seed the pool directly (deployment bootstrap; the paper's servers
  /// start with locally harvested entropy).
  void seed_pool(util::BytesView bytes);

  /// Run the quality battery on the pool head right now.
  nist::BatteryResult run_quality_check();

  // ---- state inspection ----
  entropy::ServerEntropyPool& pool() noexcept { return pool_; }
  const entropy::ServerEntropyPool& pool() const noexcept { return pool_; }
  entropy::YarrowMixer& mixer() noexcept { return mixer_; }
  /// Upload penalties per uploading peer (edge or direct client).
  ClientEconomics& economics() noexcept { return econ_; }
  const ClientEconomics& economics() const noexcept { return econ_; }
  CostMeter& cost() noexcept { return cost_; }
  bool edge_registered(net::NodeId edge) const {
    return edge_keys_.contains(edge);
  }
  bool client_known(net::NodeId client) const {
    return client_records_.contains(client);
  }

  struct Stats {
    std::uint64_t uploads_received = 0;
    std::uint64_t uploads_dropped_penalty = 0;
    std::uint64_t uploads_rejected_sanity = 0;
    std::uint64_t bytes_mixed = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t bytes_served = 0;
    std::uint64_t requests_short = 0;  // pool couldn't fully cover a request
    std::uint64_t quality_checks_run = 0;
    std::uint64_t quality_checks_failed = 0;
    std::uint64_t pool_exchanges = 0;
    std::uint64_t dupes_dropped = 0;  // duplicate data packets suppressed
  };
  /// Snapshot assembled from the registry counters (the counters are the
  /// single source of truth; this keeps existing call sites working).
  Stats stats() const noexcept;

  /// Registry this node publishes to (its own unless Config wired one).
  obs::Registry& metrics() noexcept { return *metrics_; }

 private:
  std::vector<net::Outgoing> handle_data(net::NodeId from,
                                         const Packet& packet,
                                         util::SimTime now);
  std::vector<net::Outgoing> handle_registration(net::NodeId from,
                                                 const Packet& packet,
                                                 util::SimTime now);
  void mix_contribution(util::BytesView payload, util::SimTime now,
                        obs::SpanContext ctx = {});
  void maybe_quality_check();

  /// Stamp the next tx sequence number and serialize.
  util::Bytes wire(Packet packet);

  Config config_;
  crypto::Csprng csprng_;
  util::Xoshiro256 rng_;
  entropy::ServerEntropyPool pool_;
  entropy::YarrowMixer mixer_;
  ClientEconomics econ_;
  SanityChecker sanity_;
  nist::QualityBattery quality_;
  CostMeter cost_;
  ReplayFilter replay_;
  std::uint16_t tx_seq_ = 0;

  // Metrics (owned registry only when none was wired via Config).
  std::shared_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_ = nullptr;
  struct Counters {
    obs::Counter* uploads_received = nullptr;
    obs::Counter* uploads_dropped_penalty = nullptr;
    obs::Counter* uploads_rejected_sanity = nullptr;
    obs::Counter* bytes_mixed = nullptr;
    obs::Counter* requests_served = nullptr;
    obs::Counter* bytes_served = nullptr;
    obs::Counter* requests_short = nullptr;
    obs::Counter* quality_checks_run = nullptr;
    obs::Counter* quality_checks_failed = nullptr;
    obs::Counter* pool_exchanges = nullptr;
    obs::Counter* dupes_dropped = nullptr;
  } ctr_;
  // Provenance watermarks: newest / oldest mixing generation still live in
  // the pool (see provenance.h for the approximate-FIFO caveat).
  obs::Gauge* prov_newest_gauge_ = nullptr;
  obs::Gauge* prov_oldest_gauge_ = nullptr;

  // Handshakes in flight: peer id -> (derived key, expected confirm nonce).
  struct PendingHandshake {
    SharedKey key;
    Nonce expected_confirm;
    bool is_client = false;
  };
  std::unordered_map<net::NodeId, PendingHandshake> pending_;

  std::unordered_map<net::NodeId, SharedKey> edge_keys_;  // esk per edge
  struct ClientRecord {
    SharedKey csk;
    Token token;
  };
  std::unordered_map<net::NodeId, ClientRecord> client_records_;

  std::uint64_t bytes_since_quality_check_ = 0;

  /// Pool lineage: one generation per mixed contribution, debited on every
  /// pool draw (serves, quality-check drops, peer exchanges).
  ProvenanceLedger prov_;
  std::uint64_t mix_generation_ = 0;
};

}  // namespace cadet
