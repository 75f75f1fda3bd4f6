// Edge-tier protocol engine (paper §II "Edge", Fig. 2 middle column).
//
// The edge is the LAN gateway: it aggregates client uploads into bulk
// transfers (slashing server load ~98 %, Fig. 10a), answers most entropy
// requests from a local cache, polices uploads with sanity checks + the
// penalty scores, tracks per-client EWMA usage to shield a reserve cache
// partition from heavy users (both in one ClientEconomics table), and
// brokers client reregistration.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cadet/cache.h"
#include "cadet/dedup.h"
#include "cadet/node_common.h"
#include "cadet/economics.h"
#include "cadet/packet.h"
#include "cadet/provenance.h"
#include "cadet/registration.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/rng.h"

namespace cadet {

class EdgeNode {
 public:
  struct Config {
    net::NodeId id = net::kInvalidNode;
    net::NodeId server = net::kInvalidNode;
    std::uint64_t seed = 0;
    std::size_t num_clients = 11;  // sizes the cache (Fig. 9: 11 per edge)
    std::size_t upload_forward_bytes = kUploadForwardBytes;
    PenaltyConfig penalty{};
    bool sanity_checks_enabled = true;
    RefillPolicy refill_policy = RefillPolicy::kFixedFraction;
    /// §VI-D3 mitigation: harvest CADET packet inter-arrival jitter at the
    /// edge and inject it between client contributions in the bulk upload,
    /// diluting an attacker who controls many uploaders.
    bool inject_timing_entropy = false;
    /// §VI-D3 mitigation: require contributions from at least this many
    /// distinct clients before forwarding the aggregate payload.
    std::size_t min_contributors = 1;
    /// Stage-2 heavy-user policing: deny requests outright after
    /// kUsageHeavyStrikeLimit consecutive over-line strikes at flooding
    /// rate. Disabled = the paper prototype's reserve-blocking only.
    bool heavy_denial_enabled = true;
    /// Timer hook for retransmission/backoff (testbed::World wires it to
    /// the simulator). Null = lazy, traffic-driven timeouts only.
    EngineTimer timer;
    /// Shared metrics registry (testbed::World wires its own). When null
    /// the node keeps a private registry, so standalone nodes (unit tests)
    /// stay isolated.
    obs::Registry* metrics = nullptr;
  };

  using RegCallback = std::function<void(util::SimTime now)>;

  /// What a queued request needs to be answered: its client and trace.
  struct PendingReply {
    net::NodeId client = net::kInvalidNode;
    obs::SpanContext ctx;
  };
  using Cache = EdgeCache<PendingReply>;

  explicit EdgeNode(const Config& config);

  net::NodeId id() const noexcept { return config_.id; }

  /// Register this edge with the server tier (Fig. 7a packet 1).
  std::vector<net::Outgoing> begin_edge_reg(util::SimTime now,
                                            RegCallback on_complete = {});

  /// Handle an incoming packet from a client or the server.
  std::vector<net::Outgoing> on_packet(net::NodeId from, util::BytesView data,
                                       util::SimTime now);

  // ---- state inspection ----
  bool registered() const noexcept { return esk_.has_value(); }
  /// The serve core: fill, reserve, pending queue and refill decisions.
  const Cache& cache() const noexcept { return cache_; }
  /// Per-client usage, strikes, arrivals and penalties, keyed by client id.
  ClientEconomics& economics() noexcept { return econ_; }
  const ClientEconomics& economics() const noexcept { return econ_; }
  CostMeter& cost() noexcept { return cost_; }
  /// Requests from this client refused outright after sustained heavy
  /// usage (strike escalation). Unlike ClientEconomics::is_heavy — an
  /// instantaneous, intentionally noisy flag — this counts actual
  /// enforcement decisions and never resets, so it is the right signal
  /// for "was this client ever policed as heavy".
  std::uint64_t heavy_denials(net::NodeId client) const noexcept {
    const auto it = heavy_denied_.find(client);
    return it == heavy_denied_.end() ? 0 : it->second;
  }

  struct Stats {
    std::uint64_t uploads_received = 0;
    std::uint64_t uploads_dropped_penalty = 0;
    std::uint64_t uploads_rejected_sanity = 0;
    std::uint64_t uploads_accepted = 0;
    std::uint64_t bulk_uploads_sent = 0;
    std::uint64_t requests_received = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t heavy_rejections = 0;  // heavy user blocked from reserve
    std::uint64_t e2e_forwarded = 0;     // untrusted-edge relays
    std::uint64_t timing_bytes_injected = 0;
    std::uint64_t reregistrations = 0;   // recoveries from a lost esk
    std::uint64_t dupes_dropped = 0;     // duplicate data packets suppressed
    std::uint64_t refill_retries = 0;    // timer-driven refill re-issues
    std::uint64_t bytes_delivered = 0;   // entropy bytes shipped to clients
  };
  /// Snapshot assembled from the registry counters (the counters are the
  /// single source of truth; this keeps existing call sites working).
  Stats stats() const noexcept;

  /// Registry this node publishes to (its own unless Config wired one).
  obs::Registry& metrics() noexcept { return *metrics_; }

 private:
  std::vector<net::Outgoing> handle_client_upload(net::NodeId client,
                                                  const Packet& packet,
                                                  util::SimTime now);
  std::vector<net::Outgoing> handle_client_request(net::NodeId client,
                                                   const Packet& packet,
                                                   util::SimTime now);
  std::vector<net::Outgoing> handle_server_data(const Packet& packet,
                                                util::SimTime now);
  std::vector<net::Outgoing> handle_reg_packet(net::NodeId from,
                                               const Packet& packet,
                                               util::SimTime now);
  net::Outgoing make_client_delivery(net::NodeId client, util::Bytes data,
                                     obs::SpanContext ctx);
  /// Carry out a refill decision of the core.
  std::vector<net::Outgoing> send_refill(const Cache::Refill& refill,
                                         util::SimTime now);
  /// Pop `n` bytes the core debited off the front of the byte FIFO, and
  /// debit the refill batches that fed them (entropy provenance).
  std::pair<util::Bytes, ProvenanceLedger::Range> take_bytes(std::size_t n);

  /// Stamp the next tx sequence number and serialize.
  util::Bytes wire(Packet packet);
  std::vector<net::Outgoing> send_edge_reg(util::SimTime now);
  void schedule_reg_retry();
  void schedule_refill_retry();

  Config config_;
  crypto::Csprng csprng_;
  util::Xoshiro256 rng_;
  Cache cache_;
  /// The cached entropy, oldest first; always cache_.size_bytes() long.
  std::deque<std::uint8_t> cache_bytes_;
  ClientEconomics econ_;
  SanityChecker sanity_;
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
    obs::Counter* uploads_accepted = nullptr;
    obs::Counter* bulk_uploads_sent = nullptr;
    obs::Counter* requests_received = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* heavy_rejections = nullptr;
    obs::Counter* e2e_forwarded = nullptr;
    obs::Counter* timing_bytes_injected = nullptr;
    obs::Counter* reregistrations = nullptr;
    obs::Counter* dupes_dropped = nullptr;
    obs::Counter* refill_retries = nullptr;
    obs::Counter* bytes_delivered = nullptr;
  } ctr_;
  obs::Gauge* cache_gauge_ = nullptr;
  // Provenance watermarks: newest / oldest refill batch still feeding the
  // cache (see provenance.h for the approximate-FIFO caveat).
  obs::Gauge* prov_newest_gauge_ = nullptr;
  obs::Gauge* prov_oldest_gauge_ = nullptr;

  util::Bytes upload_buffer_;
  std::set<net::NodeId> buffer_contributors_;

  // Timing-jitter harvest state (inject_timing_entropy).
  std::array<std::uint8_t, 32> timing_state_{};
  util::SimTime last_packet_at_ = 0;
  std::uint64_t timing_counter_ = 0;

  // edge registration state
  std::optional<crypto::X25519KeyPair> reg_keypair_;
  std::optional<Nonce> reg_nonce_;
  std::optional<SharedKey> esk_;
  RegCallback on_reg_complete_;
  std::size_t reg_attempts_ = 0;

  // client-edge keys established via reregistration
  std::unordered_map<net::NodeId, SharedKey> client_keys_;

  /// Total outright denials per client (monotone; see heavy_denials()).
  std::map<net::NodeId, std::uint64_t> heavy_denied_;
  /// Cache lineage: one batch id per refill insert, debited on every take.
  ProvenanceLedger prov_;
  std::uint64_t refill_batch_ = 0;
  /// Root span of the outstanding refill trace (invalid when none).
  obs::SpanContext refill_ctx_;
  /// Bumped whenever a refill request leaves; a retry timer only acts if
  /// its captured epoch still matches (i.e. no response arrived meanwhile).
  std::uint64_t refill_epoch_ = 0;
  std::size_t refill_retries_ = 0;
  std::size_t consecutive_open_failures_ = 0;

  /// Extract up to n bytes from the timing-jitter state.
  util::Bytes harvest_timing_bytes(std::size_t n);

  /// Track a sealed-open failure; may trigger re-registration.
  std::vector<net::Outgoing> note_open_failure(util::SimTime now);
};

}  // namespace cadet
