// Client-tier protocol engine (paper §II "Client").
//
// A client uploads excess entropy to its edge node, requests entropy when
// its local pool runs low, and optionally registers for encrypted delivery:
// a one-time client *initialization* (X25519 with a server, yielding the
// client-server key csk and a token) followed by cheap *reregistration*
// with any edge (token hash, yielding the client-edge key cek) — paper
// §V-B/§V-C.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cadet/dedup.h"
#include "cadet/node_common.h"
#include "cadet/packet.h"
#include "cadet/registration.h"
#include "entropy/pool.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/rng.h"

namespace cadet {

class ClientNode {
 public:
  struct Config {
    net::NodeId id = net::kInvalidNode;
    net::NodeId edge = net::kInvalidNode;
    net::NodeId server = net::kInvalidNode;
    std::uint64_t seed = 0;
    std::size_t pool_bits = kClientBufferBits;
    /// Requests unanswered after this long are expired (their callback
    /// fires with empty data). UDP gives no delivery guarantee, so without
    /// expiry a lost packet would leak a pending entry forever. Checked
    /// lazily, on the client's next packet in or out. With a wired `timer`
    /// the retry chain falls back at about 15 s (kMaxRequestRetries), so a
    /// client with traffic between 10 s and 15 s expires the request first.
    util::SimTime request_timeout = 10 * util::kSecond;
    /// Timer hook for retransmission/backoff (testbed::World wires it to
    /// the simulator). Null = lazy expiry only, no retries.
    EngineTimer timer;
    /// Shared metrics registry (testbed::World wires its own). When null
    /// the node keeps a private registry, so standalone nodes (unit tests)
    /// stay isolated.
    obs::Registry* metrics = nullptr;
  };

  /// Called when a data request completes: delivered bytes and the time.
  /// Empty `data` signals expiry (the request was lost in transit or the
  /// service could not answer in time).
  using RequestCallback =
      std::function<void(util::BytesView data, util::SimTime now)>;
  /// Called when a registration phase completes.
  using RegCallback = std::function<void(util::SimTime now)>;

  explicit ClientNode(const Config& config);

  net::NodeId id() const noexcept { return config_.id; }

  // ---- actions (each returns the packets to transmit) ----

  /// One-time client initialization with the server (Fig. 7b packet 1).
  std::vector<net::Outgoing> begin_init(util::SimTime now,
                                        RegCallback on_complete = {});

  /// Token-based reregistration with the local edge (Fig. 7c packet 1).
  /// Requires a completed init.
  std::vector<net::Outgoing> begin_rereg(util::SimTime now,
                                         RegCallback on_complete = {});

  /// Request `bits` bits of entropy from the edge. With `end_to_end` the
  /// delivery is sealed under the client-server key csk, so an untrusted
  /// edge relays it without being able to read it (paper §VIII); requires
  /// a completed initialization and always costs a server round trip.
  std::vector<net::Outgoing> request_entropy(std::uint16_t bits,
                                             util::SimTime now,
                                             RequestCallback on_complete = {},
                                             bool end_to_end = false);

  /// Upload an entropy contribution to the edge.
  std::vector<net::Outgoing> upload_entropy(util::Bytes payload,
                                            util::SimTime now);

  /// Handle an incoming packet.
  std::vector<net::Outgoing> on_packet(net::NodeId from, util::BytesView data,
                                       util::SimTime now);

  // ---- state inspection ----

  bool initialized() const noexcept { return csk_.has_value(); }
  bool reregistered() const noexcept { return cek_.has_value(); }
  entropy::EntropyPool& pool() noexcept { return pool_; }
  const entropy::EntropyPool& pool() const noexcept { return pool_; }
  CostMeter& cost() noexcept { return cost_; }
  std::uint64_t requests_fulfilled() const noexcept {
    return ctr_.requests_fulfilled->value();
  }
  std::uint64_t requests_expired() const noexcept {
    return ctr_.requests_expired->value();
  }
  std::uint64_t requests_retried() const noexcept {
    return ctr_.requests_retried->value();
  }
  /// Requests answered from the local CSPRNG after retries were exhausted
  /// (graceful degradation; Kietzmann et al.'s "fall back to local
  /// generation" guideline).
  std::uint64_t requests_fallback() const noexcept {
    return ctr_.requests_fallback->value();
  }
  std::uint64_t dupes_dropped() const noexcept {
    return ctr_.dupes_dropped->value();
  }
  std::size_t requests_pending() const noexcept { return pending_.size(); }

  /// Registry this node publishes to (its own unless Config wired one).
  obs::Registry& metrics() noexcept { return *metrics_; }

 private:
  std::vector<net::Outgoing> handle_init_ack(const Packet& packet,
                                             util::SimTime now);
  void handle_rereg_ack(const Packet& packet, util::SimTime now);
  void handle_data_ack(const Packet& packet, util::SimTime now);
  void expire_stale_requests(util::SimTime now);

  /// Stamp the next tx sequence number and serialize.
  util::Bytes wire(Packet packet);

  std::vector<net::Outgoing> send_init(util::SimTime now);
  std::vector<net::Outgoing> send_rereg(util::SimTime now);
  void schedule_init_retry();
  void schedule_rereg_retry();
  void schedule_request_retry(std::uint64_t request_id, std::size_t attempt);
  std::vector<net::Outgoing> retry_request(std::uint64_t request_id,
                                           util::SimTime now);

  Config config_;
  crypto::Csprng csprng_;
  util::Xoshiro256 rng_;  // backoff jitter (simulation-grade, seeded)
  entropy::EntropyPool pool_;
  CostMeter cost_;
  ReplayFilter replay_;
  std::uint16_t tx_seq_ = 0;

  // Metrics (owned registry only when none was wired via Config).
  std::shared_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_ = nullptr;
  struct Counters {
    obs::Counter* requests_sent = nullptr;
    obs::Counter* requests_fulfilled = nullptr;
    obs::Counter* requests_expired = nullptr;
    obs::Counter* requests_retried = nullptr;
    obs::Counter* requests_fallback = nullptr;
    obs::Counter* dupes_dropped = nullptr;
    obs::Counter* uploads_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
  } ctr_;

  // registration state
  std::optional<crypto::X25519KeyPair> init_keypair_;
  std::optional<Nonce> init_nonce_;
  std::optional<SharedKey> csk_;
  std::optional<Token> token_;
  std::optional<SharedKey> cek_;
  RegCallback on_init_complete_;
  RegCallback on_rereg_complete_;
  std::size_t init_attempts_ = 0;
  std::size_t rereg_attempts_ = 0;

  struct PendingRequest {
    std::uint16_t bits;
    RequestCallback callback;
    bool end_to_end = false;
    util::SimTime issued_at = 0;
    std::uint64_t id = 0;          // retry bookkeeping
    std::size_t attempts = 0;      // retransmissions so far
    util::Bytes wire;              // original datagram (same seq on retry)
    obs::SpanContext ctx;          // root span (request lifecycle)
  };
  std::deque<PendingRequest> pending_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace cadet
