// Sharded deterministic worlds: the million-client testbed.
//
// The per-node World (topology.h) models protocol fidelity at paper scale —
// 49 nodes, full crypto, per-packet CPU costs. ScaleWorld trades the
// per-node machinery for density and parallelism so the ROADMAP's "heavy
// traffic from millions of users" actually runs:
//
//   * Partitioning rule: one sub-world (shard) per edge subtree — the edge
//     node plus every client homed on it — and one more shard for the
//     server tier. The partition is a pure function of the topology, never
//     of the worker count.
//   * Each shard owns a private 4-ary-heap Simulator, a struct-of-arrays
//     ClientEngine (cadet/client_engine.h), the edge's ClientEconomics
//     table (cadet/economics.h: Eq. 1 usage, the heavy line, strikes plus
//     the arrival-rate floor, Table I penalties) and the edge's serve core
//     (cadet/cache.h), the ones EdgeNode polices and serves with, so a
//     shard's edge makes EdgeNode's decisions. Client<->edge traffic is
//     intra-shard, edge<->server traffic crosses through the conservative
//     MergeQueue (sim/merge_queue.h) ordered by {time, seq, shard}.
//   * Execution is windowed: every shard runs [t, t + W) to completion,
//     then a single-threaded barrier drains the merge queue and injects
//     the boundary events, with W equal to the minimum edge<->server
//     latency so no event can arrive inside the window that emitted it.
//     The window bodies may run on any executor (tools hand in
//     util::TaskPool the way cadet_sweep fans out across seeds); because
//     shards touch disjoint state inside a window and the barrier is
//     deterministic, same-seed traces are byte-identical for any -j —
//     checksum() is the witness the determinism tests pin.
//   * A retransmission timer is not an event when it is armed. Each shard
//     queues its timers in send order. At the start of a window it drops
//     the timers of requests answered in the window before, and sweeps the
//     ones that can fall due in this one: only a request still waiting for
//     its reply gets a client_retry event, at the exact due time. Answered
//     requests, nearly all of them, cost no event, and the trace is the
//     one a timer event per request would give.
//
// Where the paths still differ from the per-node engines, on purpose: no
// crypto or registration; SoA clients with one in-flight slot each; the
// heavy line refreshed on a 2 s scan, since a per-request refresh costs
// O(clients) per request; lost refills re-issued lazily only; and a
// retransmission of a handled request detected by request generation
// (ClientEngine::kHandled), not by wire sequence number.
//
// Faults mirror the FaultPlan idioms at shard granularity: iid datagram
// loss on the client<->edge wire and edge crash windows (an offline edge
// drops arriving traffic; clients ride their retry/fallback chains, refill
// responses lost to a crash are re-issued after kRefillTimeoutNs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cadet/cache.h"
#include "cadet/client_engine.h"
#include "cadet/economics.h"
#include "obs/shard_obs.h"
#include "sim/merge_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace cadet::testbed {

/// An edge that is offline (crashed) for [begin, end): arriving client
/// traffic and refill deliveries are dropped on the floor.
struct ScaleCrashWindow {
  std::uint32_t edge = 0;
  util::SimTime begin = 0;
  util::SimTime end = 0;
};

struct ScaleConfig {
  std::uint64_t seed = 42;
  std::size_t num_clients = 1'000'000;
  std::size_t clients_per_edge = 1024;
  double duration_s = 10.0;

  // Workload (per client, Poisson arrivals).
  double request_rate_hz = 0.25;
  double upload_rate_hz = 0.10;
  std::uint16_t request_bits = 512;   ///< consumed from the pool per tick
  std::uint32_t upload_bytes = 32;    ///< payload per producer upload
  double producer_fraction = 0.5;     ///< clients that also upload
  double bad_uploader_fraction = 0.0; ///< of producers: fail sanity checks
  double flooder_fraction = 0.0;      ///< hostile request floods
  double flooder_rate_hz = 8.0;

  /// Initial edge-cache fill as a fraction of capacity. Defaults just
  /// above the kCacheRefillFraction trigger so the edge<->server refill
  /// plane is exercised from early in the run instead of only after the
  /// population drains a full bootstrap cache.
  double initial_cache_fill = 0.3;

  // Faults.
  double drop_prob = 0.0;  ///< iid loss on the client<->edge wire
  std::vector<ScaleCrashWindow> crashes;

  /// Server-side true-entropy source, bytes/s. 0 = auto-size to ~125 % of
  /// the population's steady-state wire demand.
  double source_rate_bytes_per_s = 0.0;
};

/// Aggregated run counters (summed across shards; all deterministic).
/// publish_metrics exports them under the per-node engines' names.
struct ScaleStats {
  // Client request economics.
  std::uint64_t requests_sent = 0;   ///< wire requests (excl. retransmits)
  std::uint64_t local_serves = 0;    ///< ticks covered by the local pool
  std::uint64_t retried = 0;         ///< retransmissions
  std::uint64_t fulfilled = 0;
  std::uint64_t fallback = 0;  ///< retry chain exhausted: local CSPRNG
  /// Always 0 here (no lazy request_timeout); kept so the requests_sent
  /// identity reads the same on every path.
  std::uint64_t expired = 0;
  std::uint64_t stale_replies = 0;   ///< replies after the slot resolved
  std::uint64_t bytes_delivered = 0;
  // Edge serve decisions: every request a live edge handles ends in
  // exactly one of heavy_denied, cache_hits, cache_misses.
  std::uint64_t requests_received = 0;
  std::uint64_t heavy_denied = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;     ///< queued behind a refill
  std::uint64_t reserve_blocked = 0;  ///< of cache_misses: over the line
  // Uploads.
  std::uint64_t uploads_sent = 0;
  std::uint64_t uploads_accepted = 0;
  std::uint64_t uploads_dropped_penalty = 0;  ///< Eq. 2 gate, blacklisted too
  std::uint64_t uploads_rejected_sanity = 0;
  std::uint64_t blacklist_drops = 0;  ///< of uploads_dropped_penalty
  std::uint64_t blacklisted_clients = 0;
  // Faults.
  std::uint64_t wire_dropped_requests = 0;
  std::uint64_t wire_dropped_replies = 0;
  std::uint64_t wire_dropped_uploads = 0;
  std::uint64_t crash_dropped_requests = 0;
  std::uint64_t crash_dropped_uploads = 0;
  std::uint64_t crash_dropped_refills = 0;
  // Edge<->server boundary.
  std::uint64_t refills_requested = 0;
  std::uint64_t refill_reissues = 0;
  std::uint64_t refills_completed = 0;
  std::uint64_t upload_forwards = 0;
  std::uint64_t upload_forward_bytes = 0;
  std::uint64_t server_grants = 0;
  std::uint64_t server_grant_bytes = 0;
  std::uint64_t server_source_bytes = 0;
  std::uint64_t heavy_scan_flags = 0;  ///< sum of per-scan heavy counts
};

class ScaleWorld {
 public:
  /// Runs task(0), ..., task(count - 1), possibly concurrently; indices
  /// touch disjoint shards, so any schedule is valid. Empty = sequential.
  /// Deterministic tiers stay thread-free: the executor is an opaque
  /// callback, and tools pass util::TaskPool::run from outside.
  using Executor =
      std::function<void(std::size_t count,
                         const std::function<void(std::size_t)>& task)>;

  explicit ScaleWorld(const ScaleConfig& config);

  std::size_t num_edges() const noexcept { return shards_.size(); }
  std::size_t num_shards() const noexcept { return shards_.size() + 1; }
  std::size_t num_clients() const noexcept { return num_clients_; }
  util::SimTime window() const noexcept { return window_; }
  const ScaleConfig& config() const noexcept { return config_; }

  /// Run the configured duration plus drain (every in-flight request
  /// resolves). Returns the total events executed across all shards.
  /// A boundary event violating the conservative lookahead bound is a
  /// protocol bug; it is still injected (conservation holds) but counted
  /// in lookahead_violations() so operators see it as a metric and
  /// cadet_sim --scale exits non-zero.
  std::uint64_t run(const Executor& executor = {});

  /// Per-barrier progress snapshot handed to the window hook after each
  /// merge/fold. All fields are deterministic functions of the sim state.
  struct WindowReport {
    util::SimTime watermark = 0;    ///< merged sim-time watermark
    std::uint64_t batch = 0;        ///< boundary events injected here
    std::uint64_t events = 0;       ///< cumulative events executed
    std::uint64_t lookahead_violations = 0;  ///< cumulative
  };
  using WindowHook = std::function<void(const WindowReport&)>;

  /// Called single-threaded at every window barrier (after the merge
  /// drain, injection, and obs fold). Tools hang SLO ticks, metric
  /// publication, and admin progress snapshots off this.
  void set_window_hook(WindowHook hook) { window_hook_ = std::move(hook); }

  /// Destination for folded trace events (null = fold and discard).
  /// The fold happens at barriers in {ts, seq, shard} order, so a sink
  /// attached to the tracer sees a byte-identical stream at any -j.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  /// Master gates on the per-shard observability plane: enable_tracing
  /// buffers protocol trace events, enable_obs gates the always-on
  /// instruments (latency + boundary histograms).
  void enable_tracing(bool on) noexcept { plane_.enable_tracing(on); }
  void enable_obs(bool on) noexcept { plane_.set_enabled(on); }
  obs::ShardObsPlane& obs_plane() noexcept { return plane_; }
  const obs::ShardObsPlane& obs_plane() const noexcept { return plane_; }

  /// Publish the world's observables into `registry` under the per-node
  /// engines' cadet_<tier>_* names (deltas since the last publish;
  /// counters stay monotone). The first call registers every family, even
  /// at zero. Single-threaded: call from the window hook or after run().
  /// Exports from the registry are byte-identical at any -j.
  void publish_metrics(obs::Registry& registry);

  /// Conservative-lookahead violations observed at the merge boundary
  /// (0 on a healthy run; surfaced as cadet_shard_lookahead_violations).
  std::uint64_t lookahead_violations() const noexcept {
    return merge_.violations();
  }
  /// Merged sim-time watermark (end of the last completed window).
  util::SimTime watermark() const noexcept { return window_end_; }
  std::size_t boundary_pending() const noexcept { return merge_.pending(); }
  /// Events executed by edge shard `s` so far (the load-imbalance view).
  std::uint64_t shard_events(std::size_t s) const noexcept {
    return shards_[s]->sim.events_executed();
  }
  const ScaleStats& edge_stats(std::size_t s) const noexcept {
    return shards_[s]->stats;
  }
  const ClientEconomics& edge_economics(std::size_t s) const noexcept {
    return shards_[s]->econ;
  }

  std::uint64_t events_executed() const noexcept;
  /// Deterministic trace witness: per-shard FNV chains over every protocol
  /// event, combined in shard-index order with the boundary-injection
  /// chain. Byte-identical across executors for the same config.
  std::uint64_t checksum() const noexcept;
  ScaleStats stats() const noexcept;

  /// Boundary conservation counters (emitted must equal injected when
  /// run() returns).
  std::uint64_t boundary_emitted() const noexcept { return merge_.emitted(); }
  std::uint64_t boundary_injected() const noexcept {
    return boundary_injected_;
  }

  /// Heap bytes held by all shards: simulators, client engines, economics
  /// tables, cache queues, retry timers, merge queue, and shard
  /// bookkeeping. Divide by num_clients() for the bytes/client figure
  /// BENCH_7 gates.
  std::size_t memory_bytes() const noexcept;

 private:
  /// What a queued request needs to be answered.
  struct PendingReply {
    std::uint32_t client = 0;  ///< ClientEngine index
    std::uint16_t id = 0;      ///< request generation
  };
  using Cache = EdgeCache<PendingReply>;
  /// A retransmission timer the simulator has not been handed yet.
  struct RetryTimer {
    util::SimTime earliest = 0;  ///< send time + the shortest backoff
    util::SimTime due = 0;
    std::uint32_t client = 0;  ///< ClientEngine index
    std::uint16_t id = 0;      ///< request generation
  };
  struct EdgeShard {
    EdgeShard(std::uint32_t index, std::uint32_t clients)
        : index(index), clients(clients), cache(clients) {}
    sim::Simulator sim;
    std::unique_ptr<ClientEngine> engine;
    util::Xoshiro256 rng{0};
    std::uint32_t index = 0;
    std::uint32_t clients = 0;
    Cache cache;
    std::deque<RetryTimer> retries;  // in send order, so by `earliest`
    std::size_t retries_swept = 0;   // FIFO size after the last sweep
    std::uint64_t upload_buffer_bytes = 0;
    ClientEconomics econ;  // one slot per client, slot = client index
    std::vector<ScaleCrashWindow> crashes;
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    std::uint64_t refill_traces = 0;   // per-edge refill span counter
    std::uint64_t forward_traces = 0;  // per-edge upload-forward counter
    ScaleStats stats;
  };
  struct ServerShard {
    sim::Simulator sim;
    util::Xoshiro256 rng{0};
    std::int64_t pool_bytes = 0;
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    ScaleStats stats;
  };

  // Boundary event kinds.
  static constexpr std::uint32_t kRefillReq = 1;
  static constexpr std::uint32_t kRefillData = 2;
  static constexpr std::uint32_t kUploadFwd = 3;

  void step_shard(std::size_t s);
  void sweep_retries(EdgeShard& shard);
  void inject(const sim::BoundaryEvent& event);
  bool idle() const noexcept;

  // Intra-shard event bodies (client<->edge); `s` is the shard index.
  void request_tick(std::uint32_t s, std::uint32_t i);
  void send_request(std::uint32_t s, std::uint32_t i, std::uint16_t id,
                    std::uint8_t attempt);
  void edge_request(std::uint32_t s, std::uint32_t i, std::uint16_t id);
  void edge_reply(EdgeShard& shard, std::uint32_t i, std::uint16_t id,
                  std::size_t bytes);
  void client_reply(std::uint32_t s, std::uint32_t i, std::uint16_t id,
                    std::uint32_t grant_bits);
  void client_retry(std::uint32_t s, std::uint32_t i, std::uint16_t id);
  void upload_tick(std::uint32_t s, std::uint32_t i);
  void edge_upload(std::uint32_t s, std::uint32_t i);
  void edge_scan(std::uint32_t s);
  void send_refill(EdgeShard& shard, const Cache::Refill& refill);
  void edge_refill(std::uint32_t s, std::uint64_t bytes, std::uint64_t ctx);

  // Server-shard event bodies. `ctx` is the span context carried across
  // the boundary (0 = untraced).
  void server_refill(std::uint32_t edge, std::uint64_t want_bytes,
                     std::uint64_t ctx);
  void server_upload(std::uint64_t bytes, std::uint64_t ctx);
  void server_source_tick();

  util::SimTime lan_delay(EdgeShard& shard) noexcept;
  util::SimTime boundary_delay(util::Xoshiro256& rng) noexcept;
  bool offline(const EdgeShard& shard, util::SimTime t) const noexcept;

  ScaleConfig config_;
  std::size_t num_clients_ = 0;
  util::SimTime window_ = 0;
  util::SimTime horizon_ = 0;
  util::SimTime window_end_ = 0;
  double source_rate_ = 0.0;

  std::vector<std::unique_ptr<EdgeShard>> shards_;
  ServerShard server_;
  sim::MergeQueue merge_;
  std::uint64_t boundary_injected_ = 0;
  std::uint64_t boundary_checksum_ = 0xcbf29ce484222325ULL;

  // Observability plane: per-stream delta buffers + histograms, folded at
  // barriers (see obs/shard_obs.h for the determinism argument).
  obs::ShardObsPlane plane_;
  obs::Tracer* tracer_ = nullptr;
  WindowHook window_hook_;
  // Publication state: totals already pushed into a registry, so each
  // publish_metrics call emits only the monotone delta.
  ScaleStats published_;
  std::uint64_t published_events_ = 0;
  std::uint64_t published_violations_ = 0;
  std::uint64_t published_folded_ = 0;
  obs::HdrSnapshot published_latency_;
  obs::HdrSnapshot published_crossing_;
  obs::HdrSnapshot published_occupancy_;
  std::vector<std::uint64_t> published_shard_events_;
};

}  // namespace cadet::testbed
