#include "testbed/scale.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "cadet/node_common.h"
#include "nist/battery.h"

namespace cadet::testbed {
namespace {

// Latency model. The client<->edge wire is the testbed LAN; the
// edge<->server boundary rides a metro backbone. The window length equals
// the boundary's MINIMUM latency — that is the whole conservative
// synchronization argument: an event emitted inside window [t, t+W) is
// delivered at emit_time + W + jitter >= t + W, i.e. never inside the
// window that emitted it.
constexpr util::SimTime kLanBaseNs = 200 * util::kMicrosecond;
constexpr util::SimTime kLanJitterNs = 100 * util::kMicrosecond;
constexpr util::SimTime kBoundaryBaseNs = 8 * util::kMillisecond;
constexpr util::SimTime kBoundaryJitterNs = 2 * util::kMillisecond;

// Heavy-user scans refresh each edge's heavy line every couple of seconds
// (EdgeNode refreshes it per request; at 1024 clients per edge the scan is
// the amortized form). Requests between scans are judged against it.
constexpr util::SimTime kScanPeriodNs = 2 * util::kSecond;
constexpr util::SimTime kSourcePeriodNs = 500 * util::kMillisecond;

// The shortest retransmission wait backoff_delay can draw (attempt 0, the
// lowest jitter). A retry timer queued in a window is never due in it, so
// the sweep at each window start hands the simulator every timer that
// can fall due in that window.
constexpr util::SimTime kRetryEarliestNs =
    backoff_delay(kRequestRetryBaseNs, 0, 0.0);
static_assert(kRetryEarliestNs > kBoundaryBaseNs,
              "a retry timer must not fall due in the window that queued it");

// Event-kind tags folded into the per-shard trace checksums.
enum : std::uint64_t {
  kFoldRequest = 1,
  kFoldFulfilled = 2,
  kFoldFallback = 3,
  kFoldHeavyDeny = 5,
  kFoldCacheMiss = 6,
  kFoldUpload = 7,
  kFoldUploadBad = 8,
  kFoldRefillReq = 9,
  kFoldRefillData = 10,
  kFoldScan = 11,
  kFoldServerGrant = 12,
  kFoldServerUpload = 13,
  kFoldBoundary = 14,
};

inline void fold(std::uint64_t& cs, std::uint64_t x) noexcept {
  cs = (cs ^ x) * 0x100000001b3ULL;
}

inline void fold_event(std::uint64_t& cs, std::uint64_t kind,
                       std::uint64_t node, util::SimTime time,
                       std::uint64_t extra) noexcept {
  fold(cs, kind);
  fold(cs, node);
  fold(cs, static_cast<std::uint64_t>(time));
  fold(cs, extra);
}

// Trace-id construction for the scale spans. The top two bits partition
// the id space by span kind so ids never collide across kinds:
//   10 request span   (gid << 16 | pending id)
//   01 refill span    (edge shard << 32 | per-edge counter)
//   11 upload forward (edge shard << 32 | per-edge counter)
inline std::uint64_t request_trace(std::uint32_t gid,
                                   std::uint16_t id) noexcept {
  return (std::uint64_t{1} << 63) | (std::uint64_t{gid} << 16) | id;
}
inline std::uint64_t refill_trace(std::uint32_t shard,
                                  std::uint64_t n) noexcept {
  return (std::uint64_t{1} << 62) | (std::uint64_t{shard} << 32) | n;
}
inline std::uint64_t forward_trace(std::uint32_t shard,
                                   std::uint64_t n) noexcept {
  return (std::uint64_t{3} << 62) | (std::uint64_t{shard} << 32) | n;
}

// A trace's root span id equals its trace id; the zero-length 'X' children
// (edge serve decisions, server grants) all take this id, which no root
// ever has.
constexpr std::uint64_t kChildSpan = 2;

/// Build one scale trace event; callers append payload attrs (two slots
/// stay free — ShardObs::emit stamps {shard, seq} into the other two).
inline obs::TraceEvent scale_event(util::SimTime ts, const char* name,
                                   const char* tier, std::uint64_t node,
                                   char phase, std::uint64_t trace,
                                   std::uint64_t span,
                                   std::uint64_t parent) noexcept {
  obs::TraceEvent event;
  event.ts = ts;
  event.name = name;
  event.tier = tier;
  event.node = node;
  event.phase = phase;
  event.trace = trace;
  event.span = span;
  event.parent = parent;
  return event;
}

inline void add_attr(obs::TraceEvent& event, const char* key,
                     double value) noexcept {
  if (event.num_attrs < event.attrs.size()) {
    event.attrs[event.num_attrs++] = {key, value};
  }
}

void add_stats(ScaleStats& into, const ScaleStats& from) noexcept {
  into.requests_sent += from.requests_sent;
  into.local_serves += from.local_serves;
  into.retried += from.retried;
  into.fulfilled += from.fulfilled;
  into.fallback += from.fallback;
  into.expired += from.expired;
  into.stale_replies += from.stale_replies;
  into.bytes_delivered += from.bytes_delivered;
  into.requests_received += from.requests_received;
  into.heavy_denied += from.heavy_denied;
  into.cache_hits += from.cache_hits;
  into.cache_misses += from.cache_misses;
  into.reserve_blocked += from.reserve_blocked;
  into.uploads_sent += from.uploads_sent;
  into.uploads_accepted += from.uploads_accepted;
  into.uploads_dropped_penalty += from.uploads_dropped_penalty;
  into.uploads_rejected_sanity += from.uploads_rejected_sanity;
  into.blacklist_drops += from.blacklist_drops;
  into.blacklisted_clients += from.blacklisted_clients;
  into.wire_dropped_requests += from.wire_dropped_requests;
  into.wire_dropped_replies += from.wire_dropped_replies;
  into.wire_dropped_uploads += from.wire_dropped_uploads;
  into.crash_dropped_requests += from.crash_dropped_requests;
  into.crash_dropped_uploads += from.crash_dropped_uploads;
  into.crash_dropped_refills += from.crash_dropped_refills;
  into.refills_requested += from.refills_requested;
  into.refill_reissues += from.refill_reissues;
  into.refills_completed += from.refills_completed;
  into.upload_forwards += from.upload_forwards;
  into.upload_forward_bytes += from.upload_forward_bytes;
  into.server_grants += from.server_grants;
  into.server_grant_bytes += from.server_grant_bytes;
  into.server_source_bytes += from.server_source_bytes;
  into.heavy_scan_flags += from.heavy_scan_flags;
}

}  // namespace

ScaleWorld::ScaleWorld(const ScaleConfig& config)
    : config_(config),
      num_clients_(config.num_clients),
      window_(kBoundaryBaseNs),
      horizon_(util::from_seconds(config.duration_s)),
      merge_((config.num_clients + config.clients_per_edge - 1) /
                 std::max<std::size_t>(config.clients_per_edge, 1) +
             1),
      plane_((config.num_clients + config.clients_per_edge - 1) /
             std::max<std::size_t>(config.clients_per_edge, 1)) {
  if (config_.num_clients == 0 || config_.clients_per_edge == 0) {
    throw std::invalid_argument("ScaleWorld: need clients and an edge size");
  }
  if (config_.duration_s <= 0.0 || config_.request_rate_hz <= 0.0) {
    throw std::invalid_argument("ScaleWorld: need a duration and a rate");
  }
  const std::size_t num_edges =
      (num_clients_ + config_.clients_per_edge - 1) / config_.clients_per_edge;

  // Auto-size the server source to ~125 % of the population's steady wire
  // demand (each tick either drains the pool locally or asks the edge for
  // 2x, so the long-run wire demand is rate * request_bits per client).
  source_rate_ = config_.source_rate_bytes_per_s > 0.0
                     ? config_.source_rate_bytes_per_s
                     : static_cast<double>(num_clients_) *
                           config_.request_rate_hz *
                           (config_.request_bits / 8.0) * 1.25;
  server_.rng = util::Xoshiro256(config_.seed ^ 0x5eedULL);
  server_.pool_bytes = static_cast<std::int64_t>(source_rate_ * 2.0);
  server_.sim.reserve(64);
  server_.sim.schedule_at(kSourcePeriodNs, [this] { server_source_tick(); });

  shards_.reserve(num_edges);
  for (std::size_t k = 0; k < num_edges; ++k) {
    const std::size_t first = k * config_.clients_per_edge;
    auto shard = std::make_unique<EdgeShard>(
        static_cast<std::uint32_t>(k),
        static_cast<std::uint32_t>(
            std::min(config_.clients_per_edge, num_clients_ - first)));
    ClientEngine::Config engine_config;
    // Same seed-mixing shape as the per-node World builders so shards stay
    // decorrelated without sharing any generator state.
    engine_config.seed = config_.seed * 40503ULL + 7 * k + 3;
    engine_config.first_id = static_cast<std::uint32_t>(1000 + first);
    engine_config.count = shard->clients;
    shard->engine = std::make_unique<ClientEngine>(engine_config);
    shard->econ = ClientEconomics({}, kUsageDecay, shard->clients);
    shard->rng = util::Xoshiro256(config_.seed ^ (0x9e3779b9ULL * (k + 1)));
    shard->cache.insert(static_cast<std::size_t>(
        static_cast<double>(shard->cache.capacity_bytes()) *
        std::clamp(config_.initial_cache_fill, 0.0, 1.0)));
    for (const ScaleCrashWindow& crash : config_.crashes) {
      if (crash.edge == shard->index) shard->crashes.push_back(crash);
    }
    // Steady state holds one pending request tick per client and one
    // upload tick per producer (every client, at producer_fraction 1), plus
    // the shard's few in-flight messages and live retry timers; answered
    // requests never schedule theirs.
    shard->sim.reserve(2 * shard->clients + 64);

    ClientEngine& engine = *shard->engine;
    const std::uint32_t s = shard->index;
    for (std::uint32_t i = 0; i < shard->clients; ++i) {
      const double role = engine.uniform01(i);
      if (role < config_.flooder_fraction) {
        engine.set_flag(i, ClientEngine::kFlooder);
      } else if (role < config_.flooder_fraction + config_.producer_fraction) {
        engine.set_flag(i, ClientEngine::kProducer);
        if (engine.uniform01(i) < config_.bad_uploader_fraction) {
          engine.set_flag(i, ClientEngine::kBadUploader);
        }
      }
      const double request_mean =
          engine.has(i, ClientEngine::kFlooder)
              ? 1.0 / config_.flooder_rate_hz
              : 1.0 / config_.request_rate_hz;
      const util::SimTime first_tick =
          util::from_seconds(engine.next_exp(i, request_mean));
      if (first_tick <= horizon_) {
        shard->sim.schedule_at(first_tick,
                               [this, s, i] { request_tick(s, i); });
      }
      if (engine.has(i, ClientEngine::kProducer) &&
          config_.upload_rate_hz > 0.0) {
        const util::SimTime first_upload = util::from_seconds(
            engine.next_exp(i, 1.0 / config_.upload_rate_hz));
        if (first_upload <= horizon_) {
          shard->sim.schedule_at(first_upload,
                                 [this, s, i] { upload_tick(s, i); });
        }
      }
    }
    shard->sim.schedule_at(kScanPeriodNs, [this, s] { edge_scan(s); });
    shards_.push_back(std::move(shard));
  }
}

std::uint64_t ScaleWorld::run(const Executor& executor) {
  std::vector<sim::BoundaryEvent> batch;
  const std::function<void(std::size_t)> task = [this](std::size_t s) {
    step_shard(s);
  };
  for (;;) {
    window_end_ += window_;
    if (executor) {
      executor(num_shards(), task);
    } else {
      for (std::size_t s = 0; s < num_shards(); ++s) step_shard(s);
    }
    // Single-threaded barrier: merge in {time, seq, shard} order and
    // inject into the destination shards for the next window. A drain
    // reporting a lookahead violation is a protocol bug — it is counted
    // (merge_.violations(), surfaced as a metric and a non-zero tool
    // exit) but the events still inject so conservation holds and the
    // run stays inspectable.
    merge_.drain(window_end_, batch);
    plane_.record_batch(batch.size());
    for (const sim::BoundaryEvent& event : batch) inject(event);
    boundary_injected_ += batch.size();
    // Fold the per-stream obs buffers up to the merged watermark: every
    // stream has now completed the window, so all events below the
    // watermark exist and the fold order is final.
    plane_.fold_window(tracer_, window_end_);
    if (window_hook_) {
      WindowReport report;
      report.watermark = window_end_;
      report.batch = batch.size();
      report.events = events_executed();
      report.lookahead_violations = merge_.violations();
      window_hook_(report);
    }
    if (window_end_ > horizon_ && batch.empty() && idle()) break;
  }
  // Belt and braces: a healthy run has nothing left (every held event's
  // delivery kept its shard busy until a later barrier folded it).
  plane_.fold_all(tracer_);
  return events_executed();
}

void ScaleWorld::step_shard(std::size_t s) {
  // Events inside [window_start, window_end) — run_until is inclusive, so
  // stop one tick short of the boundary.
  if (s < shards_.size()) {
    EdgeShard& shard = *shards_[s];
    sweep_retries(shard);
    shard.sim.run_until(window_end_ - 1);
  } else {
    server_.sim.run_until(window_end_ - 1);
  }
}

void ScaleWorld::sweep_retries(EdgeShard& shard) {
  const ClientEngine& engine = *shard.engine;
  const auto answered = [&engine](const RetryTimer& timer) {
    return !engine.pending_matches(timer.client, timer.id);
  };
  std::deque<RetryTimer>& fifo = shard.retries;
  // Most requests are answered in the window that sent them: drop their
  // timers now rather than hold them for the whole backoff.
  const auto fresh =
      fifo.begin() + static_cast<std::ptrdiff_t>(shard.retries_swept);
  fifo.erase(std::remove_if(fresh, fifo.end(), answered), fifo.end());
  // Timers that can fall due before this window ends become events at
  // their exact due time, for requests still waiting on a reply. A timer
  // kept here can only fall due in a later window; client_retry re-checks,
  // since a reply can land between this sweep and the due time.
  const std::uint32_t s = shard.index;
  while (!fifo.empty() && fifo.front().earliest < window_end_) {
    const RetryTimer timer = fifo.front();
    fifo.pop_front();
    if (answered(timer)) continue;
    const std::uint32_t i = timer.client;
    const std::uint16_t id = timer.id;
    shard.sim.schedule_at(timer.due,
                          [this, s, i, id] { client_retry(s, i, id); });
  }
  shard.retries_swept = fifo.size();
}

void ScaleWorld::inject(const sim::BoundaryEvent& event) {
  fold_event(boundary_checksum_, kFoldBoundary,
             (std::uint64_t{event.src} << 32) | event.dst, event.time,
             (event.seq << 8) | event.kind);
  fold(boundary_checksum_, event.a);
  fold(boundary_checksum_, event.b);
  plane_.record_crossing(util::to_seconds(event.time - event.emit_ts));
  if (plane_.tracing()) {
    // The crossing event is timestamped at DELIVERY time — possibly up to
    // two windows ahead — so the watermark-gated fold holds it until
    // every stream has advanced past it.
    const char* name = event.kind == kRefillReq    ? "cross_refill_req"
                       : event.kind == kRefillData ? "cross_refill_data"
                                                   : "cross_upload";
    obs::TraceEvent cross = scale_event(event.time, name, "net", event.dst,
                                        0, event.ctx, 0, 0);
    add_attr(cross, "src", static_cast<double>(event.src));
    add_attr(cross, "latency_s",
             util::to_seconds(event.time - event.emit_ts));
    plane_.boundary().emit(cross);
  }
  const std::uint64_t ctx = event.ctx;
  switch (event.kind) {
    case kRefillReq: {
      const std::uint32_t edge = static_cast<std::uint32_t>(event.a);
      const std::uint64_t bytes = event.b;
      server_.sim.schedule_at(event.time, [this, edge, bytes, ctx] {
        server_refill(edge, bytes, ctx);
      });
      break;
    }
    case kUploadFwd: {
      const std::uint64_t bytes = event.b;
      server_.sim.schedule_at(
          event.time, [this, bytes, ctx] { server_upload(bytes, ctx); });
      break;
    }
    case kRefillData: {
      const std::uint32_t s = event.dst;
      const std::uint64_t bytes = event.b;
      shards_[s]->sim.schedule_at(event.time, [this, s, bytes, ctx] {
        edge_refill(s, bytes, ctx);
      });
      break;
    }
    default:
      throw std::logic_error("ScaleWorld: unknown boundary event kind");
  }
}

bool ScaleWorld::idle() const noexcept {
  if (!server_.sim.empty()) return false;
  for (const std::unique_ptr<EdgeShard>& shard : shards_) {
    if (!shard->sim.empty() || !shard->retries.empty()) return false;
  }
  return true;
}

// ----------------------------------------------------------- client side

void ScaleWorld::request_tick(std::uint32_t s, std::uint32_t i) {
  EdgeShard& shard = *shards_[s];
  ClientEngine& engine = *shard.engine;
  const util::SimTime now = shard.sim.now();
  const bool flooder = engine.has(i, ClientEngine::kFlooder);
  // Chain the next arrival first so whatever this tick does cannot stall
  // the process.
  const double mean = flooder ? 1.0 / config_.flooder_rate_hz
                              : 1.0 / config_.request_rate_hz;
  const util::SimTime next =
      now + util::from_seconds(engine.next_exp(i, mean));
  if (next <= horizon_) {
    shard.sim.schedule_at(next, [this, s, i] { request_tick(s, i); });
  }
  if (!flooder && engine.pool_consume(i, config_.request_bits)) {
    ++shard.stats.local_serves;
    return;
  }
  // One in-flight slot per client: while a request rides its retry chain,
  // further ticks lean on the fallback path implicitly (flooders included,
  // which caps a flooder at one outstanding request like a real socket).
  if (engine.request_pending(i)) return;
  const std::uint16_t wire_bits =
      static_cast<std::uint16_t>(2 * config_.request_bits);
  const std::uint16_t id = engine.issue_request(i, wire_bits, now);
  ++shard.stats.requests_sent;
  fold_event(shard.checksum, kFoldRequest, engine.global_id(i), now, id);
  if (plane_.tracing()) {
    const std::uint64_t trace = request_trace(engine.global_id(i), id);
    obs::TraceEvent event = scale_event(now, "request", "client",
                                        engine.global_id(i), 'B', trace,
                                        trace, 0);
    add_attr(event, "bits", static_cast<double>(wire_bits));
    plane_.edge(s).emit(event);
  }
  send_request(s, i, id, 0);
}

void ScaleWorld::send_request(std::uint32_t s, std::uint32_t i,
                              std::uint16_t id, std::uint8_t attempt) {
  EdgeShard& shard = *shards_[s];
  const util::SimTime now = shard.sim.now();
  if (attempt > 0) ++shard.stats.retried;
  if (config_.drop_prob > 0.0 && shard.rng.bernoulli(config_.drop_prob)) {
    ++shard.stats.wire_dropped_requests;
  } else {
    shard.sim.schedule_at(now + lan_delay(shard),
                          [this, s, i, id] { edge_request(s, i, id); });
  }
  // The engines' retry chain (ClientNode::retry_request): retransmit after
  // kRequestRetryBaseNs * 2^attempt, jittered from the client's stream.
  // The timer waits in the shard's FIFO until sweep_retries.
  const util::SimTime wait = backoff_delay(kRequestRetryBaseNs, attempt,
                                           shard.engine->uniform01(i));
  shard.retries.push_back(
      RetryTimer{now + kRetryEarliestNs, now + wait, i, id});
}

void ScaleWorld::edge_request(std::uint32_t s, std::uint32_t i,
                              std::uint16_t id) {
  EdgeShard& shard = *shards_[s];
  const util::SimTime now = shard.sim.now();
  if (offline(shard, now)) {
    ++shard.stats.crash_dropped_requests;
    return;
  }
  ClientEngine& engine = *shard.engine;
  // A stale duplicate, or a retransmission of a request this edge already
  // handled: dropped before it is scored or queued, as EdgeNode's
  // ReplayFilter drops a retransmission under the same wire seq.
  if (!engine.pending_matches(i, id) ||
      engine.has(i, ClientEngine::kHandled)) {
    return;
  }
  engine.set_flag(i, ClientEngine::kHandled);
  ++shard.stats.requests_received;
  const std::uint16_t bits = engine.pending_bits(i);
  const std::uint32_t client = engine.global_id(i);
  const std::uint64_t trace = request_trace(client, id);
  if (plane_.tracing()) {
    obs::TraceEvent event = scale_event(now, "request", "edge", shard.index,
                                        0, trace, trace, 0);
    add_attr(event, "client", static_cast<double>(client));
    add_attr(event, "bits", static_cast<double>(bits));
    plane_.edge(s).emit(event);
  }
  // The serve decision of EdgeNode::handle_client_request, judged against
  // the last scan's heavy line. A denial is silent: the client rides its
  // retry chain.
  Cache& cache = shard.cache;
  const std::size_t bytes = cache.clamp((bits + 7u) / 8u);
  const ClientEconomics::Verdict verdict = shard.econ.request(
      ClientEconomics::Slot{i}, static_cast<double>(bytes), now,
      /*refresh=*/false, /*denial_enabled=*/true);
  if (verdict.deny) {
    ++shard.stats.heavy_denied;
    fold_event(shard.checksum, kFoldHeavyDeny, client, now, id);
    if (plane_.tracing()) {
      obs::TraceEvent event = scale_event(now, "heavy_deny", "edge",
                                          shard.index, 0, trace, trace, 0);
      add_attr(event, "client", static_cast<double>(client));
      add_attr(event, "strikes", static_cast<double>(verdict.strikes));
      plane_.edge(s).emit(event);
    }
    send_refill(shard, cache.refill(now));
    return;
  }
  const auto [serve, refill] =
      cache.serve(bytes, verdict.over, PendingReply{i, id}, now);
  const bool hit = serve == Cache::Serve::kHit;
  if (hit) {
    ++shard.stats.cache_hits;
  } else {
    // Queued behind the next refill, answered when it lands.
    ++shard.stats.cache_misses;
    if (serve == Cache::Serve::kReserveBlocked) ++shard.stats.reserve_blocked;
    fold_event(shard.checksum, kFoldCacheMiss, client, now, id);
  }
  if (plane_.tracing()) {
    obs::TraceEvent event =
        scale_event(now, hit ? "cache_hit" : "cache_miss", "edge",
                    shard.index, 'X', trace, kChildSpan, trace);
    add_attr(event, "client", static_cast<double>(client));
    add_attr(event, "bytes", static_cast<double>(bytes));
    plane_.edge(s).emit(event);
  }
  if (hit) edge_reply(shard, i, id, bytes);
  send_refill(shard, refill);
}

void ScaleWorld::edge_reply(EdgeShard& shard, std::uint32_t i,
                            std::uint16_t id, std::size_t bytes) {
  if (config_.drop_prob > 0.0 && shard.rng.bernoulli(config_.drop_prob)) {
    ++shard.stats.wire_dropped_replies;
    return;
  }
  const std::uint32_t s = shard.index;
  const std::uint32_t grant = static_cast<std::uint32_t>(bytes * 8);
  shard.sim.schedule_at(
      shard.sim.now() + lan_delay(shard),
      [this, s, i, id, grant] { client_reply(s, i, id, grant); });
}

void ScaleWorld::client_reply(std::uint32_t s, std::uint32_t i,
                              std::uint16_t id, std::uint32_t grant_bits) {
  EdgeShard& shard = *shards_[s];
  ClientEngine& engine = *shard.engine;
  if (!engine.pending_matches(i, id)) {
    ++shard.stats.stale_replies;
    return;
  }
  const util::SimTime now = shard.sim.now();
  const double latency_s = util::to_seconds(now - engine.pending_since(i));
  engine.complete_request(i, grant_bits);
  engine.pool_consume(i, config_.request_bits);  // the tick's original need
  ++shard.stats.fulfilled;
  shard.stats.bytes_delivered += grant_bits / 8;
  fold_event(shard.checksum, kFoldFulfilled, engine.global_id(i), now,
             grant_bits);
  plane_.edge(s).record(latency_s);
  if (plane_.tracing()) {
    const std::uint64_t trace = request_trace(engine.global_id(i), id);
    obs::TraceEvent event = scale_event(now, "reply", "client",
                                        engine.global_id(i), 'E', trace,
                                        trace, 0);
    add_attr(event, "latency_s", latency_s);
    add_attr(event, "bytes", static_cast<double>(grant_bits / 8));
    plane_.edge(s).emit(event);
  }
}

void ScaleWorld::client_retry(std::uint32_t s, std::uint32_t i,
                              std::uint16_t id) {
  EdgeShard& shard = *shards_[s];
  ClientEngine& engine = *shard.engine;
  if (!engine.pending_matches(i, id)) return;  // resolved; stale timer
  const util::SimTime now = shard.sim.now();
  const std::uint32_t client = engine.global_id(i);
  const std::uint8_t attempt = engine.bump_attempts(i);
  // Past the last retransmission's wait the service has not answered: the
  // client generates locally and the slot resolves as a fallback.
  const bool fallback = attempt > kMaxRequestRetries;
  if (plane_.tracing()) {
    const std::uint64_t trace = request_trace(client, id);
    obs::TraceEvent event =
        scale_event(now, fallback ? "fallback" : "request_retry", "client",
                    client, fallback ? 'E' : 0, trace, trace, 0);
    if (fallback) {
      add_attr(event, "bits", static_cast<double>(engine.pending_bits(i)));
      add_attr(event, "attempts", static_cast<double>(kMaxRequestRetries));
    } else {
      add_attr(event, "attempt", static_cast<double>(attempt));
    }
    plane_.edge(s).emit(event);
  }
  if (!fallback) {
    send_request(s, i, id, attempt);
    return;
  }
  engine.cancel_request(i);
  ++shard.stats.fallback;
  fold_event(shard.checksum, kFoldFallback, client, now, id);
}

// ------------------------------------------------------------ upload side

void ScaleWorld::upload_tick(std::uint32_t s, std::uint32_t i) {
  EdgeShard& shard = *shards_[s];
  ClientEngine& engine = *shard.engine;
  const util::SimTime now = shard.sim.now();
  const util::SimTime next =
      now + util::from_seconds(
                engine.next_exp(i, 1.0 / config_.upload_rate_hz));
  if (next <= horizon_) {
    shard.sim.schedule_at(next, [this, s, i] { upload_tick(s, i); });
  }
  ++shard.stats.uploads_sent;
  fold_event(shard.checksum, kFoldUpload, engine.global_id(i), now,
             config_.upload_bytes);
  if (plane_.tracing()) {
    obs::TraceEvent event = scale_event(now, "upload", "client",
                                        engine.global_id(i), 0, 0, 0, 0);
    add_attr(event, "bytes", static_cast<double>(config_.upload_bytes));
    plane_.edge(s).emit(event);
  }
  if (config_.drop_prob > 0.0 && shard.rng.bernoulli(config_.drop_prob)) {
    ++shard.stats.wire_dropped_uploads;
    return;
  }
  shard.sim.schedule_at(now + lan_delay(shard),
                        [this, s, i] { edge_upload(s, i); });
}

void ScaleWorld::edge_upload(std::uint32_t s, std::uint32_t i) {
  EdgeShard& shard = *shards_[s];
  const util::SimTime now = shard.sim.now();
  if (offline(shard, now)) {
    ++shard.stats.crash_dropped_uploads;
    return;
  }
  ClientEngine& engine = *shard.engine;
  ClientEconomics& econ = shard.econ;
  const ClientEconomics::Slot slot{i};
  const std::uint32_t client = engine.global_id(i);
  // Penalty gate (Eq. 2): dropped packets are NOT processed, so they give
  // no chance to redeem.
  if (econ.should_drop(slot, shard.rng)) {
    ++shard.stats.uploads_dropped_penalty;
    if (econ.is_blacklisted(slot)) ++shard.stats.blacklist_drops;
    if (plane_.tracing()) {
      obs::TraceEvent event = scale_event(now, "penalty_drop", "edge",
                                          shard.index, 0, 0, 0, 0);
      add_attr(event, "client", static_cast<double>(client));
      add_attr(event, "penalty", econ.penalty(slot));
      plane_.edge(s).emit(event);
    }
    return;
  }
  if (engine.has(i, ClientEngine::kBadUploader)) {
    // Fails every sanity check: Table I's 0-of-6 row, payload rejected.
    ++shard.stats.uploads_rejected_sanity;
    const bool was_blacklisted = econ.is_blacklisted(slot);
    econ.record_result(slot, 0);
    if (!was_blacklisted && econ.is_blacklisted(slot)) {
      ++shard.stats.blacklisted_clients;
    }
    fold_event(shard.checksum, kFoldUploadBad, client, now,
               std::bit_cast<std::uint64_t>(econ.penalty(slot)));
    if (plane_.tracing()) {
      obs::TraceEvent event = scale_event(now, "sanity_reject", "edge",
                                          shard.index, 0, 0, 0, 0);
      add_attr(event, "client", static_cast<double>(client));
      add_attr(event, "penalty", econ.penalty(slot));
      plane_.edge(s).emit(event);
    }
    return;
  }
  // A clean upload redeems (6 of 6) and, as accepted work, advances the
  // usage clock the way it does at EdgeNode. Its entropy accumulates
  // toward the next upstream forward (kUploadForwardBytes, §III-A); as at
  // EdgeNode it reaches the cache only through a server refill.
  econ.record_result(slot, nist::SanityBattery::kNumChecks);
  econ.tick();
  ++shard.stats.uploads_accepted;
  shard.upload_buffer_bytes += config_.upload_bytes;
  if (shard.upload_buffer_bytes >= kUploadForwardBytes) {
    sim::BoundaryEvent event;
    event.time = now + boundary_delay(shard.rng);
    event.dst = static_cast<std::uint32_t>(shards_.size());
    event.kind = kUploadFwd;
    event.a = shard.index;
    event.b = shard.upload_buffer_bytes;
    event.emit_ts = now;
    if (plane_.tracing()) {
      event.ctx = forward_trace(shard.index, ++shard.forward_traces);
      obs::TraceEvent bulk = scale_event(now, "bulk_upload", "edge",
                                         shard.index, 'X', event.ctx,
                                         event.ctx, 0);
      add_attr(bulk, "bytes",
               static_cast<double>(shard.upload_buffer_bytes));
      plane_.edge(s).emit(bulk);
    }
    merge_.emit(shard.index, event);
    ++shard.stats.upload_forwards;
    shard.stats.upload_forward_bytes += shard.upload_buffer_bytes;
    shard.upload_buffer_bytes = 0;
  }
}

// ------------------------------------------------------------- edge plane

void ScaleWorld::edge_scan(std::uint32_t s) {
  EdgeShard& shard = *shards_[s];
  const util::SimTime now = shard.sim.now();
  const util::SimTime next = now + kScanPeriodNs;
  if (next <= horizon_) {
    shard.sim.schedule_at(next, [this, s] { edge_scan(s); });
  }
  if (offline(shard, now)) return;  // a crashed edge does not police
  const ClientEconomics::HeavyLine line = shard.econ.refresh_line();
  std::uint32_t heavy = 0;
  for (std::uint32_t i = 0; i < shard.clients; ++i) {
    heavy += shard.econ.over(ClientEconomics::Slot{i}) ? 1 : 0;
  }
  shard.stats.heavy_scan_flags += heavy;
  fold_event(shard.checksum, kFoldScan, shard.index, now,
             std::bit_cast<std::uint64_t>(line.threshold));
  fold(shard.checksum, std::bit_cast<std::uint64_t>(line.median));
  fold(shard.checksum, heavy);
  if (plane_.tracing()) {
    obs::TraceEvent event =
        scale_event(now, "heavy_scan", "edge", shard.index, 0, 0, 0, 0);
    add_attr(event, "heavy", static_cast<double>(heavy));
    add_attr(event, "threshold", line.threshold);
    plane_.edge(s).emit(event);
  }
}

void ScaleWorld::send_refill(EdgeShard& shard, const Cache::Refill& refill) {
  // A lost refill's span was closed where the crash ate its data.
  if (!refill.issue) return;
  const util::SimTime now = shard.sim.now();
  sim::BoundaryEvent event;
  event.time = now + boundary_delay(shard.rng);
  event.dst = static_cast<std::uint32_t>(shards_.size());
  event.kind = kRefillReq;
  event.a = shard.index;
  event.b = refill.bytes;
  event.emit_ts = now;
  if (plane_.tracing()) {
    event.ctx = refill_trace(shard.index, ++shard.refill_traces);
    obs::TraceEvent open = scale_event(now, "refill", "edge", shard.index,
                                       'B', event.ctx, event.ctx, 0);
    add_attr(open, "bytes", static_cast<double>(refill.bytes));
    add_attr(open, "reissue", refill.lost ? 1.0 : 0.0);
    plane_.edge(shard.index).emit(open);
  }
  merge_.emit(shard.index, event);
  if (refill.lost) {
    ++shard.stats.refill_reissues;
  } else {
    ++shard.stats.refills_requested;
  }
  fold_event(shard.checksum, kFoldRefillReq, shard.index, now, refill.bytes);
}

void ScaleWorld::edge_refill(std::uint32_t s, std::uint64_t bytes,
                             std::uint64_t ctx) {
  EdgeShard& shard = *shards_[s];
  const util::SimTime now = shard.sim.now();
  if (offline(shard, now)) {
    // Lost to the crash; the refill stays outstanding and the core
    // declares it lost after kRefillTimeoutNs, on later traffic.
    ++shard.stats.crash_dropped_refills;
    if (plane_.tracing() && ctx != 0) {
      // Close the refill span so the trace stays well-formed: the data
      // existed, the crash ate it.
      plane_.edge(s).emit(scale_event(now, "refill_lost", "edge",
                                      shard.index, 'E', ctx, ctx, 0));
    }
    return;
  }
  shard.econ.tick();  // a server delivery is accepted work (Eq. 1 clock)
  ++shard.stats.refills_completed;
  shard.cache.refill_answered(now);
  fold_event(shard.checksum, kFoldRefillData, shard.index, now, bytes);
  if (plane_.tracing() && ctx != 0) {
    obs::TraceEvent close = scale_event(now, "refill_data", "edge",
                                        shard.index, 'E', ctx, ctx, 0);
    add_attr(close, "bytes", static_cast<double>(bytes));
    plane_.edge(s).emit(close);
  }
  // A dry pool answers with nothing; as at EdgeNode the next request
  // triggers the next refill.
  if (bytes == 0) return;
  shard.cache.insert(bytes);
  const auto refill =
      shard.cache.drain(now, [&](const PendingReply& req, std::size_t n) {
        if (plane_.tracing()) {
          const std::uint32_t client = shard.engine->global_id(req.client);
          const std::uint64_t trace = request_trace(client, req.id);
          obs::TraceEvent event = scale_event(now, "delivery", "edge",
                                              shard.index, 0, trace, trace, 0);
          add_attr(event, "client", static_cast<double>(client));
          add_attr(event, "bytes", static_cast<double>(n));
          plane_.edge(s).emit(event);
        }
        edge_reply(shard, req.client, req.id, n);
      });
  send_refill(shard, refill);
}

// ------------------------------------------------------------ server side

void ScaleWorld::server_refill(std::uint32_t edge, std::uint64_t want_bytes,
                               std::uint64_t ctx) {
  const util::SimTime now = server_.sim.now();
  const std::uint64_t grant = std::min(
      want_bytes, static_cast<std::uint64_t>(
                      std::max<std::int64_t>(server_.pool_bytes, 0)));
  server_.pool_bytes -= static_cast<std::int64_t>(grant);
  ++server_.stats.server_grants;
  server_.stats.server_grant_bytes += grant;
  // Reply even when the grant is zero: the edge's refill is answered and
  // the next request re-triggers it instead of waiting out the timeout.
  sim::BoundaryEvent event;
  event.time = now + boundary_delay(server_.rng);
  event.dst = edge;
  event.kind = kRefillData;
  event.a = edge;
  event.b = grant;
  event.emit_ts = now;
  event.ctx = ctx;  // thread the refill span across the return crossing
  merge_.emit(static_cast<std::uint32_t>(shards_.size()), event);
  fold_event(server_.checksum, kFoldServerGrant, edge, now, grant);
  if (plane_.tracing() && ctx != 0) {
    obs::TraceEvent grant_event = scale_event(
        now, "request", "server", edge, 'X', ctx, kChildSpan, ctx);
    add_attr(grant_event, "bytes", static_cast<double>(grant));
    plane_.server().emit(grant_event);
  }
}

void ScaleWorld::server_upload(std::uint64_t bytes, std::uint64_t ctx) {
  const util::SimTime now = server_.sim.now();
  server_.pool_bytes += static_cast<std::int64_t>(bytes);
  fold_event(server_.checksum, kFoldServerUpload, 0, now, bytes);
  if (plane_.tracing() && ctx != 0) {
    obs::TraceEvent mix =
        scale_event(now, "mix", "server", 0, 0, ctx, ctx, 0);
    add_attr(mix, "bytes", static_cast<double>(bytes));
    plane_.server().emit(mix);
  }
}

void ScaleWorld::server_source_tick() {
  const util::SimTime now = server_.sim.now();
  const std::uint64_t added = static_cast<std::uint64_t>(
      source_rate_ * util::to_seconds(kSourcePeriodNs));
  server_.pool_bytes += static_cast<std::int64_t>(added);
  server_.stats.server_source_bytes += added;
  const util::SimTime next = now + kSourcePeriodNs;
  if (next <= horizon_) {
    server_.sim.schedule_at(next, [this] { server_source_tick(); });
  }
}

// -------------------------------------------------------------- plumbing

util::SimTime ScaleWorld::lan_delay(EdgeShard& shard) noexcept {
  return kLanBaseNs + static_cast<util::SimTime>(
                          shard.rng.uniform(kLanJitterNs));
}

util::SimTime ScaleWorld::boundary_delay(util::Xoshiro256& rng) noexcept {
  return kBoundaryBaseNs +
         static_cast<util::SimTime>(rng.uniform(kBoundaryJitterNs));
}

bool ScaleWorld::offline(const EdgeShard& shard,
                         util::SimTime t) const noexcept {
  for (const ScaleCrashWindow& crash : shard.crashes) {
    if (t >= crash.begin && t < crash.end) return true;
  }
  return false;
}

std::uint64_t ScaleWorld::events_executed() const noexcept {
  std::uint64_t total = server_.sim.events_executed();
  for (const std::unique_ptr<EdgeShard>& shard : shards_) {
    total += shard->sim.events_executed();
  }
  return total;
}

std::uint64_t ScaleWorld::checksum() const noexcept {
  std::uint64_t cs = 0xcbf29ce484222325ULL;
  for (const std::unique_ptr<EdgeShard>& shard : shards_) {
    fold(cs, shard->checksum);
  }
  fold(cs, server_.checksum);
  fold(cs, boundary_checksum_);
  return cs;
}

ScaleStats ScaleWorld::stats() const noexcept {
  ScaleStats total;
  for (const std::unique_ptr<EdgeShard>& shard : shards_) {
    add_stats(total, shard->stats);
  }
  add_stats(total, server_.stats);
  return total;
}

void ScaleWorld::publish_metrics(obs::Registry& registry) {
  const ScaleStats cur = stats();
  // Counters go up by the delta since the last call. inc(0) still
  // registers the series, so the first call exports every family even at
  // zero, as the per-node engines do at construction.
  const auto bump = [&registry](const char* name, const obs::Labels& labels,
                                std::uint64_t now_total,
                                std::uint64_t before) {
    registry.counter(name, labels).inc(now_total - before);
  };
  struct Family {
    const char* name;
    const char* tier;
    std::uint64_t ScaleStats::*field;
  };
  static constexpr Family kFamilies[] = {
      {"cadet_client_requests_sent", "client", &ScaleStats::requests_sent},
      {"cadet_client_requests_fulfilled", "client", &ScaleStats::fulfilled},
      {"cadet_client_requests_retried", "client", &ScaleStats::retried},
      {"cadet_client_requests_fallback", "client", &ScaleStats::fallback},
      {"cadet_client_requests_expired", "client", &ScaleStats::expired},
      {"cadet_client_local_serves", "client", &ScaleStats::local_serves},
      {"cadet_client_bytes_received", "client", &ScaleStats::bytes_delivered},
      {"cadet_client_uploads_sent", "client", &ScaleStats::uploads_sent},
      {"cadet_edge_requests_received", "edge",
       &ScaleStats::requests_received},
      {"cadet_edge_cache_hits", "edge", &ScaleStats::cache_hits},
      {"cadet_edge_cache_misses", "edge", &ScaleStats::cache_misses},
      {"cadet_edge_uploads_accepted", "edge", &ScaleStats::uploads_accepted},
      {"cadet_edge_uploads_dropped_penalty", "edge",
       &ScaleStats::uploads_dropped_penalty},
      {"cadet_edge_uploads_rejected_sanity", "edge",
       &ScaleStats::uploads_rejected_sanity},
      {"cadet_edge_bulk_uploads_sent", "edge", &ScaleStats::upload_forwards},
      {"cadet_edge_refills_requested", "edge",
       &ScaleStats::refills_requested},
      {"cadet_edge_refill_retries", "edge", &ScaleStats::refill_reissues},
      {"cadet_edge_refills_completed", "edge",
       &ScaleStats::refills_completed},
      {"cadet_server_requests_served", "server", &ScaleStats::server_grants},
      {"cadet_server_bytes_served", "server",
       &ScaleStats::server_grant_bytes},
  };
  for (const Family& family : kFamilies) {
    bump(family.name, {{"tier", family.tier}}, cur.*family.field,
         published_.*family.field);
  }
  const obs::Labels edge{{"tier", "edge"}};
  // Denials plus reserve blocks, as EdgeNode counts it.
  bump("cadet_edge_heavy_rejections", edge,
       cur.heavy_denied + cur.reserve_blocked,
       published_.heavy_denied + published_.reserve_blocked);
  // No end-to-end mode at scale: the series stays at zero, as on an edge
  // whose clients never ask for end-to-end delivery.
  registry.counter("cadet_edge_e2e_forwarded", edge);
  registry.gauge("cadet_edge_blacklisted_clients", edge)
      .set(static_cast<std::int64_t>(cur.blacklisted_clients));
  registry.gauge("cadet_pool_bytes", {{"tier", "server"}})
      .set(server_.pool_bytes);
  const obs::Labels wire{{"tier", "net"}, {"transport", "scale"}};
  bump("cadet_fault_dropped", wire,
       cur.wire_dropped_requests + cur.wire_dropped_replies +
           cur.wire_dropped_uploads,
       published_.wire_dropped_requests + published_.wire_dropped_replies +
           published_.wire_dropped_uploads);
  bump("cadet_fault_crashed", wire,
       cur.crash_dropped_requests + cur.crash_dropped_uploads +
           cur.crash_dropped_refills,
       published_.crash_dropped_requests + published_.crash_dropped_uploads +
           published_.crash_dropped_refills);
  const std::uint64_t resolved = cur.fulfilled + cur.fallback + cur.expired;
  registry.gauge("cadet_fulfillment_inflight")
      .set(static_cast<std::int64_t>(cur.requests_sent) -
           static_cast<std::int64_t>(resolved));

  // Progress + boundary health. The violations counter is the satellite
  // operators alert on: non-zero means the conservative lookahead bound
  // was broken (a protocol bug, also a non-zero cadet_sim --scale exit).
  const std::uint64_t events = events_executed();
  bump("cadet_sim_events", {{"tier", "sim"}}, events, published_events_);
  published_events_ = events;
  bump("cadet_shard_lookahead_violations", {}, merge_.violations(),
       published_violations_);
  published_violations_ = merge_.violations();
  bump("cadet_scale_trace_events_folded", {}, plane_.events_folded(),
       published_folded_);
  published_folded_ = plane_.events_folded();
  registry.gauge("cadet_scale_watermark_ms")
      .set(static_cast<std::int64_t>(util::to_seconds(window_end_) * 1e3));
  registry.gauge("cadet_scale_boundary_pending")
      .set(static_cast<std::int64_t>(merge_.pending()));

  // Latency histograms: per-shard deltas absorbed in shard-index order
  // (integer cells commute, so the registry instrument matches a single-
  // threaded recording exactly — see obs/shard_obs.h).
  obs::HdrSnapshot latency = plane_.merged_latency();
  obs::HdrSnapshot latency_delta = latency;
  latency_delta.subtract(published_latency_);  // first publish: no-op, full
  registry.hdr("cadet_fulfillment_seconds", {},
               obs::ShardObsPlane::scale_latency())
      .absorb(latency_delta);
  published_latency_ = std::move(latency);

  obs::HdrSnapshot crossing = plane_.crossing().snapshot();
  obs::HdrSnapshot crossing_delta = crossing;
  crossing_delta.subtract(published_crossing_);
  registry.hdr("cadet_boundary_crossing_seconds", {},
               obs::ShardObsPlane::boundary_crossing())
      .absorb(crossing_delta);
  published_crossing_ = std::move(crossing);

  obs::HdrSnapshot occupancy = plane_.occupancy().snapshot();
  obs::HdrSnapshot occupancy_delta = occupancy;
  occupancy_delta.subtract(published_occupancy_);
  registry.hdr("cadet_boundary_batch_events", {},
               obs::ShardObsPlane::boundary_batch())
      .absorb(occupancy_delta);
  published_occupancy_ = std::move(occupancy);

  // Per-shard load view (the imbalance table cadet_report renders).
  published_shard_events_.resize(shards_.size(), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint64_t executed = shards_[s]->sim.events_executed();
    bump("cadet_shard_events", {{"shard", std::to_string(s)}}, executed,
         published_shard_events_[s]);
    published_shard_events_[s] = executed;
  }

  published_ = cur;
}

std::size_t ScaleWorld::memory_bytes() const noexcept {
  std::size_t total = sizeof(ScaleWorld) + merge_.memory_bytes() +
                      server_.sim.memory_bytes() + plane_.memory_bytes() +
                      published_shard_events_.capacity() *
                          sizeof(std::uint64_t);
  for (const std::unique_ptr<EdgeShard>& shard : shards_) {
    total += sizeof(EdgeShard) + shard->sim.memory_bytes() +
             shard->engine->memory_bytes() + shard->econ.memory_bytes() +
             shard->cache.memory_bytes() + deque_memory_bytes(shard->retries) +
             shard->crashes.capacity() * sizeof(ScaleCrashWindow);
  }
  return total;
}

}  // namespace cadet::testbed
