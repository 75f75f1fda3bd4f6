#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cadet/client_node.h"
#include "cadet/edge_node.h"
#include "cadet/packet.h"
#include "cadet/server_node.h"
#include "entropy/sources.h"
#include "net/udp_runner.h"
#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/shard_obs.h"
#include "span_log.h"
#include "testbed/scale.h"
#include "testbed/topology.h"
#include "testbed/workload.h"
#include "util/rng.h"
#include "util/task_pool.h"

namespace cadet::e2e {
namespace {

using Handler = std::function<std::vector<net::Outgoing>(
    net::NodeId, util::BytesView, util::SimTime)>;

// ------------------------------------------------------------ statistics

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Linear-interpolated quantile of ascending `sorted`.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile of an HDR snapshot, interpolated by rank inside the cell it
/// lands in. HdrSnapshot::quantile reads back the cell midpoint, which
/// would report the same value for every seed whose quantile shares a cell.
double hdr_quantile(const obs::HdrSnapshot& snap, double q) {
  if (snap.count == 0) return 0.0;
  const double target = q * static_cast<double>(snap.count);
  double cumulative = 0.0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < snap.counts.size(); ++i) {
    const double c = static_cast<double>(snap.counts[i]);
    if (c == 0.0) continue;
    last = i;
    if (cumulative + c >= target) {
      const double lo = static_cast<double>(snap.layout.value_lo(i));
      const double hi = static_cast<double>(snap.layout.value_hi(i));
      return (lo + (hi - lo) * (target - cumulative) / c) * 1e-9;
    }
    cumulative += c;
  }
  return static_cast<double>(snap.layout.value_hi(last)) * 1e-9;
}

void gate(Report& report, bool ok, const std::string& what) {
  if (ok) return;
  if (std::find(report.failures.begin(), report.failures.end(), what) ==
      report.failures.end()) {
    report.failures.push_back(what);
  }
}

void put(std::vector<Metric>& out, const std::string& name, double value,
         const char* unit) {
  out.push_back(Metric{name, value, unit});
}

/// Seed of sub-input `k` of a workload whose input is several seeded
/// worlds; sub-input 0 uses the seed itself.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return seed + k * 0x9e3779b97f4a7c15ULL;
}

/// The repetition loop shared by every workload. A workload's input is
/// `inputs` seed-derived sub-inputs; repetitions cycle through them until
/// the budget is spent. Untraced repetitions cover every sub-input at
/// least once (and number at least three); when tracing, traced ones
/// alternate with them. No repetition starts that would overrun the
/// budget at the median repetition's length. `rep(traced, k)` runs one
/// repetition on sub-input k.
template <typename Rep>
void repeat(const Options& opt, Report& report, std::uint64_t inputs,
            Rep&& rep) {
  const std::int64_t start = now_ns();
  const std::uint64_t min = opt.smoke ? inputs : std::max<std::uint64_t>(inputs, 3);
  std::vector<double> walls;
  for (std::uint64_t n = 0;; ++n) {
    const bool traced = opt.traced && n % 2 == 1;
    std::uint64_t& count = traced ? report.traced_reps : report.reps;
    const std::int64_t r0 = now_ns();
    rep(traced, count % inputs);
    walls.push_back(seconds_between(r0, now_ns()));
    ++count;
    if (report.reps < min || (opt.traced && report.traced_reps < min)) {
      continue;
    }
    if (opt.smoke ||
        seconds_between(start, now_ns()) + median(walls) > opt.seconds) {
      break;
    }
  }
}

// ----------------------------------------------------------- layer maths

/// Which layer a span name belongs to in the wall-time split.
std::string group_of(const std::string& name) {
  for (const char* tier : {"client", "edge", "server", "setup", "loadgen"}) {
    const std::string prefix = tier;
    if (name == prefix || name.rfind(prefix + ".", 0) == 0) return prefix;
  }
  if (name == "udp.send") return "loadgen";
  if (name == "udp.idle_poll" || name == "scale.idle") return "wait";
  return "loop";  // sim.run, udp.run, udp.poll, scale.run, scale.barrier
}

/// Traced-run accumulators for one workload.
struct Traced {
  SpanLog log;
  LayerTable layers;
  FoldedTable folded;
  double wall_ns = 0.0;  ///< summed traced repetitions (set-up + timed)
  std::vector<double> traced_timed_s;
  std::vector<double> untraced_timed_s;
  std::int64_t origin_ns = 0;  ///< start of the last traced repetition

  void begin_rep(std::int64_t t0) {
    log.clear();
    origin_ns = t0;
  }
  void end_rep(std::int64_t t_end) {
    log.accumulate(layers, folded);
    wall_ns += static_cast<double>(t_end - origin_ns);
  }
};

/// The summed spans of one layer; max_ns is the longest single span.
LayerTime group_sum(const LayerTable& layers, const std::string& group) {
  LayerTime sum;
  for (const auto& [name, t] : layers) {
    if (group_of(name) != group) continue;
    sum.self_ns += t.self_ns;
    sum.total_ns += t.total_ns;
    sum.max_ns = std::max(sum.max_ns, t.max_ns);
    sum.calls += t.calls;
  }
  return sum;
}

double per_call_ns(const LayerTable& layers,
                   std::initializer_list<const char*> groups) {
  double ns = 0.0;
  std::uint64_t calls = 0;
  for (const char* g : groups) {
    const LayerTime sum = group_sum(layers, g);
    ns += sum.total_ns;
    calls += sum.calls;
  }
  return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
}

/// The layer metrics every workload reports (BENCHMARK.json per_layer),
/// plus one self-time share per layer present. The shares and
/// bench.unattributed_frac add up to 1 by construction.
void add_common_layers(Report& report, const Traced& t,
                       double events_per_rep) {
  auto& out = report.layers;
  const double reps = static_cast<double>(report.traced_reps);
  put(out, "events", events_per_rep, "count");
  put(out, "loop.ns_per_event",
      group_sum(t.layers, "loop").self_ns / (events_per_rep * reps), "ns");
  put(out, "engine.ns_per_call",
      per_call_ns(t.layers, {"client", "edge", "server"}), "ns");
  put(out, "edge.ns_per_call", per_call_ns(t.layers, {"edge"}), "ns");
  put(out, "server.ns_per_call", per_call_ns(t.layers, {"server"}), "ns");
  double attributed = 0.0;
  for (const char* g :
       {"setup", "loop", "client", "edge", "server", "loadgen", "wait"}) {
    const bool present =
        std::any_of(t.layers.begin(), t.layers.end(),
                    [&](const auto& kv) { return group_of(kv.first) == g; });
    if (!present) continue;
    const double self = group_sum(t.layers, g).self_ns;
    attributed += self;
    put(out, std::string(g) + ".self_frac", self / t.wall_ns, "ratio");
  }
  put(out, "bench.unattributed_frac", 1.0 - attributed / t.wall_ns, "ratio");
  put(out, "bench.trace_overhead_frac",
      median(t.traced_timed_s) / median(t.untraced_timed_s) - 1.0, "ratio");
}

/// Mean duration (us) and call count of one handler span name, as
/// cadet.<tier>.<kind>_us and cadet.<tier>.<kind>.calls.
void add_handler_layer(Report& report, const Traced& t,
                       const std::string& span) {
  const auto it = t.layers.find(span);
  const LayerTime lt = it == t.layers.end() ? LayerTime{} : it->second;
  const double reps = static_cast<double>(report.traced_reps);
  put(report.layers, "cadet." + span + "_us",
      lt.calls == 0 ? 0.0 : lt.total_ns / static_cast<double>(lt.calls) * 1e-3,
      "us");
  put(report.layers, "cadet." + span + ".calls",
      static_cast<double>(lt.calls) / reps, "count");
}

void add_engine_layers(Report& report, const Traced& t) {
  for (const char* span :
       {"client.delivery", "edge.request", "edge.upload", "edge.refill",
        "server.bulk_upload", "server.refill"}) {
    add_handler_layer(report, t, span);
  }
  put(report.layers, "cadet.server.handler_max_us",
      group_sum(t.layers, "server").max_ns * 1e-3, "us");
  const double reps = static_cast<double>(report.traced_reps);
  for (const auto& [span, metric] :
       {std::pair<const char*, const char*>{"setup.edge_reg",
                                            "cadet.setup.edge_reg_s"},
        {"setup.client_reg", "cadet.setup.client_reg_s"}}) {
    const auto it = t.layers.find(span);
    put(report.layers, metric,
        it == t.layers.end() ? 0.0 : it->second.total_ns * 1e-9 / reps, "s");
  }
}

void write_trace(const Options& opt, const char* workload, const Traced& t) {
  if (opt.trace_dir.empty()) return;
  const std::string base = opt.trace_dir + "/" + workload;
  if (!t.log.write_jsonl(base + ".spans.jsonl", t.origin_ns) ||
      !write_folded(base + ".folded", t.folded)) {
    std::fprintf(stderr, "cadet_e2e: cannot write %s.*\n", base.c_str());
  }
}

// ------------------------------------------------------- engine handlers

enum PacketKind { kReg, kRequest, kUpload, kAck, kOther, kKinds };
using KindNames = std::array<std::uint16_t, kKinds>;

/// Packet kind from the wire header.
PacketKind kind_of(util::BytesView data) {
  const std::optional<Packet> packet = decode(data);
  if (!packet) return kOther;
  const PacketHeader& h = packet->header;
  if (h.reg) return kReg;
  if (h.req) return kRequest;
  return h.ack ? kAck : kUpload;
}

struct TierNames {
  KindNames client{}, edge{}, server{};
};

TierNames intern_tiers(SpanLog& log) {
  const auto names = [&log](const char* reg, const char* request,
                            const char* upload, const char* ack,
                            const char* other) {
    return KindNames{log.intern(reg), log.intern(request), log.intern(upload),
                     log.intern(ack), log.intern(other)};
  };
  TierNames t;
  t.client = names("client.reg", "client.other", "client.other",
                   "client.delivery", "client.other");
  t.edge = names("edge.reg", "edge.request", "edge.upload", "edge.refill",
                 "edge.other");
  t.server = names("server.reg", "server.refill", "server.bulk_upload",
                   "server.other", "server.other");
  return t;
}

/// The engine's on_packet, timed into `log` when tracing.
template <typename Engine>
Handler handler(Engine& engine, SpanLog* log, const KindNames& names) {
  if (log == nullptr) {
    return [&engine](net::NodeId from, util::BytesView data,
                     util::SimTime now) {
      return engine.on_packet(from, data, now);
    };
  }
  return [&engine, log, names](net::NodeId from, util::BytesView data,
                               util::SimTime now) {
    const std::int64_t start = now_ns();
    std::vector<net::Outgoing> out = engine.on_packet(from, data, now);
    const std::int64_t end = now_ns();
    log->leaf(names[kind_of(data)], start, end);
    return out;
  };
}

// ---------------------------------------------- testbed49 and dense_edge

struct WorldShape {
  const char* name;
  std::size_t clients_per_network;
  double rate_divisor;  ///< per-client paper rates are divided by this
  double horizon_s;     ///< simulated seconds of load per sub-input
  /// Seeded worlds making up the input. The latency tail depends on rare
  /// refill waits, so it is read over all of them; one world's p99 moves
  /// by ~14% from seed to seed.
  std::uint64_t worlds;
};

/// Deterministic outcome of one World repetition; every repetition of a
/// sub-input, traced or not, must produce the same one.
struct WorldOutcome {
  std::uint64_t requests = 0, uploads = 0, responses = 0, load_expired = 0;
  std::uint64_t events = 0, packets = 0;
  std::uint64_t fulfilled = 0, fallback = 0, expired = 0, pending = 0;
  std::uint64_t cache_hits = 0, edge_requests = 0, edge_uploads = 0,
                sanity_rejects = 0, quality_checks = 0, bytes_mixed = 0;
  std::vector<double> latencies_s;  ///< request->delivery, sim time

  auto key() const {
    return std::tie(requests, uploads, responses, load_expired, events,
                    packets, fulfilled, fallback, expired, pending,
                    cache_hits, edge_requests, edge_uploads, sanity_rejects,
                    quality_checks, bytes_mixed, latencies_s);
  }
  std::uint64_t ops() const { return requests + uploads; }
  std::uint64_t failed() const { return fallback + expired + pending; }
};

Report run_world(const Options& opt, const WorldShape& shape) {
  Report report;
  Traced t;
  const std::uint16_t n_setup = t.log.intern("setup");
  const std::uint16_t n_edge_reg = t.log.intern("setup.edge_reg");
  const std::uint16_t n_client_reg = t.log.intern("setup.client_reg");
  const std::uint16_t n_run = t.log.intern("sim.run");
  const TierNames tiers = intern_tiers(t.log);
  const double horizon_s = opt.smoke ? shape.horizon_s / 50 : shape.horizon_s;
  const std::uint64_t worlds = opt.smoke ? 1 : shape.worlds;

  std::vector<double> setup_s, ops_per_s;
  std::vector<std::unique_ptr<WorldOutcome>> outcomes(worlds);
  double traced_events = 0.0;
  repeat(opt, report, worlds, [&](bool traced, std::uint64_t k) {
    const std::uint64_t seed = sub_seed(opt.seed, k);
    SpanLog* log = traced ? &t.log : nullptr;
    const std::int64_t t0 = now_ns();
    if (traced) t.begin_rep(t0);
    const std::uint32_t setup_span = log ? log->open(n_setup, t0) : 0;
    testbed::TestbedConfig config;
    config.seed = seed;
    config.clients_per_network = shape.clients_per_network;
    // A full server pool, as in cadet_bench's 49-node run: supply and
    // demand at the paper rates nearly balance, and the default 64 KiB
    // seed runs dry within the horizon.
    config.server_seed_bytes = 1 << 20;
    // Reserve blocking only, as in the paper's prototype: with stage-2
    // denial on, about one seed in twenty has an honest consumer denied as
    // heavy and its request expire, and a measured request must not fail.
    // The usage and heavy-line work per request is the same either way.
    config.heavy_denial_enabled = false;
    auto world = std::make_unique<testbed::World>(config);
    if (traced) {
      // Same on_packet calls World bound, behind a timer.
      for (std::size_t j = 0; j < world->num_servers(); ++j) {
        world->server_sim(j).bind(handler(world->server(j), log, tiers.server));
      }
      for (std::size_t e = 0; e < world->num_edges(); ++e) {
        world->edge_sim(e).bind(handler(world->edge(e), log, tiers.edge));
      }
      for (std::size_t i = 0; i < world->num_clients(); ++i) {
        world->client_sim(i).bind(handler(world->client(i), log, tiers.client));
      }
    }
    std::uint32_t span = log ? log->open(n_edge_reg, now_ns()) : 0;
    world->register_edges();
    if (log) log->close(span, now_ns());
    span = log ? log->open(n_client_reg, now_ns()) : 0;
    world->register_clients();
    if (log) log->close(span, now_ns());
    testbed::WorkloadDriver load(*world, seed + 1);
    // Registration advanced simulated time; the load starts from there.
    const util::SimTime t_start = world->simulator().now();
    const util::SimTime t_end = t_start + util::from_seconds(horizon_s);
    for (std::size_t i = 0; i < world->num_clients(); ++i) {
      testbed::ClientBehavior b =
          testbed::ClientBehavior::for_profile(world->profile_of(i));
      b.request_rate_hz /= shape.rate_divisor;
      b.upload_rate_hz /= shape.rate_divisor;
      load.drive(i, b, t_start, t_end);
    }
    const std::int64_t t1 = now_ns();
    if (log) log->close(setup_span, t1);

    // Timed phase: the load, then the drain that resolves every request.
    span = log ? log->open(n_run, t1) : 0;
    world->simulator().run_until(t_end);
    world->simulator().run();
    const std::int64_t t2 = now_ns();
    if (log) log->close(span, t2);

    auto o = std::make_unique<WorldOutcome>();
    const testbed::WorkloadMetrics& m = load.metrics();
    o->requests = m.requests_sent;
    o->uploads = m.uploads_sent;
    o->responses = m.responses_received;
    o->load_expired = m.requests_failed;
    o->events = world->simulator().events_executed();
    o->packets = world->transport().total_packets();
    for (std::size_t i = 0; i < world->num_clients(); ++i) {
      const ClientNode& c = world->client(i);
      o->fulfilled += c.requests_fulfilled();
      o->fallback += c.requests_fallback();
      o->expired += c.requests_expired();
      o->pending += c.requests_pending();
    }
    for (std::size_t e = 0; e < world->num_edges(); ++e) {
      const EdgeNode::Stats s = world->edge(e).stats();
      o->cache_hits += s.cache_hits;
      o->edge_requests += s.requests_received;
      o->edge_uploads += s.uploads_received;
      o->sanity_rejects += s.uploads_rejected_sanity;
    }
    const ServerNode::Stats server = world->server().stats();
    o->quality_checks = server.quality_checks_run;
    o->bytes_mixed = server.bytes_mixed;
    o->latencies_s = m.response_times_s.values();
    world.reset();
    if (traced) {
      t.end_rep(now_ns());
      traced_events += static_cast<double>(o->events);
    }

    gate(report, o->requests == o->fulfilled + o->fallback + o->expired,
         "requests_sent != fulfilled + fallback + expired");
    gate(report, o->pending == 0, "requests still pending after the drain");
    gate(report, o->responses + o->load_expired == o->requests,
         "WorkloadDriver responses + expiries != requests issued");
    if (!outcomes[k]) {
      outcomes[k] = std::move(o);
    } else {
      gate(report, o->key() == outcomes[k]->key(),
           traced ? "traced run diverged from the untraced run"
                  : "repetitions of one input diverged");
    }
    const WorldOutcome& done = *outcomes[k];
    const double timed = seconds_between(t1, t2);
    (traced ? t.traced_timed_s : t.untraced_timed_s).push_back(timed);
    report.attempted += done.ops();
    report.failed += done.failed();
    if (!traced) {
      setup_s.push_back(seconds_between(t0, t1));
      ops_per_s.push_back(static_cast<double>(done.ops()) / timed);
    }
  });

  WorldOutcome all;  // summed over the input's worlds
  std::uint64_t failed = 0;
  for (const auto& o : outcomes) {
    all.requests += o->requests;
    all.packets += o->packets;
    all.cache_hits += o->cache_hits;
    all.edge_requests += o->edge_requests;
    all.edge_uploads += o->edge_uploads;
    all.sanity_rejects += o->sanity_rejects;
    all.quality_checks += o->quality_checks;
    failed += o->failed();
    all.latencies_s.insert(all.latencies_s.end(), o->latencies_s.begin(),
                           o->latencies_s.end());
  }
  std::sort(all.latencies_s.begin(), all.latencies_s.end());
  const double ms = 1e3;
  const double n = static_cast<double>(worlds);
  put(report.metrics, "setup_s", median(setup_s), "s");
  put(report.metrics, "ops_per_s", median(ops_per_s), "1/s");
  put(report.metrics, "failed_frac",
      static_cast<double>(failed) /
          static_cast<double>(std::max<std::uint64_t>(all.requests, 1)),
      "ratio");
  put(report.metrics, "latency_p50_ms",
      quantile_sorted(all.latencies_s, 0.5) * ms, "ms");
  put(report.metrics, "latency_p99_ms",
      quantile_sorted(all.latencies_s, 0.99) * ms, "ms");
  put(report.metrics, "latency_p999_ms",
      quantile_sorted(all.latencies_s, 0.999) * ms, "ms");
  report.latency_samples = all.latencies_s.size();

  if (opt.traced) {
    add_common_layers(report, t,
                      traced_events / static_cast<double>(report.traced_reps));
    add_engine_layers(report, t);
    put(report.layers, "net.sim.packets", static_cast<double>(all.packets) / n,
        "count");
    put(report.layers, "cadet.edge.cache_hit_frac",
        static_cast<double>(all.cache_hits) /
            static_cast<double>(std::max<std::uint64_t>(all.edge_requests, 1)),
        "ratio");
    put(report.layers, "cadet.edge.sanity_reject_frac",
        static_cast<double>(all.sanity_rejects) /
            static_cast<double>(std::max<std::uint64_t>(all.edge_uploads, 1)),
        "ratio");
    put(report.layers, "cadet.server.quality_checks",
        static_cast<double>(all.quality_checks) / n, "count");
    write_trace(opt, shape.name, t);
  }
  return report;
}

// Per-edge load equals testbed49's in dense_edge (11 paper clients' worth
// of packets), spread over 23x more tracked clients.
Report run_testbed49(const Options& opt) {
  return run_world(opt, WorldShape{"testbed49", 11, 1.0, 1200.0, 8});
}

Report run_dense_edge(const Options& opt) {
  return run_world(opt, WorldShape{"dense_edge", 256, 24.0, 1200.0, 4});
}

// --------------------------------------------------------------- scale1m

/// The measured population: every request is served, so a failure is a
/// regression. Wire loss exhausts retries on ~1e-4 of requests, a denied
/// flooder resolves by fallback, and caches starting at the 0.3 default
/// miss during warm-up, so the timed world has none of these; bad
/// uploaders stay (a rejected upload is a correct outcome).
testbed::ScaleConfig scale_config(std::uint64_t seed, std::size_t clients) {
  testbed::ScaleConfig cfg;
  cfg.seed = seed;
  cfg.num_clients = clients;
  cfg.clients_per_edge = 1024;
  cfg.duration_s = 20.0;
  cfg.bad_uploader_fraction = 0.05;
  cfg.initial_cache_fill = 1.0;
  return cfg;
}

Report run_scale1m(const Options& opt) {
  Report report;
  Traced t;
  const std::uint16_t n_setup = t.log.intern("setup");
  const std::uint16_t n_run = t.log.intern("scale.run");
  const std::uint16_t n_step = t.log.intern("scale.step");
  const std::uint16_t n_barrier = t.log.intern("scale.barrier");
  util::TaskPool pool(opt.threads);
  const auto pooled = [&pool](std::size_t count,
                              const std::function<void(std::size_t)>& task) {
    pool.run(count, task);
  };

  // The any-j determinism witness, on a small config with the adversarial
  // mix (wire loss, flooders, bad uploaders) before timing.
  {
    testbed::ScaleConfig cfg = scale_config(opt.seed, 20'000);
    cfg.duration_s = 2.0;
    cfg.drop_prob = 0.02;
    cfg.flooder_fraction = 0.002;
    cfg.initial_cache_fill = 0.3;
    testbed::ScaleWorld sequential(cfg);
    testbed::ScaleWorld parallel(cfg);
    const std::uint64_t e1 = sequential.run();
    const std::uint64_t en = parallel.run(pooled);
    gate(report, e1 == en && sequential.checksum() == parallel.checksum(),
         "ScaleWorld j1 and jN checksums differ (20k clients)");
  }

  const testbed::ScaleConfig cfg =
      scale_config(opt.seed, opt.smoke ? 20'000 : 1'000'000);
  std::vector<double> setup_s, ops_per_s;
  std::uint64_t checksum = 0, events = 0, ops = 0, failed = 0, requests = 0;
  testbed::ScaleStats stats;
  obs::HdrSnapshot latency;
  // Traced-run state: per-shard task time, per-window step/barrier spans.
  std::vector<std::int64_t> shard_ns;
  std::vector<std::uint64_t> shard_events;
  double bytes_per_client = 0.0;
  std::uint64_t windows = 0, boundary = 0;
  std::size_t num_edges = 0;
  repeat(opt, report, 1, [&](bool traced, std::uint64_t) {
    SpanLog* log = traced ? &t.log : nullptr;
    const std::int64_t t0 = now_ns();
    if (traced) t.begin_rep(t0);
    auto world = std::make_unique<testbed::ScaleWorld>(cfg);
    const std::int64_t t1 = now_ns();
    if (log) log->leaf(n_setup, t0, t1);

    testbed::ScaleWorld::Executor executor = pooled;
    std::int64_t step_end = 0;
    double step_ns = 0.0;
    std::uint64_t rep_windows = 0;
    if (traced) {
      shard_ns.assign(world->num_shards(), 0);
      executor = [&](std::size_t count,
                     const std::function<void(std::size_t)>& task) {
        const std::int64_t s0 = now_ns();
        // Each index runs on one thread per window and the pool's lock
        // orders windows, so the per-shard sums need no atomics.
        pool.run(count, [&](std::size_t i) {
          const std::int64_t a = now_ns();
          task(i);
          shard_ns[i] += now_ns() - a;
        });
        step_end = now_ns();
        step_ns += static_cast<double>(step_end - s0);
        log->leaf(n_step, s0, step_end);
      };
      world->set_window_hook([&](const testbed::ScaleWorld::WindowReport&) {
        log->leaf(n_barrier, step_end, now_ns());
        ++rep_windows;
      });
    }
    const std::uint32_t span = log ? log->open(n_run, t1) : 0;
    const std::uint64_t rep_events = world->run(executor);
    const std::int64_t t2 = now_ns();
    if (log) log->close(span, t2);

    const testbed::ScaleStats s = world->stats();
    gate(report, s.requests_sent == s.fulfilled + s.fallback + s.expired,
         "requests_sent != fulfilled + fallback + expired");
    gate(report, world->boundary_emitted() == world->boundary_injected(),
         "boundary_emitted != boundary_injected");
    gate(report, world->lookahead_violations() == 0,
         "lookahead_violations != 0");
    if (report.reps + report.traced_reps == 0) {
      checksum = world->checksum();
      events = rep_events;
      stats = s;
      obs::Registry registry;
      world->publish_metrics(registry);
      latency = registry
                    .hdr("cadet_fulfillment_seconds", {},
                         obs::ShardObsPlane::scale_latency())
                    .snapshot();
      requests = s.requests_sent + s.local_serves;
      ops = requests + s.uploads_sent;
      failed = s.fallback + s.expired;
    } else {
      gate(report, world->checksum() == checksum && rep_events == events,
           traced ? "traced run diverged from the untraced run"
                  : "repetitions of one seed diverged");
    }
    if (traced) {
      num_edges = world->num_edges();
      shard_events.assign(world->num_shards(), 0);
      for (std::size_t e = 0; e < num_edges; ++e) {
        shard_events[e] = world->shard_events(e);
      }
      shard_events[num_edges] = rep_events;
      for (std::size_t e = 0; e < num_edges; ++e) {
        shard_events[num_edges] -= shard_events[e];
      }
      bytes_per_client = static_cast<double>(world->memory_bytes()) /
                         static_cast<double>(world->num_clients());
      windows = rep_windows;
      boundary = world->boundary_injected();
    }
    world.reset();
    if (traced) {
      t.end_rep(now_ns());
      // Split the steps' wall time into shard work (thread time over j)
      // and the wait for the slowest shard; the step spans keep no self
      // time of their own.
      const double j = static_cast<double>(opt.threads);
      double edge_task = 0.0;
      std::uint64_t edge_events = 0;
      for (std::size_t i = 0; i < num_edges; ++i) {
        edge_task += static_cast<double>(shard_ns[i]);
        edge_events += shard_events[i];
      }
      const double server_task = static_cast<double>(shard_ns[num_edges]);
      const auto add = [&](const char* name, double self, double total,
                           std::uint64_t calls) {
        LayerTime& lt = t.layers[name];
        lt.self_ns += self;
        lt.total_ns += total;
        lt.calls += calls;
        t.folded[std::string("scale.run;scale.step;") + name] += self;
      };
      add("edge.shard_task", edge_task / j, edge_task, edge_events);
      add("server.shard_task", server_task / j, server_task,
          shard_events[num_edges]);
      add("scale.idle", step_ns - (edge_task + server_task) / j, 0.0, 0);
      t.layers["scale.step"].self_ns -= step_ns;
      t.folded["scale.run;scale.step"] -= step_ns;
    }
    const double timed = seconds_between(t1, t2);
    (traced ? t.traced_timed_s : t.untraced_timed_s).push_back(timed);
    report.attempted += ops;
    report.failed += failed;
    if (!traced) {
      setup_s.push_back(seconds_between(t0, t1));
      ops_per_s.push_back(static_cast<double>(ops) / timed);
    }
  });

  put(report.metrics, "setup_s", median(setup_s), "s");
  put(report.metrics, "ops_per_s", median(ops_per_s), "1/s");
  put(report.metrics, "failed_frac",
      static_cast<double>(failed) /
          static_cast<double>(std::max<std::uint64_t>(stats.requests_sent, 1)),
      "ratio");
  put(report.metrics, "latency_p50_ms", hdr_quantile(latency, 0.5) * 1e3,
      "ms");
  put(report.metrics, "latency_p99_ms", hdr_quantile(latency, 0.99) * 1e3,
      "ms");
  put(report.metrics, "latency_p999_ms", hdr_quantile(latency, 0.999) * 1e3,
      "ms");
  report.latency_samples = latency.count;

  if (opt.traced) {
    add_common_layers(report, t, static_cast<double>(events));
    auto& out = report.layers;
    const double reps = static_cast<double>(report.traced_reps);
    const double step_ns = t.layers["scale.step"].total_ns;
    const double task_ns = t.layers["edge.shard_task"].total_ns +
                           t.layers["server.shard_task"].total_ns;
    put(out, "scale.step_s", step_ns * 1e-9 / reps, "s");
    put(out, "scale.barrier_s", t.layers["scale.barrier"].total_ns * 1e-9 / reps,
        "s");
    put(out, "scale.windows", static_cast<double>(windows), "count");
    put(out, "scale.boundary_events", static_cast<double>(boundary), "count");
    put(out, "scale.idle_frac",
        1.0 - task_ns / (static_cast<double>(opt.threads) * step_ns), "ratio");
    double shard_max = 0.0;
    double shard_sum = 0.0;
    for (std::size_t e = 0; e < num_edges; ++e) {
      shard_max = std::max(shard_max, static_cast<double>(shard_ns[e]));
      shard_sum += static_cast<double>(shard_ns[e]);
    }
    put(out, "scale.shard_max_over_mean",
        shard_max / (shard_sum / static_cast<double>(num_edges)), "ratio");
    put(out, "scale.bytes_per_client", bytes_per_client, "B");
    put(out, "scale.local_serve_frac",
        static_cast<double>(stats.local_serves) /
            static_cast<double>(std::max<std::uint64_t>(requests, 1)),
        "ratio");
    put(out, "scale.retry_frac",
        static_cast<double>(stats.retried) /
            static_cast<double>(std::max<std::uint64_t>(stats.requests_sent, 1)),
        "ratio");
    write_trace(opt, "scale1m", t);
  }
  return report;
}

// ----------------------------------------------------------------- udp49

/// The 49-node topology as real engines on loopback sockets under one
/// UdpRunner. Declaration order is destruction order in reverse: the
/// runner (holding handlers into the engines) goes first, the registry
/// (which the engines publish into) last.
struct UdpDeployment {
  obs::Registry registry;
  std::unique_ptr<ServerNode> server;
  std::vector<std::unique_ptr<EdgeNode>> edges;
  std::vector<std::unique_ptr<ClientNode>> clients;
  net::UdpRunner runner;
};

constexpr std::size_t kUdpEdges = 4;
constexpr std::size_t kUdpClientsPerEdge = 11;
constexpr double kUdpRequestHz = 2000.0;
constexpr double kUdpUploadHz = 640.0;
constexpr std::uint16_t kUdpRequestBits = 512;
constexpr std::size_t kUdpUploadBytes = 512;
constexpr int kUdpHandshakeMs = 5000;
constexpr int kUdpSetups = 5;

/// Binds every socket and runs the edge and client handshakes. Seeds
/// follow testbed::World's so the engines match the simulated testbed.
std::unique_ptr<UdpDeployment> build_udp(Report& report, std::uint64_t seed,
                                         SpanLog* log, const TierNames& tiers,
                                         std::uint16_t n_edge_reg,
                                         std::uint16_t n_client_reg) {
  auto d = std::make_unique<UdpDeployment>();
  ServerNode::Config sc;
  sc.id = testbed::kServerId;
  sc.seed = seed * 2654435761u + 1;
  sc.metrics = &d->registry;
  d->server = std::make_unique<ServerNode>(sc);
  util::Xoshiro256 seeder(seed ^ 0x5eedULL);
  d->server->seed_pool(seeder.bytes(1 << 16));
  d->runner.add_node(sc.id, handler(*d->server, log, tiers.server));
  for (std::size_t k = 0; k < kUdpEdges; ++k) {
    EdgeNode::Config ec;
    ec.id = testbed::edge_id(k);
    ec.server = sc.id;
    ec.seed = seed * 40503u + 7 * k + 3;
    ec.num_clients = kUdpClientsPerEdge;
    ec.metrics = &d->registry;
    d->edges.push_back(std::make_unique<EdgeNode>(ec));
    d->runner.add_node(ec.id, handler(*d->edges.back(), log, tiers.edge));
  }
  for (std::size_t i = 0; i < kUdpEdges * kUdpClientsPerEdge; ++i) {
    ClientNode::Config cc;
    cc.id = testbed::client_id(i);
    cc.edge = testbed::edge_id(i / kUdpClientsPerEdge);
    cc.server = sc.id;
    cc.seed = seed * 69069u + 13 * i + 5;
    cc.metrics = &d->registry;
    d->clients.push_back(std::make_unique<ClientNode>(cc));
    d->runner.add_node(cc.id, handler(*d->clients.back(), log, tiers.client));
  }

  std::uint32_t span = log ? log->open(n_edge_reg, now_ns()) : 0;
  for (auto& edge : d->edges) {
    d->runner.send_all(edge->id(), edge->begin_edge_reg(net::wall_clock_ns()));
  }
  const bool edges_ok = d->runner.pump_until(
      [&] {
        return std::all_of(d->edges.begin(), d->edges.end(),
                           [](const auto& e) { return e->registered(); });
      },
      kUdpHandshakeMs);
  if (log) log->close(span, now_ns());
  span = log ? log->open(n_client_reg, now_ns()) : 0;
  for (auto& client : d->clients) {
    d->runner.send_all(client->id(), client->begin_init(net::wall_clock_ns()));
  }
  const bool init_ok = d->runner.pump_until(
      [&] {
        return std::all_of(d->clients.begin(), d->clients.end(),
                           [](const auto& c) { return c->initialized(); });
      },
      kUdpHandshakeMs);
  for (auto& client : d->clients) {
    d->runner.send_all(client->id(),
                       client->begin_rereg(net::wall_clock_ns()));
  }
  const bool rereg_ok = d->runner.pump_until(
      [&] {
        return std::all_of(d->clients.begin(), d->clients.end(),
                           [](const auto& c) { return c->reregistered(); });
      },
      kUdpHandshakeMs);
  if (log) log->close(span, now_ns());
  gate(report, edges_ok && init_ok && rereg_ok,
       "udp49 handshakes did not complete");
  return d;
}

/// One open-loop request awaiting delivery.
struct UdpRequest {
  std::int64_t due_ns = 0;
  std::int64_t delivered_ns = 0;
  bool timed = false;
  bool delivered = false;
};

/// Everything one udp49 repetition measured.
struct UdpOutcome {
  double setup_s = 0.0;
  double timed_s = 0.0;
  double busy_s = 0.0;  ///< poll_once calls that handled data + op issue
  std::uint64_t requests = 0, uploads = 0, delivered = 0;
  std::vector<double> latencies_s;
  std::vector<double> late_s;  ///< issue time minus due time
};

Report run_udp49(const Options& opt) {
  Report report;
  Traced t;
  const std::uint16_t n_setup = t.log.intern("setup");
  const std::uint16_t n_edge_reg = t.log.intern("setup.edge_reg");
  const std::uint16_t n_client_reg = t.log.intern("setup.client_reg");
  const std::uint16_t n_run = t.log.intern("udp.run");
  const std::uint16_t n_poll = t.log.intern("udp.poll");
  const std::uint16_t n_idle = t.log.intern("udp.idle_poll");
  const std::uint16_t n_issue = t.log.intern("loadgen.issue");
  const std::uint16_t n_send = t.log.intern("udp.send");
  const std::uint16_t n_request = t.log.intern("client.request");
  const std::uint16_t n_upload = t.log.intern("client.upload");
  const std::uint16_t n_async = t.log.intern("loadgen.request");
  const TierNames tiers = intern_tiers(t.log);
  const double warmup_s = opt.smoke ? 0.1 : 0.5;
  const double measure_s = opt.smoke ? 0.3 : 2.5;

  // Wall-clock percentiles are taken per repetition and reported as the
  // median over repetitions, so one descheduled repetition cannot set them.
  std::vector<double> setup_s, capacity, p50, p99, p999, late;
  std::uint64_t timed_requests = 0;
  std::uint64_t min_samples = ~std::uint64_t{0};
  std::uint64_t dropped_sends = 0, datagrams = 0;
  double busy_frac_sum = 0.0, cache_hit_frac = 0.0, sanity_reject_frac = 0.0;
  double quality_checks = 0.0;
  repeat(opt, report, 1, [&](bool traced, std::uint64_t) {
    // Set-up takes ~15 ms against a ~3 s repetition, so untraced
    // repetitions set up kUdpSetups times and keep the last deployment.
    for (int i = 1; !traced && i < kUdpSetups; ++i) {
      const std::int64_t s0 = now_ns();
      const auto spare =
          build_udp(report, opt.seed, nullptr, tiers, n_edge_reg, n_client_reg);
      setup_s.push_back(seconds_between(s0, now_ns()));
    }
    SpanLog* log = traced ? &t.log : nullptr;
    const std::int64_t t0 = now_ns();
    if (traced) t.begin_rep(t0);
    const std::uint32_t setup_span = log ? log->open(n_setup, t0) : 0;
    std::unique_ptr<UdpDeployment> d =
        build_udp(report, opt.seed, log, tiers, n_edge_reg, n_client_reg);
    const std::int64_t t1 = now_ns();
    if (log) log->close(setup_span, t1);

    // Open loop: Poisson arrivals at the summed rate, each op a request
    // or an upload. Clients take turns per kind: at ~45 requests/s each,
    // a uniformly random pick bursts some client past 4x the median
    // usage, the edge denies it as heavy, and with no retry timer on the
    // socket path that request never resolves. The schedule and the
    // payloads come from the seed alone.
    util::Xoshiro256 arrivals(opt.seed ^ 0x0e2eULL);
    util::Xoshiro256 payloads(opt.seed ^ 0xda7aULL);
    const double total_hz = kUdpRequestHz + kUdpUploadHz;
    const auto gap_ns = [&] {
      return static_cast<std::int64_t>(arrivals.exponential(1.0 / total_hz) *
                                       1e9);
    };
    const std::int64_t start = now_ns();
    const std::int64_t timed_from =
        start + static_cast<std::int64_t>(warmup_s * 1e9);
    const std::int64_t timed_to =
        timed_from + static_cast<std::int64_t>(measure_s * 1e9);
    std::int64_t due = start + gap_ns();
    UdpOutcome o;
    std::vector<UdpRequest> requests;
    requests.reserve(static_cast<std::size_t>(
        kUdpRequestHz * (warmup_s + measure_s) * 1.2));
    bool bad_delivery = false;
    std::array<std::size_t, 2> turn{};  // next client, per op kind

    const std::uint32_t run_span = log ? log->open(n_run, start) : 0;
    const auto issue = [&](std::int64_t now) {
      const bool timed = due >= timed_from;
      const bool is_request =
          arrivals.uniform01() < kUdpRequestHz / total_hz;
      ClientNode& client =
          *d->clients[turn[is_request]++ % d->clients.size()];
      const std::uint32_t span = log ? log->open(n_issue, now) : 0;
      std::vector<net::Outgoing> out;
      const std::int64_t e0 = now_ns();
      if (is_request) {
        const std::size_t seq = requests.size();
        requests.push_back(UdpRequest{due, 0, timed, false});
        out = client.request_entropy(
            kUdpRequestBits, net::wall_clock_ns(),
            [&requests, &o, &bad_delivery, seq](util::BytesView data,
                                                util::SimTime at) {
              UdpRequest& r = requests[seq];
              if (data.size() != kUdpRequestBits / 8 || r.delivered) {
                bad_delivery = true;
                return;
              }
              r.delivered = true;
              r.delivered_ns = at;
              if (r.timed) {
                ++o.delivered;
                o.latencies_s.push_back(seconds_between(r.due_ns, at));
              }
            });
      } else {
        out = client.upload_entropy(
            entropy::synth::good(payloads, kUdpUploadBytes),
            net::wall_clock_ns());
      }
      const std::int64_t e1 = now_ns();
      d->runner.send_all(client.id(), out);
      const std::int64_t e2 = now_ns();
      if (log) {
        log->leaf(is_request ? n_request : n_upload, e0, e1);
        log->leaf(n_send, e1, e2);
        log->close(span, e2);
      }
      if (timed) {
        o.late_s.push_back(seconds_between(due, now));
        o.busy_s += seconds_between(now, e2);
        ++(is_request ? o.requests : o.uploads);
      }
    };
    for (;;) {
      std::int64_t now = now_ns();
      while (due <= now && due < timed_to) {
        issue(now);
        due += gap_ns();
        now = now_ns();
      }
      if (due >= timed_to) break;
      const std::uint32_t span = log ? log->open(n_poll, now) : 0;
      const int handled = d->runner.poll_once(0);
      const std::int64_t end = now_ns();
      if (log) {
        if (handled > 0) {
          log->close(span, end);
        } else {
          log->close_as(span, end, n_idle);
        }
      }
      if (handled > 0 && now >= timed_from) o.busy_s += seconds_between(now, end);
    }
    // Drain: every request issued gets up to a second to resolve.
    const auto all_resolved = [&] {
      return std::all_of(requests.begin(), requests.end(),
                         [](const UdpRequest& r) { return r.delivered; });
    };
    d->runner.pump_until(all_resolved, 1000);
    const std::int64_t t2 = now_ns();
    if (log) {
      log->close(run_span, t2);
      for (std::size_t seq = 0; seq < requests.size(); ++seq) {
        const UdpRequest& r = requests[seq];
        if (r.delivered) log->async(n_async, seq, r.due_ns, r.delivered_ns);
      }
    }

    gate(report, !bad_delivery,
         "udp49 delivered an empty, short or duplicate reply");
    const std::uint64_t undelivered = static_cast<std::uint64_t>(
        std::count_if(requests.begin(), requests.end(), [](const UdpRequest& r) {
          return r.timed && !r.delivered;
        }));
    gate(report, o.requests == o.delivered + undelivered,
         "udp49 sent != delivered + failed");
    o.setup_s = seconds_between(t0, t1);
    o.timed_s = seconds_between(timed_from, timed_to);
    report.attempted += o.requests + o.uploads;
    report.failed += undelivered;
    // The offered load is fixed, so tracing shows up as busy time.
    (traced ? t.traced_timed_s : t.untraced_timed_s).push_back(o.busy_s);
    if (!traced) {
      setup_s.push_back(o.setup_s);
      capacity.push_back(static_cast<double>(o.delivered + o.uploads) /
                         o.busy_s);
      std::sort(o.latencies_s.begin(), o.latencies_s.end());
      p50.push_back(quantile_sorted(o.latencies_s, 0.5));
      p99.push_back(quantile_sorted(o.latencies_s, 0.99));
      p999.push_back(quantile_sorted(o.latencies_s, 0.999));
      min_samples = std::min<std::uint64_t>(min_samples, o.latencies_s.size());
      timed_requests += o.requests;
    } else {
      late.insert(late.end(), o.late_s.begin(), o.late_s.end());
      busy_frac_sum += o.busy_s / o.timed_s;
      dropped_sends += d->runner.dropped_sends();
      datagrams = d->runner.datagrams_handled();
      std::uint64_t hits = 0, edge_requests = 0, ups = 0, rejects = 0;
      for (const auto& edge : d->edges) {
        const EdgeNode::Stats s = edge->stats();
        hits += s.cache_hits;
        edge_requests += s.requests_received;
        ups += s.uploads_received;
        rejects += s.uploads_rejected_sanity;
      }
      cache_hit_frac = static_cast<double>(hits) /
                       static_cast<double>(std::max<std::uint64_t>(edge_requests, 1));
      sanity_reject_frac = static_cast<double>(rejects) /
                           static_cast<double>(std::max<std::uint64_t>(ups, 1));
      quality_checks =
          static_cast<double>(d->server->stats().quality_checks_run);
    }
    d.reset();
    if (traced) t.end_rep(now_ns());
  });

  put(report.metrics, "setup_s", median(setup_s), "s");
  put(report.metrics, "ops_per_s", median(capacity), "1/s");
  put(report.metrics, "failed_frac",
      static_cast<double>(report.failed) /
          static_cast<double>(std::max<std::uint64_t>(timed_requests, 1)),
      "ratio");
  put(report.metrics, "latency_p50_ms", median(p50) * 1e3, "ms");
  put(report.metrics, "latency_p99_ms", median(p99) * 1e3, "ms");
  put(report.metrics, "latency_p999_ms", median(p999) * 1e3, "ms");
  report.latency_samples = min_samples;

  if (opt.traced) {
    const double reps = static_cast<double>(report.traced_reps);
    add_common_layers(report, t, static_cast<double>(datagrams));
    add_engine_layers(report, t);
    auto& out = report.layers;
    const LayerTime& send = t.layers["udp.send"];
    put(out, "net.udp.send_us_per_call",
        send.calls == 0 ? 0.0
                        : send.total_ns / static_cast<double>(send.calls) * 1e-3,
        "us");
    put(out, "net.udp.busy_frac", busy_frac_sum / reps, "ratio");
    put(out, "net.udp.dropped_sends", static_cast<double>(dropped_sends) / reps,
        "count");
    std::sort(late.begin(), late.end());
    put(out, "loadgen.late_p99_us", quantile_sorted(late, 0.99) * 1e6, "us");
    put(out, "loadgen.late_max_us", late.empty() ? 0.0 : late.back() * 1e6,
        "us");
    put(out, "cadet.edge.cache_hit_frac", cache_hit_frac, "ratio");
    put(out, "cadet.edge.sanity_reject_frac", sanity_reject_frac, "ratio");
    put(out, "cadet.server.quality_checks", quality_checks, "count");
    write_trace(opt, "udp49", t);
  }
  return report;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"testbed49",
       "the paper's 49-node testbed: full crypto, NIST sanity battery and "
       "CPU model, 11 clients per edge, write-heavy",
       run_testbed49},
      {"dense_edge",
       "testbed49's per-edge packet rate over 256 clients per edge: shows "
       "per-packet costs that grow with clients per edge",
       run_dense_edge},
      {"scale1m",
       "1M clients in the sharded ScaleWorld: working set far beyond cache, "
       "no crypto, read-heavy, parallel",
       run_scale1m},
      {"udp49",
       "the 49-node topology on real loopback sockets under an open-loop "
       "Poisson load, timed on the wall clock",
       run_udp49},
  };
  return all;
}

}  // namespace cadet::e2e
