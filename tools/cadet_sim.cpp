// cadet_sim — configurable CADET deployment simulator.
//
// Runs a full client/edge/server deployment in the discrete-event
// simulator with workloads per network profile and prints a service
// report: response times, cache behaviour, upload policing, pool health.
//
// Examples:
//   cadet_sim                                  # the paper's 49-node testbed
//   cadet_sim --networks 2 --clients 8 --duration 300
//   cadet_sim --profiles consumer,producer --refill adaptive
//   cadet_sim --servers 2 --exchange 10 --bad-fraction 0.3
//   cadet_sim --no-edge                        # Fig. 10's W/O baseline
//   cadet_sim --adversary-mix poisoners        # hostile clients attack
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "net/faulty_transport.h"
#include "nist/battery.h"
#include "testbed/adversary.h"
#include "obs/admin.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "testbed/scale.h"
#include "testbed/topology.h"
#include "testbed/workload.h"
#include "util/log.h"
#include "util/task_pool.h"

namespace {

using namespace cadet;
using namespace cadet::testbed;

// SIGINT/SIGTERM request a graceful stop: the chunked run loop polls the
// flag between simulated-time slices, so an interrupted long run still
// flushes --metrics-out/--trace-out and writes the --flight-out dump instead
// of losing everything. A second signal falls back to the default action.
volatile std::sig_atomic_t g_stop_signal = 0;

void on_stop_signal(int sig) {
  g_stop_signal = sig;
  std::signal(sig, SIG_DFL);
}

struct Options {
  std::size_t networks = 4;
  std::size_t clients = 11;
  std::size_t servers = 1;
  double duration_s = 300.0;
  std::uint64_t seed = 42;
  std::string profiles = "consumer,balanced,balanced,producer";
  bool use_edge = true;
  bool adaptive_refill = false;
  bool inject_timing = false;
  bool internet = false;
  double exchange_period_s = 0.0;
  double bad_fraction = 0.0;  // applied to one client per network
  bool verbose = false;
  std::string metrics_out;  // Prometheus snapshot path ("" = off)
  std::string trace_out;    // JSONL trace path ("" = off)
  std::string profile_out;  // folded-stack profile path ("" = off)
  std::string flight_out;   // last-N trace events JSONL dump path ("" = off)
  bool no_spans = false;    // --trace-out without span/provenance ids
  int admin_port = -1;      // -1 = no admin endpoint; 0 = ephemeral port
  std::vector<std::string> slo_rules;  // parse_slo_rule specs / "default"
  double slo_interval_s = 1.0;         // sim-time tick period
  double self_sigint_s = 0.0;  // test hook: raise SIGINT at sim time T

  // Adversarial economics (docs/ADVERSARIES.md). A non-empty mix turns the
  // top --adversary-count clients of every network hostile.
  std::string adversary_mix;         // "" = no attackers
  std::size_t adversary_count = 2;   // attackers per network
  double adversary_rotate = 0.0;     // free-rider token rotation (0 = preset)
  double adversary_burst_at = 0.0;   // sybil activation time (0 = duration/3)

  // Sharded scale mode (docs/PERFORMANCE.md "Sharded worlds"). In --scale
  // mode --clients is the TOTAL population, --shards sizes the worker pool
  // (the partition itself is fixed by the topology, so any -J is
  // trace-identical), and --fault-drop / --crash map onto the sharded
  // fault model (--crash N:T0:T1 crashes EDGE index N).
  bool scale = false;
  std::size_t shards = 1;
  std::size_t clients_per_edge = 1024;
  double scale_flooders = 0.0;
  double scale_bad = 0.0;

  // Fault injection (docs/FAULT_INJECTION.md). Any non-default value puts
  // a FaultyTransport on every link.
  double fault_drop = 0.0;
  double fault_dup = 0.0;
  double fault_reorder = 0.0;
  double fault_corrupt = 0.0;
  std::uint64_t fault_seed = 0;  // 0 = derived from --seed
  std::vector<net::Partition> partitions;
  std::vector<net::Crash> crashes;

  bool faults_requested() const {
    return fault_drop > 0.0 || fault_dup > 0.0 || fault_reorder > 0.0 ||
           fault_corrupt > 0.0 || !partitions.empty() || !crashes.empty() ||
           fault_seed != 0;
  }
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --networks N        number of LANs (default 4)\n"
      "  --clients N         clients per LAN (default 11)\n"
      "  --servers N         central servers (default 1)\n"
      "  --duration SECONDS  simulated time (default 300)\n"
      "  --seed N            simulation seed (default 42)\n"
      "  --profiles LIST     comma list: consumer|producer|balanced,\n"
      "                      cycled across networks\n"
      "  --no-edge           clients talk to the server directly\n"
      "  --refill POLICY     fixed | adaptive (default fixed)\n"
      "  --inject-timing     edge injects timing entropy into uploads\n"
      "  --internet          WAN latency between edge and server\n"
      "  --exchange SECONDS  server pool-exchange period (default off)\n"
      "  --bad-fraction F    one client per network uploads F bad data\n"
      "  --verbose           per-client response statistics\n"
      "  --metrics-out FILE  write a Prometheus-style metrics snapshot\n"
      "  --trace-out FILE    write the protocol event trace as JSONL\n"
      "                      (span/provenance ids included by default)\n"
      "  --no-spans          emit the trace without span ids (PR-1 layout)\n"
      "  --profile-out FILE  write the sim profiler as folded stacks\n"
      "                      (flamegraph.pl-compatible)\n"
      "  --flight-out FILE   dump the newest 4096 trace events as JSONL\n"
      "                      at exit (also on SIGINT/SIGTERM and SLO alerts)\n"
      "  --admin-port N      serve /metrics /healthz /flight on\n"
      "                      127.0.0.1:N while the sim runs (0 = ephemeral)\n"
      "  --slo RULE          add a watchdog rule\n"
      "                      (kind:name:metric[/denom]:threshold:limit\n"
      "                      [:for_ticks], kind = burn|ratio|gauge|rate;\n"
      "                      'default' loads the built-in rule set)\n"
      "  --slo-interval S    SLO evaluation period in sim seconds\n"
      "                      (default 1.0)\n"
      "  --self-sigint T     raise SIGINT at sim time T (signal-path test\n"
      "                      hook)\n"
      "  --adversary-mix M   turn the top clients of every network hostile:\n"
      "                      free-riders | poisoners | cache-inflation |\n"
      "                      sybil-burst (docs/ADVERSARIES.md)\n"
      "  --adversary-count N attackers per network (default 2)\n"
      "  --adversary-rotate S  free-rider token-rotation period in seconds\n"
      "                      (default: preset)\n"
      "  --adversary-burst-at T  sybil activation time in seconds\n"
      "                      (default: duration/3)\n"
      "  --scale             sharded million-client mode: --clients is the\n"
      "                      total population over struct-of-arrays state\n"
      "                      (docs/PERFORMANCE.md \"Sharded worlds\").\n"
      "                      --metrics-out/--trace-out/--slo/--admin-port\n"
      "                      work here too; exports are byte-identical at\n"
      "                      any --shards, and --admin-port adds a live\n"
      "                      /shards progress endpoint\n"
      "  --shards J          scale-mode worker threads (default 1; any J\n"
      "                      yields a byte-identical trace)\n"
      "  --clients-per-edge N  scale-mode edge subtree size (default 1024)\n"
      "  --scale-flooders F  scale-mode hostile flooder fraction\n"
      "  --scale-bad F       scale-mode bad-uploader fraction of producers\n"
      "  --fault-drop P      drop each datagram with probability P\n"
      "  --fault-dup P       duplicate each datagram with probability P\n"
      "  --fault-reorder P   delay (reorder) datagrams with probability P\n"
      "  --fault-corrupt P   flip 1-3 bits with probability P\n"
      "  --fault-seed N      fault-decision seed (default: derived from\n"
      "                      --seed; same seed = same fault sequence)\n"
      "  --partition A:B:T0:T1  cut the A<->B link from T0 to T1 seconds\n"
      "                      (repeatable)\n"
      "  --crash N:T0:T1     node N neither sends nor receives from T0 to\n"
      "                      T1 seconds (repeatable)\n",
      argv0);
}

/// Split a colon-separated numeric spec ("100:1:15:25") into doubles.
/// Exits with a diagnostic when the field count does not match `expect`.
std::vector<double> parse_colon_spec(const std::string& flag,
                                     const std::string& spec,
                                     std::size_t expect) {
  std::vector<double> fields;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t colon = spec.find(':', start);
    const std::string token =
        spec.substr(start, colon == std::string::npos ? std::string::npos
                                                      : colon - start);
    fields.push_back(std::strtod(token.c_str(), nullptr));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (fields.size() != expect) {
    std::fprintf(stderr, "%s expects %zu colon-separated fields, got '%s'\n",
                 flag.c_str(), expect, spec.c_str());
    std::exit(2);
  }
  return fields;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--networks") {
      opt.networks = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--clients") {
      opt.clients = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--servers") {
      opt.servers = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--duration") {
      opt.duration_s = std::strtod(next(), nullptr);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--profiles") {
      opt.profiles = next();
    } else if (arg == "--no-edge") {
      opt.use_edge = false;
    } else if (arg == "--refill") {
      opt.adaptive_refill = std::string(next()) == "adaptive";
    } else if (arg == "--inject-timing") {
      opt.inject_timing = true;
    } else if (arg == "--internet") {
      opt.internet = true;
    } else if (arg == "--exchange") {
      opt.exchange_period_s = std::strtod(next(), nullptr);
    } else if (arg == "--bad-fraction") {
      opt.bad_fraction = std::strtod(next(), nullptr);
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--metrics-out") {
      opt.metrics_out = next();
    } else if (arg == "--trace-out") {
      opt.trace_out = next();
    } else if (arg == "--no-spans") {
      opt.no_spans = true;
    } else if (arg == "--profile-out") {
      opt.profile_out = next();
    } else if (arg == "--flight-out") {
      opt.flight_out = next();
    } else if (arg == "--admin-port") {
      opt.admin_port = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--slo") {
      opt.slo_rules.emplace_back(next());
    } else if (arg == "--slo-interval") {
      opt.slo_interval_s = std::strtod(next(), nullptr);
    } else if (arg == "--self-sigint") {
      opt.self_sigint_s = std::strtod(next(), nullptr);
    } else if (arg == "--adversary-mix") {
      opt.adversary_mix = next();
    } else if (arg == "--adversary-count") {
      opt.adversary_count = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--adversary-rotate") {
      opt.adversary_rotate = std::strtod(next(), nullptr);
    } else if (arg == "--adversary-burst-at") {
      opt.adversary_burst_at = std::strtod(next(), nullptr);
    } else if (arg == "--scale") {
      opt.scale = true;
    } else if (arg == "--shards") {
      opt.shards = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--clients-per-edge") {
      opt.clients_per_edge = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--scale-flooders") {
      opt.scale_flooders = std::strtod(next(), nullptr);
    } else if (arg == "--scale-bad") {
      opt.scale_bad = std::strtod(next(), nullptr);
    } else if (arg == "--fault-drop") {
      opt.fault_drop = std::strtod(next(), nullptr);
    } else if (arg == "--fault-dup") {
      opt.fault_dup = std::strtod(next(), nullptr);
    } else if (arg == "--fault-reorder") {
      opt.fault_reorder = std::strtod(next(), nullptr);
    } else if (arg == "--fault-corrupt") {
      opt.fault_corrupt = std::strtod(next(), nullptr);
    } else if (arg == "--fault-seed") {
      opt.fault_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--partition") {
      const auto f = parse_colon_spec(arg, next(), 4);
      opt.partitions.push_back({static_cast<net::NodeId>(f[0]),
                                static_cast<net::NodeId>(f[1]),
                                util::from_seconds(f[2]),
                                util::from_seconds(f[3])});
    } else if (arg == "--crash") {
      const auto f = parse_colon_spec(arg, next(), 3);
      opt.crashes.push_back({static_cast<net::NodeId>(f[0]),
                             util::from_seconds(f[1]),
                             util::from_seconds(f[2])});
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.networks == 0 || opt.clients == 0 || opt.servers == 0 ||
      opt.duration_s <= 0) {
    std::fprintf(stderr, "networks, clients, servers, duration must be > 0\n");
    return false;
  }
  if (opt.clients_per_edge == 0) {
    std::fprintf(stderr, "--clients-per-edge must be > 0\n");
    return false;
  }
  if (!opt.adversary_mix.empty()) {
    if (opt.adversary_mix != "free-riders" && opt.adversary_mix != "poisoners" &&
        opt.adversary_mix != "cache-inflation" &&
        opt.adversary_mix != "sybil-burst") {
      std::fprintf(stderr,
                   "--adversary-mix must be free-riders, poisoners, "
                   "cache-inflation, or sybil-burst (got '%s')\n",
                   opt.adversary_mix.c_str());
      return false;
    }
    if (!opt.use_edge) {
      std::fprintf(stderr,
                   "--adversary-mix needs the edge tier (the policing under "
                   "attack lives there); drop --no-edge\n");
      return false;
    }
    if (opt.adversary_count == 0 || opt.adversary_count >= opt.clients) {
      std::fprintf(stderr,
                   "--adversary-count must be in [1, clients-1] so every "
                   "network keeps at least one honest client\n");
      return false;
    }
  }
  return true;
}

/// Same attacker placement as the test harness: the top --adversary-count
/// indices of every network turn hostile, leaving the low indices honest.
AdversaryPlan build_adversary_plan(const Options& opt) {
  AdversaryPlan plan;
  plan.seed = opt.seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (std::size_t net = 0; net < opt.networks; ++net) {
    for (std::size_t a = 0; a < opt.adversary_count; ++a) {
      const std::size_t idx = net * opt.clients + (opt.clients - 1 - a);
      AttackerSpec spec;
      if (opt.adversary_mix == "free-riders") {
        spec = AttackerSpec::free_rider();
        if (opt.adversary_rotate > 0.0) {
          spec.rotate_period_s = opt.adversary_rotate;
        }
      } else if (opt.adversary_mix == "poisoners") {
        spec = AttackerSpec::poisoner();
        // Colluders alternate payload styles, like the test harness.
        spec.patterned = (a % 2 == 1);
      } else if (opt.adversary_mix == "cache-inflation") {
        spec = AttackerSpec::cache_inflator();
      } else {
        const double at = opt.adversary_burst_at > 0.0
                              ? opt.adversary_burst_at
                              : opt.duration_s / 3.0;
        spec = AttackerSpec::sybil(at);
      }
      plan.attackers[idx] = spec;
    }
  }
  return plan;
}

std::vector<NetworkProfile> parse_profiles(const std::string& list,
                                           std::size_t networks) {
  std::vector<NetworkProfile> parsed;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string token =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (token == "consumer") {
      parsed.push_back(NetworkProfile::kConsumer);
    } else if (token == "producer") {
      parsed.push_back(NetworkProfile::kProducer);
    } else if (token == "balanced" || token.empty()) {
      parsed.push_back(NetworkProfile::kBalanced);
    } else {
      std::fprintf(stderr, "unknown profile '%s'\n", token.c_str());
      std::exit(2);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  std::vector<NetworkProfile> out;
  for (std::size_t k = 0; k < networks; ++k) {
    out.push_back(parsed[k % parsed.size()]);
  }
  return out;
}

/// Current resident set in MB for the /shards progress endpoint; 0 where
/// unsupported.
double current_rss_mb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long total = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

/// Builds the --slo watchdog over `registry` when --slo or --admin-port
/// asks for one (`slo` stays null otherwise). A "default" spec, or no spec
/// at all, adds the default rules. Each transition is logged to stderr and
/// then passed to `on_alert`, if set. Returns false on a bad rule spec.
bool make_slo(const Options& opt, obs::Registry& registry,
              std::function<void(const obs::SloEngine::Alert&)> on_alert,
              std::unique_ptr<obs::SloEngine>& slo) {
  if (opt.slo_rules.empty() && opt.admin_port < 0) return true;
  slo = std::make_unique<obs::SloEngine>(&registry);
  for (const std::string& spec : opt.slo_rules) {
    if (spec == "default") {
      for (const obs::SloRule& rule : obs::default_slo_rules()) {
        slo->add_rule(rule);
      }
      continue;
    }
    const auto rule = obs::parse_slo_rule(spec);
    if (!rule) {
      std::fprintf(stderr, "bad --slo rule: %s\n", spec.c_str());
      return false;
    }
    slo->add_rule(*rule);
  }
  if (slo->rule_count() == 0) {
    for (const obs::SloRule& rule : obs::default_slo_rules()) {
      slo->add_rule(rule);
    }
  }
  slo->set_alert_hook(
      [on_alert = std::move(on_alert)](const obs::SloEngine::Alert& alert) {
        std::fprintf(stderr, "slo %s: %s value %.6g limit %.6g at t=%.3f s\n",
                     alert.firing ? "ALERT" : "clear", alert.rule.c_str(),
                     alert.value, alert.limit, alert.at_s);
        if (on_alert) on_alert(alert);
      });
  return true;
}

/// The closing `slo:` line, when a watchdog ran.
void print_slo_summary(const obs::SloEngine* slo) {
  if (slo == nullptr) return;
  std::printf("slo: %zu rule(s), %llu tick(s), %llu fire(s)%s\n",
              slo->rule_count(), static_cast<unsigned long long>(slo->ticks()),
              static_cast<unsigned long long>(slo->total_fires()),
              slo->any_firing() ? " [still firing]" : "");
}

// --scale: the sharded million-client path. Skips the per-node World
// entirely — ScaleWorld owns its own struct-of-arrays state and merge-queue
// boundary, and the worker pool only changes wall-clock, never the trace.
// The observability flags mean the same thing as on the per-node path:
// --metrics-out / --trace-out exports are byte-identical at any --shards
// (the per-shard obs plane folds at window barriers in {ts, seq, shard}
// order), --slo ticks on the merged sim-time watermark, and --admin-port
// adds a live /shards progress endpoint.
int run_scale(const Options& opt) {
  ScaleConfig config;
  config.seed = opt.seed;
  config.num_clients = opt.clients;
  config.clients_per_edge = opt.clients_per_edge;
  config.duration_s = opt.duration_s;
  config.drop_prob = opt.fault_drop;
  config.flooder_fraction = opt.scale_flooders;
  config.bad_uploader_fraction = opt.scale_bad;
  for (const net::Crash& crash : opt.crashes) {
    config.crashes.push_back({static_cast<std::uint32_t>(crash.node),
                              crash.from, crash.until});
  }

  ScaleWorld world(config);
  std::printf("cadet_sim --scale: %zu clients, %zu shards (%zu edges + "
              "server), window %.1f ms, %zu worker(s)\n",
              world.num_clients(), world.num_shards(), world.num_edges(),
              util::to_seconds(world.window()) * 1e3, opt.shards);
  if (!opt.profile_out.empty() || !opt.flight_out.empty()) {
    std::fprintf(stderr,
                 "note: --profile-out/--flight-out are per-node-only; "
                 "ignored in --scale mode\n");
  }

  // ---- observability wiring (flag parity with the per-node path) ----
  obs::Registry registry;
  if (!opt.metrics_out.empty() && !obs::write_file(opt.metrics_out, "")) {
    return 2;
  }

  std::unique_ptr<obs::FileSink> trace_sink;
  obs::Tracer tracer;  // private ring; the world folds into it at barriers
  if (!opt.trace_out.empty()) {
    trace_sink = std::make_unique<obs::FileSink>(opt.trace_out);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opt.trace_out.c_str());
      return 2;
    }
    tracer.set_sink(trace_sink.get());
    tracer.enable();
    world.set_tracer(&tracer);
    world.enable_tracing(true);
  }

  std::unique_ptr<obs::SloEngine> slo;
  if (!make_slo(opt, registry, nullptr, slo)) return 2;

  obs::AdminServer admin(&registry, slo.get());
  // The /shards snapshot is rebuilt by the window hook (main thread) and
  // served from the acceptor thread; the mutex hands the string across.
  std::mutex shards_mu;
  std::string shards_json = "{}\n";
  if (opt.admin_port >= 0) {
    admin.add_source("/shards", "application/json",
                     [&shards_mu, &shards_json] {
                       std::lock_guard<std::mutex> lock(shards_mu);
                       return shards_json;
                     });
    obs::AdminServer::Options admin_opt;
    admin_opt.port = opt.admin_port;
    if (!admin.start(admin_opt)) return 2;
    std::printf("admin: http://127.0.0.1:%d (/metrics /healthz /shards)\n",
                admin.port());
    std::fflush(stdout);  // a log reader learns an ephemeral port mid-run
  }

  const auto wall_start = std::chrono::steady_clock::now();

  // The window hook runs single-threaded at every barrier: SLO evaluation
  // rides the merged sim-time watermark (same cadence semantics as the
  // per-node sim-time tick), and the admin progress snapshot is refreshed
  // with wall-clock throughput. Neither touches the export determinism:
  // metric publication depends only on sim state and the tick schedule.
  const util::SimTime slo_period =
      util::from_seconds(std::max(opt.slo_interval_s, 1e-3));
  util::SimTime next_slo = slo_period;
  double last_wall_s = 0.0;
  std::uint64_t last_events = 0;
  world.set_window_hook([&](const ScaleWorld::WindowReport& report) {
    if (slo) {
      while (next_slo <= report.watermark) {
        world.publish_metrics(registry);
        slo->tick(util::to_seconds(next_slo));
        next_slo += slo_period;
      }
    }
    if (opt.admin_port >= 0) {
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      const double interval = wall_s - last_wall_s;
      const double rate =
          interval > 0.0
              ? static_cast<double>(report.events - last_events) / interval
              : 0.0;
      last_wall_s = wall_s;
      last_events = report.events;
      std::string json = "{\"watermark_s\":";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f",
                    util::to_seconds(report.watermark));
      json += buf;
      std::snprintf(buf, sizeof(buf), ",\"events\":%llu",
                    static_cast<unsigned long long>(report.events));
      json += buf;
      std::snprintf(buf, sizeof(buf), ",\"events_per_sec\":%.0f", rate);
      json += buf;
      std::snprintf(buf, sizeof(buf), ",\"boundary_pending\":%zu",
                    world.boundary_pending());
      json += buf;
      std::snprintf(
          buf, sizeof(buf), ",\"lookahead_violations\":%llu",
          static_cast<unsigned long long>(report.lookahead_violations));
      json += buf;
      std::snprintf(buf, sizeof(buf), ",\"rss_mb\":%.1f", current_rss_mb());
      json += buf;
      json += ",\"shard_events\":[";
      for (std::size_t s = 0; s < world.num_edges(); ++s) {
        if (s != 0) json += ',';
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(world.shard_events(s)));
        json += buf;
      }
      json += "]}\n";
      std::lock_guard<std::mutex> lock(shards_mu);
      shards_json = std::move(json);
    }
  });

  util::TaskPool pool(opt.shards);
  const std::uint64_t events = world.run(
      [&pool](std::size_t count,
              const std::function<void(std::size_t)>& task) {
        pool.run(count, task);
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  world.publish_metrics(registry);  // final deltas (partial last period)

  const ScaleStats stats = world.stats();
  const double bytes_per_client =
      static_cast<double>(world.memory_bytes()) /
      static_cast<double>(world.num_clients());
  std::printf("\n=== scale run report ===\n");
  std::printf("events executed     %llu (%.0f events/s wall)\n",
              static_cast<unsigned long long>(events),
              wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0);
  std::printf("wall time           %.2f s\n", wall_s);
  std::printf("memory              %.1f bytes/client\n", bytes_per_client);
  std::printf("trace checksum      %016llx\n",
              static_cast<unsigned long long>(world.checksum()));
  std::printf("requests sent       %llu (local serves %llu, retries %llu)\n",
              static_cast<unsigned long long>(stats.requests_sent),
              static_cast<unsigned long long>(stats.local_serves),
              static_cast<unsigned long long>(stats.retried));
  std::printf("  fulfilled         %llu\n",
              static_cast<unsigned long long>(stats.fulfilled));
  std::printf("  fallback          %llu\n",
              static_cast<unsigned long long>(stats.fallback));
  std::printf("  expired           %llu\n",
              static_cast<unsigned long long>(stats.expired));
  std::printf("  heavy denied      %llu\n",
              static_cast<unsigned long long>(stats.heavy_denied));
  std::printf("uploads             %llu sent, %llu accepted, %llu penalty "
              "drops, %llu sanity rejects, %llu blacklisted client(s)\n",
              static_cast<unsigned long long>(stats.uploads_sent),
              static_cast<unsigned long long>(stats.uploads_accepted),
              static_cast<unsigned long long>(stats.uploads_dropped_penalty),
              static_cast<unsigned long long>(stats.uploads_rejected_sanity),
              static_cast<unsigned long long>(stats.blacklisted_clients));
  std::printf("boundary            %llu emitted = %llu injected, "
              "%llu refills, %llu upload forwards\n",
              static_cast<unsigned long long>(world.boundary_emitted()),
              static_cast<unsigned long long>(world.boundary_injected()),
              static_cast<unsigned long long>(stats.refills_completed),
              static_cast<unsigned long long>(stats.upload_forwards));
  std::printf("bytes delivered     %llu\n",
              static_cast<unsigned long long>(stats.bytes_delivered));
  {
    const obs::HdrHistogram& latency =
        registry.hdr("cadet_fulfillment_seconds", {},
                     obs::ShardObsPlane::scale_latency());
    if (latency.count() > 0) {
      std::printf("fulfillment latency p50 %.1f ms, p99 %.1f ms, p999 "
                  "%.1f ms (%llu obs)\n",
                  latency.quantile(0.50) * 1e3, latency.quantile(0.99) * 1e3,
                  latency.quantile(0.999) * 1e3,
                  static_cast<unsigned long long>(latency.count()));
    }
  }

  // ---- artifact flush (same order as the per-node path) ----
  if (trace_sink) {
    world.set_tracer(nullptr);
    tracer.enable(false);
    tracer.set_sink(nullptr);
    std::printf("trace: %llu event(s) -> %s\n",
                static_cast<unsigned long long>(tracer.recorded()),
                opt.trace_out.c_str());
  }
  if (!opt.metrics_out.empty()) {
    if (!obs::write_file(opt.metrics_out, obs::to_prometheus(registry))) {
      return 2;
    }
    std::printf("metrics: %zu series -> %s\n", registry.size(),
                opt.metrics_out.c_str());
  }
  print_slo_summary(slo.get());
  admin.stop();

  bool ok = true;
  if (stats.requests_sent !=
      stats.fulfilled + stats.fallback + stats.expired) {
    std::fprintf(stderr, "INVARIANT VIOLATION: request ledger unbalanced\n");
    ok = false;
  }
  if (world.boundary_emitted() != world.boundary_injected()) {
    std::fprintf(stderr, "INVARIANT VIOLATION: boundary lost events\n");
    ok = false;
  }
  if (world.lookahead_violations() != 0) {
    std::fprintf(
        stderr,
        "INVARIANT VIOLATION: %llu conservative-lookahead violation(s) at "
        "the merge boundary (cadet_shard_lookahead_violations)\n",
        static_cast<unsigned long long>(world.lookahead_violations()));
    ok = false;
  }
  return ok ? 0 : 1;
}

const char* profile_name(NetworkProfile profile) {
  switch (profile) {
    case NetworkProfile::kConsumer: return "consumer";
    case NetworkProfile::kProducer: return "producer";
    case NetworkProfile::kBalanced: return "balanced";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }

  if (opt.scale) return run_scale(opt);

  TestbedConfig config;
  config.seed = opt.seed;
  config.num_networks = opt.networks;
  config.clients_per_network = opt.clients;
  config.num_servers = opt.servers;
  config.profiles = parse_profiles(opt.profiles, opt.networks);
  config.use_edge = opt.use_edge;
  config.refill_policy = opt.adaptive_refill ? RefillPolicy::kAdaptive
                                             : RefillPolicy::kFixedFraction;
  config.inject_timing_entropy = opt.inject_timing;
  if (opt.internet) config.backbone_link = sim::internet_wan();
  config.server_seed_bytes = 1 << 20;
  if (opt.faults_requested()) {
    net::FaultPlan plan;
    plan.seed = opt.fault_seed != 0 ? opt.fault_seed : opt.seed * 7919 + 17;
    plan.default_rule.drop = opt.fault_drop;
    plan.default_rule.duplicate = opt.fault_dup;
    plan.default_rule.reorder = opt.fault_reorder;
    plan.default_rule.corrupt = opt.fault_corrupt;
    plan.partitions = opt.partitions;
    plan.crashes = opt.crashes;
    config.fault_plan = plan;
  }

  World world(config);

  // Log lines carry simulated time for the rest of the run.
  util::set_log_clock(
      [](void* ctx) { return static_cast<sim::Simulator*>(ctx)->now(); },
      &world.simulator());

  // Fail on an unwritable metrics path now, not after the whole run
  // (write_file itself reports the failure).
  if (!opt.metrics_out.empty() && !obs::write_file(opt.metrics_out, "")) {
    return 2;
  }

  std::unique_ptr<obs::FileSink> trace_sink;
  if (!opt.trace_out.empty()) {
    trace_sink = std::make_unique<obs::FileSink>(opt.trace_out);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opt.trace_out.c_str());
      return 2;
    }
    obs::Tracer::global().set_sink(trace_sink.get());
    obs::Tracer::global().enable();
    if (!opt.no_spans) {
      // Fresh ids per run: same seed => byte-identical span trace.
      obs::SpanTracker::global().reset();
      obs::SpanTracker::global().enable();
    }
  }
  if (!opt.profile_out.empty()) {
    obs::Profiler::global().reset();
    obs::Profiler::global().enable();
  }
  // The global tracer's ring of the newest events backs --flight-out and
  // /flight, so either one turns tracing on, before any protocol traffic;
  // only --trace-out attaches a sink.
  if (!opt.flight_out.empty() || opt.admin_port >= 0) {
    obs::Tracer::global().enable();
    if (!opt.flight_out.empty() && !obs::write_file(opt.flight_out, "")) {
      return 2;
    }
  }

  const bool adversarial = !opt.adversary_mix.empty();
  AdversaryPlan adversary_plan;
  if (adversarial) adversary_plan = build_adversary_plan(opt);

  // Register over a clean network, then arm the faults for the workload
  // (same discipline as the chaos harness; registration robustness has its
  // own retry machinery and tests). Adversary runs register the clients up
  // front too — except sybils, which register themselves at burst time.
  if (world.faults() != nullptr) world.faults()->set_enabled(false);
  if (opt.use_edge) world.register_edges();
  if (adversarial) register_clients_except_sybils(world, adversary_plan);
  if (world.faults() != nullptr) world.faults()->set_enabled(true);

  std::printf("cadet_sim: %zu network(s) x %zu client(s), %zu server(s), "
              "%.0f s, seed %llu\n",
              opt.networks, opt.clients, opt.servers, opt.duration_s,
              static_cast<unsigned long long>(opt.seed));
  std::printf("  edge: %s, refill: %s, timing injection: %s, backbone: %s\n",
              opt.use_edge ? "yes" : "no",
              opt.adaptive_refill ? "adaptive" : "fixed",
              opt.inject_timing ? "on" : "off",
              opt.internet ? "internet" : "testbed LAN");
  if (world.faults() != nullptr) {
    std::printf("  faults: drop %.2f dup %.2f reorder %.2f corrupt %.2f, "
                "%zu partition(s), %zu crash(es), fault seed %llu\n",
                opt.fault_drop, opt.fault_dup, opt.fault_reorder,
                opt.fault_corrupt, opt.partitions.size(), opt.crashes.size(),
                static_cast<unsigned long long>(
                    world.faults()->plan().seed));
  }
  if (adversarial) {
    std::printf("  adversary: %s, %zu attacker(s)/network (%zu total)\n",
                opt.adversary_mix.c_str(), opt.adversary_count,
                adversary_plan.attackers.size());
  }
  std::printf("\n");

  WorkloadDriver driver(world, opt.seed + 1);
  const util::SimTime t_end = util::from_seconds(opt.duration_s);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    // Hostile clients follow their AttackerSpec, not the network profile.
    if (adversarial && adversary_plan.is_attacker(i)) continue;
    ClientBehavior behavior =
        ClientBehavior::for_profile(world.profile_of(i));
    // Optionally make the first client of each network a misbehaving
    // uploader.
    if (opt.bad_fraction > 0.0 &&
        i % opt.clients == 0) {
      behavior.upload_rate_hz = std::max(behavior.upload_rate_hz, 1.0);
      behavior.bad_fraction = opt.bad_fraction;
    }
    driver.drive(i, behavior, 0, t_end);
  }
  std::unique_ptr<AdversaryDriver> hostile;
  if (adversarial) {
    hostile = std::make_unique<AdversaryDriver>(world, adversary_plan);
    hostile->drive(0, t_end);
  }
  if (opt.exchange_period_s > 0.0) {
    world.start_pool_exchange(opt.exchange_period_s, 2048, opt.duration_s);
  }

  // ---- health plane: SLO watchdog + admin endpoint ----
  std::unique_ptr<obs::SloEngine> slo;
  const auto dump_flight = [&opt](const obs::SloEngine::Alert& alert) {
    // Preserve the window leading up to the breach, not just the state at
    // exit.
    if (alert.firing && !opt.flight_out.empty()) {
      obs::write_file(opt.flight_out, obs::Tracer::global().recent_jsonl());
    }
  };
  if (!make_slo(opt, world.metrics(), dump_flight, slo)) return 2;
  if (slo) {
    // Evaluate on simulated time: a self-rescheduling tick at the
    // configured cadence, so same seed + same rules = same alert trace.
    const util::SimTime period =
        util::from_seconds(std::max(opt.slo_interval_s, 1e-3));
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [&world, engine = slo.get(), period, t_end, tick]() {
      engine->tick(util::to_seconds(world.simulator().now()));
      const util::SimTime next = world.simulator().now() + period;
      if (next <= t_end) world.simulator().schedule_at(next, *tick);
    };
    world.simulator().schedule_at(period, *tick);
  }

  obs::AdminServer admin(&world.metrics(), slo.get());
  if (opt.admin_port >= 0) {
    admin.add_source("/flight", "application/x-ndjson",
                     [] { return obs::Tracer::global().recent_jsonl(); });
    obs::AdminServer::Options admin_opt;
    admin_opt.port = opt.admin_port;
    if (!admin.start(admin_opt)) return 2;
    std::printf("admin: http://127.0.0.1:%d (/metrics /healthz /flight)\n\n",
                admin.port());
    std::fflush(stdout);  // a log reader learns an ephemeral port mid-run
  }

  if (opt.self_sigint_s > 0.0) {
    world.simulator().schedule_at(util::from_seconds(opt.self_sigint_s),
                                  []() { std::raise(SIGINT); });
  }

  // Chunked run loop: between simulated-time slices the stop flag is
  // polled, so SIGINT/SIGTERM interrupt a long run at a deterministic
  // boundary and still reach the artifact flush below.
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  const util::SimTime t_drain = t_end + util::from_seconds(10);
  const util::SimTime chunk = util::from_seconds(1.0);
  util::SimTime cursor = world.simulator().now();
  while (g_stop_signal == 0 && cursor < t_drain) {
    cursor = std::min<util::SimTime>(cursor + chunk, t_drain);
    world.simulator().run_until(cursor);
  }
  if (g_stop_signal == 0) {
    world.simulator().run();
  } else {
    std::printf("\ninterrupted by signal %d at t=%.3f s; flushing "
                "artifacts\n",
                static_cast<int>(g_stop_signal),
                util::to_seconds(world.simulator().now()));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  // ---- report ----
  const auto& metrics = driver.metrics();
  std::printf("--- service ---\n");
  std::printf("requests: %llu sent, %llu answered, %llu expired\n",
              static_cast<unsigned long long>(metrics.requests_sent),
              static_cast<unsigned long long>(metrics.responses_received),
              static_cast<unsigned long long>(metrics.requests_failed));
  if (metrics.response_times_s.count() > 0) {
    std::printf("response time: %s\n",
                metrics.response_times_s.summary().c_str());
  }
  std::printf("uploads: %llu sent (%llu intentionally bad)\n",
              static_cast<unsigned long long>(metrics.uploads_sent),
              static_cast<unsigned long long>(metrics.bad_uploads_sent));
  {
    std::uint64_t retried = 0, fallback = 0, dupes = 0;
    for (std::size_t i = 0; i < world.num_clients(); ++i) {
      retried += world.client(i).requests_retried();
      fallback += world.client(i).requests_fallback();
      dupes += world.client(i).dupes_dropped();
    }
    if (retried + fallback + dupes > 0) {
      std::printf("robustness: %llu retransmission(s), %llu local-CSPRNG "
                  "fallback(s), %llu duplicate(s) dropped\n",
                  static_cast<unsigned long long>(retried),
                  static_cast<unsigned long long>(fallback),
                  static_cast<unsigned long long>(dupes));
    }
  }

  if (world.faults() != nullptr) {
    const auto& f = world.faults()->counts();
    std::printf("\n--- fault injection ---\n");
    std::printf("dropped %llu, duplicated %llu, reordered %llu, "
                "corrupted %llu, partitioned %llu, crashed %llu\n",
                static_cast<unsigned long long>(f.dropped),
                static_cast<unsigned long long>(f.duplicated),
                static_cast<unsigned long long>(f.reordered),
                static_cast<unsigned long long>(f.corrupted),
                static_cast<unsigned long long>(f.partitioned),
                static_cast<unsigned long long>(f.crashed));
  }

  if (opt.use_edge) {
    std::printf("\n--- edge tier ---\n");
    for (std::size_t k = 0; k < world.num_edges(); ++k) {
      const auto& stats = world.edge(k).stats();
      std::printf(
          "edge %zu (%s): cache %4zu/%4zu B, hits %llu misses %llu | "
          "uploads ok %llu sanity-rej %llu penalty-drop %llu\n",
          k, profile_name(world.profile_of(k * opt.clients)),
          world.edge(k).cache().size_bytes(),
          world.edge(k).cache().capacity_bytes(),
          static_cast<unsigned long long>(stats.cache_hits),
          static_cast<unsigned long long>(stats.cache_misses),
          static_cast<unsigned long long>(stats.uploads_accepted),
          static_cast<unsigned long long>(stats.uploads_rejected_sanity),
          static_cast<unsigned long long>(stats.uploads_dropped_penalty));
    }
  }

  if (hostile) {
    const AdversaryStats& a = hostile->stats();
    std::printf("\n--- adversary (%s) ---\n", opt.adversary_mix.c_str());
    std::printf("hostile requests: %llu sent, %llu fulfilled, %llu denied | "
                "uploads %llu, token rotations %llu, sybil activations %llu\n",
                static_cast<unsigned long long>(a.requests_sent),
                static_cast<unsigned long long>(a.requests_fulfilled),
                static_cast<unsigned long long>(a.requests_denied),
                static_cast<unsigned long long>(a.uploads_sent),
                static_cast<unsigned long long>(a.token_rotations),
                static_cast<unsigned long long>(a.sybil_activations));
    for (const auto& [idx, spec] : adversary_plan.attackers) {
      EdgeNode& e = world.edge(idx / opt.clients);
      const net::NodeId cid = client_id(idx);
      std::printf("  client %3zu (%-14s): penalty %5.1f%s | usage %s, "
                  "%llu heavy denial(s)\n",
                  idx, attack_name(spec.kind), e.economics().penalty(cid),
                  e.economics().is_blacklisted(cid) ? " BLACKLISTED" : "",
                  e.economics().is_heavy(cid) ? "heavy" : "normal",
                  static_cast<unsigned long long>(e.heavy_denials(cid)));
    }
  }

  std::printf("\n--- server tier ---\n");
  for (std::size_t j = 0; j < world.num_servers(); ++j) {
    const auto& stats = world.server(j).stats();
    const auto quality = world.server(j).run_quality_check();
    std::printf("server %zu: pool %7zu B, mixed %8llu B, served %7llu B | "
                "quality %d/%d\n",
                j, world.server(j).pool().size(),
                static_cast<unsigned long long>(stats.bytes_mixed),
                static_cast<unsigned long long>(stats.bytes_served),
                quality.passed(), quality.total());
  }

  if (opt.verbose) {
    std::printf("\n--- per-client response times ---\n");
    for (std::size_t i = 0; i < world.num_clients(); ++i) {
      const auto it =
          metrics.per_client_response_s.find(client_id(i));
      if (it == metrics.per_client_response_s.end() || it->second.empty()) {
        continue;
      }
      std::printf("client %3zu (%s): %s\n", i,
                  profile_name(world.profile_of(i)),
                  it->second.summary().c_str());
    }
  }

  if (trace_sink) {
    obs::Tracer::global().enable(false);
    obs::Tracer::global().set_sink(nullptr);
    obs::SpanTracker::global().enable(false);
    std::printf("\ntrace: %llu event(s) -> %s\n",
                static_cast<unsigned long long>(
                    obs::Tracer::global().recorded()),
                opt.trace_out.c_str());
  }
  if (!opt.profile_out.empty()) {
    obs::Profiler::global().enable(false);
    if (!obs::write_file(opt.profile_out,
                         obs::Profiler::global().folded(/*sim_time=*/true))) {
      return 2;
    }
    std::printf("profile: folded stacks -> %s\n", opt.profile_out.c_str());
  }
  if (!opt.metrics_out.empty()) {
    if (!obs::write_file(opt.metrics_out,
                         obs::to_prometheus(world.metrics()))) {
      return 2;
    }
    std::printf("metrics: %zu series -> %s\n", world.metrics().size(),
                opt.metrics_out.c_str());
  }
  print_slo_summary(slo.get());
  if (!opt.flight_out.empty()) {
    const obs::Tracer& tracer = obs::Tracer::global();
    if (!obs::write_file(opt.flight_out, tracer.recent_jsonl())) return 2;
    std::printf("flight: %llu record(s) (%llu total) -> %s\n",
                static_cast<unsigned long long>(std::min<std::uint64_t>(
                    tracer.recorded(), tracer.capacity())),
                static_cast<unsigned long long>(tracer.recorded()),
                opt.flight_out.c_str());
  }
  admin.stop();
  util::set_log_clock(nullptr);
  return g_stop_signal != 0 ? 130 : 0;
}
