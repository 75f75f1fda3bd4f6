// cadet_sweep — multithreaded chaos-seed sweep runner.
//
// Fans independent simulations out across worker threads: every seed fully
// determines its own World (workload arrivals, fault decisions, retry
// jitter), so N seeds are N embarrassingly parallel single-threaded runs
// and the sweep scales near-linearly with cores. Each run is checked
// against the same conservation invariants the chaos suite asserts
// (nothing stuck, every request accounted for), making this the bulk
// front-end for CI's full seed sweep.
//
// The JSON report contains only simulation-determined fields (no wall
// times), so the same seeds produce byte-identical reports at any -j —
// which is exactly what the cli_cadet_sweep_determinism test pins.
//
// With --adversary the sweep swaps the chaos scenarios for the hostile
// client mixes (free-riders, poisoners, cache inflation, sybil bursts —
// rotating per seed like the adversary test suite) and checks the defense
// invariants instead: honest clients never blacklisted or denied as heavy,
// poisoners always cut off, request floods always policed.
//
// Examples:
//   cadet_sweep --seeds 50 -j 8
//   cadet_sweep --seeds 100:120 --horizon 30 --json sweep.json
//   cadet_sweep --adversary --seeds 50 -j 8
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adversary_harness.h"
#include "chaos_harness.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/time.h"

namespace {

using namespace cadet;
using namespace cadet::testbed;

struct Options {
  std::uint64_t seed_begin = 0;
  std::uint64_t seed_end = 10;  // exclusive
  std::size_t jobs = 0;         // 0 = hardware concurrency
  double horizon_s = 0.0;       // 0 = scenario default (60 s)
  std::string json_out;
  std::string trace_out;  // single-seed span trace (forces one seed, -j 1)
  bool quiet = false;
  bool adversary = false;  // hostile-client mixes instead of network chaos
};

struct SeedResult {
  std::uint64_t seed = 0;
  std::uint64_t sent = 0;
  std::uint64_t fulfilled = 0;
  std::uint64_t fallback = 0;
  std::uint64_t expired = 0;
  std::uint64_t retried = 0;
  std::uint64_t pending = 0;
  std::uint64_t dupes_dropped = 0;
  std::uint64_t faults_injected = 0;
  // --adversary mode only.
  std::string mix;
  std::uint64_t heavy_rejections = 0;
  std::uint64_t penalty_drops = 0;
  std::uint64_t sanity_rejects = 0;
  std::uint64_t blacklisted = 0;
  bool ok = true;
  std::string violation;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seeds N | A:B     sweep seeds [0,N) or [A,B) (default 0:10)\n"
      "  -j N                worker threads (default: all cores)\n"
      "  --horizon SECONDS   workload horizon per seed (default 60)\n"
      "  --json FILE         write a deterministic JSON report\n"
      "  --trace-out FILE    write the span trace as JSONL (single seed\n"
      "                      only: the tracer is one-world-per-process)\n"
      "  --adversary         sweep hostile-client mixes (rotating per seed)\n"
      "                      against the defense invariants instead of\n"
      "                      network chaos (docs/ADVERSARIES.md)\n"
      "  --quiet             summary only\n",
      argv0);
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
    if (arg == "--seeds") {
      const std::string spec = next();
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos) {
        opt.seed_begin = 0;
        opt.seed_end = std::strtoull(spec.c_str(), nullptr, 10);
      } else {
        opt.seed_begin = std::strtoull(spec.substr(0, colon).c_str(),
                                       nullptr, 10);
        opt.seed_end = std::strtoull(spec.substr(colon + 1).c_str(),
                                     nullptr, 10);
      }
    } else if (arg == "-j" || arg == "--jobs") {
      opt.jobs = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--horizon") {
      opt.horizon_s = std::strtod(next(), nullptr);
    } else if (arg == "--json") {
      opt.json_out = next();
    } else if (arg == "--trace-out") {
      opt.trace_out = next();
    } else if (arg == "--adversary") {
      opt.adversary = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return opt.seed_end > opt.seed_begin;
}

SeedResult run_seed(std::uint64_t seed, double horizon_s) {
  chaos::ScenarioConfig cfg = chaos::mix_for_seed(seed);
  if (horizon_s > 0.0) cfg.horizon_s = horizon_s;
  const chaos::ScenarioResult r = chaos::run_scenario(cfg);

  SeedResult out;
  out.seed = seed;
  out.sent = r.requests_sent;
  out.fulfilled = r.fulfilled;
  out.fallback = r.fallback;
  out.expired = r.expired;
  out.retried = r.retried;
  out.pending = r.pending;
  out.dupes_dropped =
      r.client_dupes_dropped + r.edge_dupes_dropped + r.server_dupes_dropped;
  out.faults_injected = r.faults.dropped + r.faults.duplicated +
                        r.faults.reordered + r.faults.corrupted +
                        r.faults.partitioned + r.faults.crashed;

  // The chaos suite's conservation invariants, verbatim.
  if (r.pending != 0) {
    out.ok = false;
    out.violation = "pending != 0 after drain";
  } else if (r.requests_sent != r.fulfilled + r.fallback + r.expired) {
    out.ok = false;
    out.violation = "requests_sent != fulfilled + fallback + expired";
  } else if (r.requests_sent == 0) {
    out.ok = false;
    out.violation = "no requests sent";
  } else if (r.client_bytes_received > r.edge_bytes_delivered) {
    out.ok = false;
    out.violation = "client received more bytes than edges delivered";
  } else if (cfg.corrupt == 0.0 && r.honest_client_blacklisted) {
    out.ok = false;
    out.violation = "honest client blacklisted without corruption";
  }
  return out;
}

SeedResult run_adversary_seed(std::uint64_t seed, double horizon_s) {
  adversary::ScenarioConfig cfg = adversary::mix_for_seed(seed);
  if (horizon_s > 0.0) cfg.horizon_s = horizon_s;
  const adversary::ScenarioResult r = adversary::run_scenario(cfg);

  SeedResult out;
  out.seed = seed;
  out.mix = adversary::mix_name(cfg.mix);
  out.sent = r.honest_requests_sent;
  out.fulfilled = r.honest_fulfilled;
  out.fallback = r.honest_fallback;
  out.expired = r.honest_expired;
  out.pending = r.honest_pending + r.hostile_pending;
  out.heavy_rejections = r.heavy_rejections;
  out.penalty_drops = r.uploads_dropped_penalty;
  out.sanity_rejects = r.uploads_rejected_sanity;
  for (const auto& [idx, blacklisted] : r.attacker_blacklisted) {
    (void)idx;
    if (blacklisted) ++out.blacklisted;
  }

  // The adversary suite's absolute defense invariants. (The 5%-of-baseline
  // service bound needs a second, all-honest run per seed, so it stays in
  // the ctest suite; the sweep checks everything checkable from one run.)
  auto fail = [&out](const char* why) {
    if (out.ok) {
      out.ok = false;
      out.violation = why;
    }
  };
  if (out.pending != 0) fail("pending != 0 after drain");
  if (r.honest_requests_sent !=
      r.honest_fulfilled + r.honest_fallback + r.honest_expired) {
    fail("honest requests_sent != fulfilled + fallback + expired");
  }
  if (r.hostile_requests_sent !=
      r.hostile_fulfilled + r.hostile_fallback + r.hostile_expired) {
    fail("hostile requests_sent != fulfilled + fallback + expired");
  }
  if (r.honest_requests_sent == 0) fail("no honest requests sent");
  if (r.honest_blacklisted) fail("honest client blacklisted");
  if (r.honest_heavy) fail("honest client denied as heavy");
  if (r.honest_delinquent > 2) fail("honest delinquency above base rate");
  switch (cfg.mix) {
    case adversary::AttackMix::kFreeRiders:
    case adversary::AttackMix::kCacheInflation:
      if (r.heavy_rejections == 0) fail("request flood never policed");
      for (const auto& [idx, heavy] : r.attacker_heavy) {
        (void)idx;
        if (!heavy) fail("attacker evaded heavy detection");
      }
      break;
    case adversary::AttackMix::kPoisoners:
      if (out.blacklisted != r.attacker_blacklisted.size()) {
        fail("poisoner evaded the blacklist");
      }
      if (r.uploads_rejected_sanity == 0) fail("no sanity rejections");
      if (r.uploads_dropped_penalty == 0) fail("no penalty drops");
      break;
    case adversary::AttackMix::kSybilBurst:
      if (r.adversary.sybil_activations !=
          cfg.num_networks * cfg.attackers_per_network) {
        fail("sybil burst did not fully activate");
      }
      if (r.hostile_requests_sent == 0) fail("sybils never flooded");
      break;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }
  const std::size_t count =
      static_cast<std::size_t>(opt.seed_end - opt.seed_begin);
  std::size_t jobs = opt.jobs != 0
                         ? opt.jobs
                         : std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min(jobs, count);

  // Traced mode: the tracer and span tracker are process-global and
  // single-threaded by design, so tracing is a one-seed, one-thread affair.
  std::unique_ptr<obs::FileSink> trace_sink;
  if (!opt.trace_out.empty()) {
    if (count != 1) {
      std::fprintf(stderr,
                   "--trace-out needs exactly one seed (got %zu); use "
                   "--seeds A:A+1\n",
                   count);
      return 2;
    }
    jobs = 1;
    trace_sink = std::make_unique<obs::FileSink>(opt.trace_out);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opt.trace_out.c_str());
      return 2;
    }
    obs::Tracer::global().set_sink(trace_sink.get());
    obs::Tracer::global().enable();
    obs::SpanTracker::global().reset();
    obs::SpanTracker::global().enable();
  }

  std::vector<SeedResult> results(count);
  std::atomic<std::size_t> cursor{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= count) return;
      results[i] = opt.adversary
                       ? run_adversary_seed(opt.seed_begin + i, opt.horizon_s)
                       : run_seed(opt.seed_begin + i, opt.horizon_s);
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  if (trace_sink) {
    obs::Tracer::global().enable(false);
    obs::Tracer::global().set_sink(nullptr);
    obs::SpanTracker::global().enable(false);
    std::printf("trace -> %s\n", opt.trace_out.c_str());
  }

  std::size_t failures = 0;
  for (const SeedResult& r : results) {
    if (!r.ok) ++failures;
    if (opt.quiet) continue;
    if (opt.adversary) {
      std::printf("seed %6llu [%-15s]: honest %5llu/%5llu fulfilled | "
                  "heavy-rej %5llu, penalty-drop %4llu, sanity-rej %4llu, "
                  "blacklisted %llu%s%s\n",
                  static_cast<unsigned long long>(r.seed), r.mix.c_str(),
                  static_cast<unsigned long long>(r.fulfilled),
                  static_cast<unsigned long long>(r.sent),
                  static_cast<unsigned long long>(r.heavy_rejections),
                  static_cast<unsigned long long>(r.penalty_drops),
                  static_cast<unsigned long long>(r.sanity_rejects),
                  static_cast<unsigned long long>(r.blacklisted),
                  r.ok ? "" : "  VIOLATION: ",
                  r.ok ? "" : r.violation.c_str());
      continue;
    }
    std::printf("seed %6llu: sent %5llu = %5llu fulfilled + %4llu fallback "
                "+ %4llu expired | %5llu retries, %4llu dupes dropped, "
                "%6llu faults%s%s\n",
                static_cast<unsigned long long>(r.seed),
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.fulfilled),
                static_cast<unsigned long long>(r.fallback),
                static_cast<unsigned long long>(r.expired),
                static_cast<unsigned long long>(r.retried),
                static_cast<unsigned long long>(r.dupes_dropped),
                static_cast<unsigned long long>(r.faults_injected),
                r.ok ? "" : "  VIOLATION: ", r.ok ? "" : r.violation.c_str());
  }
  std::printf("%zu seed(s) on %zu thread(s): %zu violation(s), %.2f s wall "
              "(%.2f seeds/s)\n",
              count, jobs, failures, wall_s,
              static_cast<double>(count) / wall_s);

  if (!opt.json_out.empty()) {
    std::string json = "{\n  \"tool\": \"cadet_sweep\",\n  \"mode\": \"";
    json += opt.adversary ? "adversary" : "chaos";
    json += "\",\n  \"seeds\": [\n";
    char line[320];
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SeedResult& r = results[i];
      if (opt.adversary) {
        std::snprintf(
            line, sizeof line,
            "    {\"seed\": %llu, \"mix\": \"%s\", \"sent\": %llu, "
            "\"fulfilled\": %llu, \"fallback\": %llu, \"expired\": %llu, "
            "\"pending\": %llu, \"heavy_rejections\": %llu, "
            "\"penalty_drops\": %llu, \"sanity_rejects\": %llu, "
            "\"blacklisted\": %llu, \"ok\": %s}%s\n",
            static_cast<unsigned long long>(r.seed), r.mix.c_str(),
            static_cast<unsigned long long>(r.sent),
            static_cast<unsigned long long>(r.fulfilled),
            static_cast<unsigned long long>(r.fallback),
            static_cast<unsigned long long>(r.expired),
            static_cast<unsigned long long>(r.pending),
            static_cast<unsigned long long>(r.heavy_rejections),
            static_cast<unsigned long long>(r.penalty_drops),
            static_cast<unsigned long long>(r.sanity_rejects),
            static_cast<unsigned long long>(r.blacklisted),
            r.ok ? "true" : "false", i + 1 < results.size() ? "," : "");
        json += line;
        continue;
      }
      std::snprintf(
          line, sizeof line,
          "    {\"seed\": %llu, \"sent\": %llu, \"fulfilled\": %llu, "
          "\"fallback\": %llu, \"expired\": %llu, \"retried\": %llu, "
          "\"pending\": %llu, \"dupes_dropped\": %llu, "
          "\"faults_injected\": %llu, \"ok\": %s}%s\n",
          static_cast<unsigned long long>(r.seed),
          static_cast<unsigned long long>(r.sent),
          static_cast<unsigned long long>(r.fulfilled),
          static_cast<unsigned long long>(r.fallback),
          static_cast<unsigned long long>(r.expired),
          static_cast<unsigned long long>(r.retried),
          static_cast<unsigned long long>(r.pending),
          static_cast<unsigned long long>(r.dupes_dropped),
          static_cast<unsigned long long>(r.faults_injected),
          r.ok ? "true" : "false", i + 1 < results.size() ? "," : "");
      json += line;
    }
    json += "  ],\n  \"violations\": ";
    json += std::to_string(failures);
    json += "\n}\n";
    std::FILE* f = std::fopen(opt.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opt.json_out.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("report -> %s\n", opt.json_out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
