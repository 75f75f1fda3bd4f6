// cadet_bench — the component-kernel benchmark.
//
// Times the kernels the simulator runs, or charges a cycle cost for
// (src/cadet/config.h), and emits a flat JSON report (BENCH_N.json):
//
//   * event loop     events/sec + ns/event for the 4-ary-heap/InlineFn
//                    simulator AND for an in-binary replica of the old
//                    std::priority_queue + std::function loop, so the
//                    speedup is recorded against the pre-change baseline
//                    in the same file;
//   * ChaCha20       MB/s for the word-oriented multi-block keystream vs.
//                    the old per-byte formulation (kept here as a reference
//                    implementation and cross-checked byte-for-byte);
//   * SHA-256        MB/s over bulk input (prices kTokenHash);
//   * transport      packets/sec through SimTransport with pooled buffers;
//   * 49-node world  wall time and events/sec of the paper's testbed;
//   * HDR            histogram records/sec and p99 accuracy;
//   * protocol ops   calls/sec of packet encode + decode, the NIST sanity
//                    battery on 32 B and 1 KiB, the Yarrow fold of 1 KiB,
//                    one X25519 shared secret, seal + open of 64 B and
//                    4 KiB, and the NIST quality battery on 50,000 bits,
//                    each pricing one cost constant;
//   * overheads      span tracing, the trace ring and the sharded obs
//                    plane, each the median of interleaved off/on pairs;
//   * scale          the sharded ScaleWorld: events/sec and bytes/client.
//
// Every kernel goes through one timer (time_reps): interleaved reps, the
// median over them, and the spread. Each timed key holds a median and
// has a `<key>_spread` = (q3 - q1) / median beside it; `reps` records the
// rep count.
//
// Usage:
//   cadet_bench [--quick] [--out FILE] [--check BASELINES]
//
// --check compares throughput metrics against a flat JSON baseline map and
// exits non-zero when any gated metric regresses by more than 30%, or when
// an observability overhead (span tracing, the trace ring, the sharded
// plane) spends its budget, read as the median of interleaved off/on pairs.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "cadet/packet.h"
#include "cadet/registration.h"
#include "cadet/seal.h"
#include "crypto/chacha20.h"
#include "crypto/csprng.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "entropy/yarrow.h"
#include "net/sim_transport.h"
#include "nist/battery.h"
#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "testbed/scale.h"
#include "testbed/topology.h"
#include "testbed/workload.h"
#include "util/buffer_pool.h"
#include "util/rng.h"
#include "util/task_pool.h"
#include "util/time.h"

namespace {

using namespace cadet;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current (not peak) resident set in bytes; 0 where unsupported. Used for
/// before/after deltas around a single large construction, where the
/// page-granular error is small against the megabytes being measured.
double current_rss_bytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long total = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
#else
  return 0.0;
#endif
}

/// Peak resident set in MB over the process lifetime; 0 where unsupported.
double peak_rss_mb() {
#ifdef __linux__
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
#else
  return 0.0;
#endif
}

// ---------------------------------------------------------------------------
// Legacy references: the exact formulations this PR replaced. They live in
// the benchmark binary so every BENCH_4.json carries its own before/after
// comparison, measured on the same machine in the same run.
// ---------------------------------------------------------------------------

/// The pre-PR-4 event loop, replicated verbatim: std::priority_queue over
/// fat Event structs, type-erased through std::function, top() copied on
/// every pop, and the queue-depth gauge published on every push and pop
/// (the new loop samples it every kDepthSampleInterval events instead).
class LegacySimulator {
 public:
  using Callback = std::function<void()>;

  util::SimTime now() const noexcept { return now_; }

  void schedule(util::SimTime delay, Callback fn) {
    if (delay < 0) delay = 0;
    schedule_at(now_ + delay, std::move(fn));
  }

  void schedule_at(util::SimTime when, Callback fn) {
    if (when < now_) when = now_;
    queue_.push(Event{when, next_seq_++, std::move(fn)});
    publish_depth();
  }

  void bind_metrics(obs::Registry& registry) {
    const obs::Labels labels{{"tier", "sim"}};
    events_counter_ = &registry.counter("cadet_sim_events_legacy", labels);
    depth_gauge_ = &registry.gauge("cadet_sim_queue_depth_legacy", labels);
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();  // the copy Simulator::step() no longer makes
    queue_.pop();
    publish_depth();
    now_ = ev.time;
    if (events_counter_ != nullptr) events_counter_->inc();
    ev.fn();
    return true;
  }

  std::size_t run() {
    std::size_t executed = 0;
    while (step()) ++executed;
    return executed;
  }

 private:
  struct Event {
    util::SimTime time;
    std::uint64_t seq;
    Callback fn;
    bool operator>(const Event& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void publish_depth() noexcept {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<std::int64_t>(queue_.size()));
    }
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  util::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  obs::Counter* events_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
};

/// The pre-PR-4 ChaCha20: one block at a time, every keystream byte
/// produced and consumed individually. Also the correctness oracle for the
/// optimised implementation (byte-identity is asserted before timing).
class RefChaCha20 {
 public:
  RefChaCha20(util::BytesView key, util::BytesView nonce,
              std::uint32_t initial_counter = 0) {
    state_[0] = 0x61707865;
    state_[1] = 0x3320646e;
    state_[2] = 0x79622d32;
    state_[3] = 0x6b206574;
    for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
    state_[12] = initial_counter;
    for (int i = 0; i < 3; ++i) {
      state_[13 + i] = load_le32(nonce.data() + 4 * i);
    }
  }

  void crypt(std::uint8_t* data, std::size_t len) noexcept {
    for (std::size_t i = 0; i < len; ++i) {
      if (block_pos_ == 64) next_block();
      data[i] ^= block_[block_pos_++];
    }
  }

 private:
  static std::uint32_t rotl(std::uint32_t x, int n) noexcept {
    return (x << n) | (x >> (32 - n));
  }
  static std::uint32_t load_le32(const std::uint8_t* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
  static void quarter_round(std::uint32_t& a, std::uint32_t& b,
                            std::uint32_t& c, std::uint32_t& d) noexcept {
    a += b; d ^= a; d = rotl(d, 16);
    c += d; b ^= c; b = rotl(b, 12);
    a += b; d ^= a; d = rotl(d, 8);
    c += d; b ^= c; b = rotl(b, 7);
  }

  void next_block() noexcept {
    std::array<std::uint32_t, 16> x = state_;
    for (int round = 0; round < 10; ++round) {
      quarter_round(x[0], x[4], x[8], x[12]);
      quarter_round(x[1], x[5], x[9], x[13]);
      quarter_round(x[2], x[6], x[10], x[14]);
      quarter_round(x[3], x[7], x[11], x[15]);
      quarter_round(x[0], x[5], x[10], x[15]);
      quarter_round(x[1], x[6], x[11], x[12]);
      quarter_round(x[2], x[7], x[8], x[13]);
      quarter_round(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) {
      const std::uint32_t v = x[i] + state_[i];
      block_[4 * i] = static_cast<std::uint8_t>(v);
      block_[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
      block_[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
      block_[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
    }
    ++state_[12];
    block_pos_ = 0;
  }

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, 64> block_;
  std::size_t block_pos_ = 64;
};

// ---------------------------------------------------------------------------
// The kernel timer
// ---------------------------------------------------------------------------

/// Reps per timed kernel. Counts of the form 4k + 1 put the median and
/// both quartiles on samples.
constexpr int kQuickReps = 5;
constexpr int kFullReps = 9;

/// Timed wall seconds and work (events, calls or megabytes) of one run.
struct Tally {
  double seconds = 0.0;
  double work = 0.0;
  double rate() const { return work / seconds; }
};

/// Linear-interpolated quantile q in [0, 1] of `values`.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Every timed side of every kernel runs through here. Each rep runs each
/// side in turn, repeating the side's run until its timed seconds reach
/// `min_s`, and reads the rep as the side's work over those seconds. The
/// two sides of a pair interleave rep by rep, in ABBA order, so the host's
/// speed phases and noisy neighbours skew both alike. Returns each side's
/// per-rep rates.
std::vector<std::vector<double>> time_reps(
    int reps, double min_s, const std::vector<std::function<Tally()>>& sides) {
  std::vector<std::vector<double>> rates(sides.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < sides.size(); ++i) {
      const std::size_t side = rep % 2 == 0 ? i : sides.size() - 1 - i;
      Tally total;
      do {
        const Tally run = sides[side]();
        total.seconds += run.seconds;
        total.work += run.work;
      } while (total.seconds < min_s);
      rates[side].push_back(total.rate());
    }
  }
  return rates;
}

/// Kernel results fold into this byte, so the optimiser cannot drop the
/// calls that make them.
volatile std::uint8_t g_sink = 0;

/// A side for time_reps: one timed batch of `batch` back-to-back calls of
/// `call`, each doing `work` units and returning one byte of its result.
template <typename Call>
std::function<Tally()> calls(int batch, double work, Call call) {
  return [batch, work, call]() mutable {
    std::uint8_t fold = 0;
    const double t0 = now_s();
    for (int i = 0; i < batch; ++i) fold ^= call();
    const double seconds = now_s() - t0;
    g_sink = g_sink ^ fold;
    return Tally{seconds, batch * work};
  };
}

// ---------------------------------------------------------------------------
// Event-loop benchmark: K self-rescheduling timers with pseudorandom
// delays. The capture is 40 bytes — inside InlineFn's 48-byte inline
// buffer, beyond std::function's small-object optimisation, which is
// exactly the regime the transport's delivery closures live in.
// ---------------------------------------------------------------------------

template <typename Sim>
struct Ticker {
  Sim* sim;
  util::Xoshiro256* rng;
  std::uint64_t* executed;
  std::uint64_t* checksum;
  std::uint64_t limit;

  void operator()() {
    // Checksum only in verification runs: the timed runs measure the loop
    // machinery, and determinism is already pinned by the cross-check.
    if (checksum != nullptr) {
      *checksum = (*checksum * 1099511628211ULL) ^
                  static_cast<std::uint64_t>(sim->now());
    }
    if (++*executed >= limit) return;
    // Masked delay: one raw xoshiro draw, no rejection loop, so the
    // measured cost is the loop machinery rather than the RNG.
    sim->schedule(static_cast<util::SimTime>(1 + ((*rng)() & 0xfffff)),
                  Ticker{*this});
  }
};

/// Fires `limit` events and times them. With `checksum` set, folds every
/// event's simulated time into it.
template <typename Sim>
Tally run_event_loop(std::uint64_t limit, std::size_t tickers,
                     std::uint64_t* checksum) {
  Sim sim;
  // Both loops run as every World runs them: metrics bound. The legacy
  // replica pays the per-push/pop gauge publishing the old loop paid.
  obs::Registry registry;
  sim.bind_metrics(registry);
  // The real topology pre-sizes the simulator; do the same here (the
  // legacy loop had no reserve API — that is part of what changed).
  if constexpr (requires { sim.reserve(tickers); }) sim.reserve(tickers + 1);
  util::Xoshiro256 rng(0xbe7cULL);
  std::uint64_t executed = 0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < tickers; ++i) {
    sim.schedule(static_cast<util::SimTime>(1 + (rng() & 0xfffff)),
                 Ticker<Sim>{&sim, &rng, &executed, checksum, limit});
  }
  while (sim.step()) {
  }
  return Tally{now_s() - t0, static_cast<double>(executed)};
}

// ---------------------------------------------------------------------------
// Overhead gates: interleaved off/on pairs
// ---------------------------------------------------------------------------

/// Off/on pairs per overhead gate, and the least timed wall seconds each
/// side of a pair runs for. A testbed world lasts ~15 ms (~50 ms in full
/// mode). A 100k-client scale world lasts ~80 ms and swings the most (its
/// ~30 MB working set shares the host's caches), so its sides run longest;
/// a 1M-client world alone runs for seconds.
constexpr int kOverheadPairs = 7;
constexpr double kQuickTestbedSideSeconds = 0.3;
constexpr double kFullTestbedSideSeconds = 1.0;
constexpr double kScaleSideSeconds = 2.0;

struct Overhead {
  double side_s = 0.0;  // least timed wall seconds per side of a pair
  int worlds = 0;       // worlds run per side, all pairs
  double off = 0.0;     // median world events/s, observability off
  double on = 0.0;      // median world events/s, observability on
  double median = 0.0;  // median per-pair overhead, 1 - on/off
  double q1 = 0.0;      // quartiles of the per-pair overheads
  double q3 = 0.0;
};

/// `run_world(on)` builds and runs one world and returns its tally. Each
/// pair runs off and on worlds back to back in ABBA order until both sides
/// have run for `side_s`, and its overhead is the median over those
/// back-to-back world pairs of 1 - on/off. On a shared 4-vCPU VM one
/// world's wall time swings by up to 70% (neighbours' bursts, host speed
/// phases of seconds), so adjacent worlds cancel the phases, the median
/// drops the bursts, and the gate reads the median over pairs.
template <typename RunWorld>
Overhead measure_overhead(double side_s, RunWorld&& run_world) {
  Overhead result;
  result.side_s = side_s;
  std::vector<double> off;
  std::vector<double> on;
  std::vector<double> overhead;
  for (int p = 0; p < kOverheadPairs; ++p) {
    std::vector<double> adjacent;
    double off_s = 0.0;
    double on_s = 0.0;
    for (int w = 0; off_s < side_s || on_s < side_s; ++w) {
      const bool on_first = (p + w) % 2 == 1;
      const Tally first = run_world(on_first);
      const Tally second = run_world(!on_first);
      const Tally& off_world = on_first ? second : first;
      const Tally& on_world = on_first ? first : second;
      off_s += off_world.seconds;
      on_s += on_world.seconds;
      off.push_back(off_world.rate());
      on.push_back(on_world.rate());
      adjacent.push_back(1.0 - on_world.rate() / off_world.rate());
    }
    overhead.push_back(quantile(adjacent, 0.5));
  }
  result.worlds = static_cast<int>(off.size());
  result.off = quantile(off, 0.5);
  result.on = quantile(on, 0.5);
  result.median = quantile(overhead, 0.5);
  result.q1 = quantile(overhead, 0.25);
  result.q3 = quantile(overhead, 0.75);
  return result;
}

/// "(overhead +1.2%, IQR +0.4..+1.9%, 7 pairs of >= 0.3 s a side, 161
/// worlds a side)"
void print_overhead(const Overhead& o) {
  std::printf("(overhead %+.1f%%, IQR %+.1f..%+.1f%%, %d pairs of >= %.1f s "
              "a side, %d worlds a side)",
              100.0 * o.median, 100.0 * o.q1, 100.0 * o.q3, kOverheadPairs,
              o.side_s, o.worlds);
}

/// One 49-node testbed world driven for `duration_s` simulated seconds;
/// only run_until is timed.
Tally run_testbed_world(double duration_s) {
  testbed::TestbedConfig config;
  testbed::World world(config);
  world.register_edges();
  testbed::WorkloadDriver driver(world, config.seed + 1);
  const util::SimTime t_end = util::from_seconds(duration_s);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, testbed::ClientBehavior::for_profile(world.profile_of(i)),
                 0, t_end);
  }
  const double t0 = now_s();
  world.simulator().run_until(t_end);
  return Tally{now_s() - t0,
               static_cast<double>(world.simulator().events_executed())};
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
};

void put(std::vector<Metric>& metrics, std::string name, double value) {
  metrics.push_back({std::move(name), value});
}

double get(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// Puts `key` = the median of the per-rep `samples` and `key_spread` =
/// (q3 - q1) / median, the spread cadet_e2e reports, and prints the
/// median with its IQR.
void report(std::vector<Metric>& metrics, const std::string& key,
            const std::vector<double>& samples) {
  const double q1 = quantile(samples, 0.25);
  const double median = quantile(samples, 0.5);
  const double q3 = quantile(samples, 0.75);
  put(metrics, key, median);
  put(metrics, key + "_spread", (q3 - q1) / median);
  const int digits = median >= 1000.0 ? 0 : median >= 10.0 ? 1 : 4;
  std::printf("  %-34s %14.*f  IQR %.*f..%.*f\n", key.c_str(), digits, median,
              digits, q1, digits, q3);
}

/// `samples` with `f` applied to each.
template <typename F>
std::vector<double> each(std::vector<double> samples, F f) {
  for (double& s : samples) s = f(s);
  return samples;
}

/// The per-rep ratios a[r] / b[r] of a paired kernel.
std::vector<double> ratios(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t r = 0; r < a.size(); ++r) out.push_back(a[r] / b[r]);
  return out;
}

std::string to_json(const std::vector<Metric>& metrics, bool quick) {
  std::string out = "{\n  \"bench\": \"cadet_bench\",\n  \"schema\": 1,\n";
  out += std::string("  \"mode\": \"") + (quick ? "quick" : "full") + "\"";
  char line[128];
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof line, ",\n  \"%s\": %.3f", m.name.c_str(),
                  m.value);
    out += line;
  }
  out += "\n}\n";
  return out;
}

/// Minimal flat-JSON reader: every `"key": number` pair in the file.
/// Enough for baselines.json and for re-reading our own reports.
std::vector<Metric> parse_flat_json(const std::string& text) {
  std::vector<Metric> out;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, end - pos - 1);
    std::size_t p = end + 1;
    while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
    if (p < text.size() && text[p] == ':') {
      ++p;
      const char* start = text.c_str() + p;
      char* parsed_end = nullptr;
      const double value = std::strtod(start, &parsed_end);
      if (parsed_end != start) {
        out.push_back({key, value});
        pos = static_cast<std::size_t>(parsed_end - text.c_str());
        continue;
      }
    }
    pos = end + 1;
  }
  return out;
}

/// Throughput metrics gate CI; latency/wall-time metrics are informational
/// (their inverses are gated instead, so one knob covers both directions).
bool gated(const std::string& name) {
  return name.find("per_sec") != std::string::npos ||
         name.find("speedup") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--quick] [--out FILE] [--check BASELINES]\n",
                  argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  std::vector<Metric> metrics;
  const int reps = quick ? kQuickReps : kFullReps;
  // Least timed seconds each side of a kernel runs in one rep.
  const double rep_s = quick ? 0.05 : 0.25;
  put(metrics, "reps", reps);
  std::printf("kernels: median and IQR of %d reps, each >= %.2f s\n", reps,
              rep_s);

  // ---- event loop ----
  {
    const std::uint64_t limit = quick ? 200000 : 1000000;
    // Pending-set size in the same regime as a busy testbed run: thousands
    // of in-flight deliveries and timers.
    const std::size_t tickers = 4096;
    // Cheap determinism cross-check first: both loops must fire the same
    // events at the same simulated times in the same order.
    {
      std::uint64_t a = 0xcbf29ce484222325ULL;
      std::uint64_t b = a;
      const Tally ta = run_event_loop<sim::Simulator>(50000, tickers, &a);
      const Tally tb = run_event_loop<LegacySimulator>(50000, tickers, &b);
      if (a != b || ta.work != tb.work) {
        std::fprintf(stderr,
                     "FATAL: event order diverged from the legacy loop "
                     "(checksum %llx vs %llx)\n",
                     static_cast<unsigned long long>(a),
                     static_cast<unsigned long long>(b));
        return 3;
      }
    }
    const auto rates = time_reps(
        reps, rep_s,
        {[&] {
           return run_event_loop<sim::Simulator>(limit, tickers, nullptr);
         },
         [&] {
           return run_event_loop<LegacySimulator>(limit, tickers, nullptr);
         }});
    const auto ns = [](double rate) { return 1e9 / rate; };
    report(metrics, "events_per_sec", rates[0]);
    report(metrics, "ns_per_event", each(rates[0], ns));
    report(metrics, "legacy_events_per_sec", rates[1]);
    report(metrics, "legacy_ns_per_event", each(rates[1], ns));
    report(metrics, "event_loop_speedup", ratios(rates[0], rates[1]));
  }

  // ---- ChaCha20 ----
  {
    util::Bytes key(crypto::ChaCha20::kKeySize, 0x42);
    util::Bytes nonce(crypto::ChaCha20::kNonceSize, 0x24);
    // Byte-identity against the per-byte reference across block
    // boundaries, in one continuous stream so counter handling is covered.
    {
      crypto::ChaCha20 fast(key, nonce, 1);
      RefChaCha20 ref(key, nonce, 1);
      for (const std::size_t len : {std::size_t{63}, std::size_t{64},
                                    std::size_t{65}, std::size_t{1027},
                                    std::size_t{65536}}) {
        util::Bytes a(len, 0xa5);
        util::Bytes b(len, 0xa5);
        fast.crypt(a);
        ref.crypt(b.data(), b.size());
        if (a != b) {
          std::fprintf(stderr,
                       "FATAL: ChaCha20 diverged from the per-byte "
                       "reference at length %zu\n",
                       len);
          return 3;
        }
      }
    }
    util::Bytes buf(16384, 0x5a);
    const double mb = static_cast<double>(buf.size()) / 1e6;
    crypto::ChaCha20 fast(key, nonce);
    RefChaCha20 ref(key, nonce);
    const auto rates = time_reps(
        reps, rep_s,
        {calls(16, mb,
               [&] {
                 fast.crypt(buf);
                 return buf[0];
               }),
         calls(16, mb, [&] {
           ref.crypt(buf.data(), buf.size());
           return buf[0];
         })});
    report(metrics, "chacha20_mb_per_sec", rates[0]);
    report(metrics, "chacha20_reference_mb_per_sec", rates[1]);
    report(metrics, "chacha20_speedup", ratios(rates[0], rates[1]));
  }

  // ---- SHA-256 ----
  {
    const util::Bytes buf(16384, 0x3c);
    const double mb = static_cast<double>(buf.size()) / 1e6;
    report(metrics, "sha256_mb_per_sec",
           time_reps(reps, rep_s, {calls(16, mb, [&] {
                       return crypto::Sha256::hash(buf)[0];
                     })})[0]);
  }

  // ---- transport ----
  {
    const std::uint64_t limit = quick ? 100000 : 1000000;
    double reuse_fraction = 0.0;
    const auto run = [&] {
      sim::Simulator sim;
      net::SimTransport transport(sim, 7);
      constexpr std::size_t kNodes = 16;
      transport.reserve(kNodes);
      sim.reserve(4 * kNodes);
      std::uint64_t delivered = 0;
      for (std::size_t n = 0; n < kNodes; ++n) {
        const net::NodeId me = static_cast<net::NodeId>(1 + n);
        const net::NodeId peer =
            static_cast<net::NodeId>(1 + (n + 1) % kNodes);
        transport.set_handler(
            me, [&transport, &delivered, limit, me, peer](
                    net::NodeId, util::BytesView, util::SimTime) {
              if (++delivered >= limit) return;
              transport.send(me, peer,
                             util::BufferPool::local().acquire(128));
            });
      }
      const std::uint64_t acquired0 = util::BufferPool::local().acquired();
      const std::uint64_t reused0 = util::BufferPool::local().reused();
      const double t0 = now_s();
      for (std::size_t n = 0; n < 2 * kNodes; ++n) {
        const net::NodeId from = static_cast<net::NodeId>(1 + n % kNodes);
        const net::NodeId to =
            static_cast<net::NodeId>(1 + (n + 1) % kNodes);
        transport.send(from, to, util::BufferPool::local().acquire(128));
      }
      sim.run();
      const double elapsed = now_s() - t0;
      const std::uint64_t acquired =
          util::BufferPool::local().acquired() - acquired0;
      const std::uint64_t reused =
          util::BufferPool::local().reused() - reused0;
      if (acquired > 0) {
        reuse_fraction =
            static_cast<double>(reused) / static_cast<double>(acquired);
      }
      return Tally{elapsed, static_cast<double>(delivered)};
    };
    report(metrics, "transport_packets_per_sec",
           time_reps(reps, rep_s, {run})[0]);
    put(metrics, "transport_pool_reuse_fraction", reuse_fraction);
    std::printf("  %-34s %14.4f\n", "transport_pool_reuse_fraction",
                reuse_fraction);
  }

  // ---- end-to-end 49-node testbed ----
  {
    const double duration_s = quick ? 10.0 : 60.0;
    double events = 0.0;  // the same every world: one seed
    const auto run = [&] {
      testbed::TestbedConfig config;
      config.server_seed_bytes = 1 << 20;
      testbed::World world(config);
      world.register_edges();
      testbed::WorkloadDriver driver(world, config.seed + 1);
      const util::SimTime t_end = util::from_seconds(duration_s);
      for (std::size_t i = 0; i < world.num_clients(); ++i) {
        driver.drive(i,
                     testbed::ClientBehavior::for_profile(world.profile_of(i)),
                     0, t_end);
      }
      const double t0 = now_s();
      world.simulator().run_until(t_end + util::from_seconds(10));
      world.simulator().run();
      events = static_cast<double>(world.simulator().events_executed());
      return Tally{now_s() - t0, events};
    };
    const std::vector<double> rates = time_reps(reps, rep_s, {run})[0];
    report(metrics, "e2e_49node_wall_seconds",
           each(rates, [&](double rate) { return events / rate; }));
    put(metrics, "e2e_49node_sim_seconds", duration_s);
    put(metrics, "e2e_49node_events", events);
    report(metrics, "e2e_49node_events_per_sec", rates);
  }

  // ---- HDR histogram: record throughput + quantile accuracy ----
  {
    const std::size_t n = quick ? 200000 : 1000000;
    util::Xoshiro256 rng(0x11d5ULL);
    std::vector<double> samples;
    samples.reserve(n);
    // Heavy-tailed mixture spanning the sub-ms body and a multi-ms tail —
    // the regime where the old 10-bucket table collapsed every tail
    // quantile into one bucket.
    for (std::size_t i = 0; i < n; ++i) {
      const bool tail = (rng() & 0x1f) == 0;  // 1/32 slow path
      samples.push_back(rng.exponential(tail ? 0.25 : 0.002));
    }
    double hdr_p99 = 0.0;
    const auto run = [&] {
      obs::HdrHistogram hdr;
      const double t0 = now_s();
      for (const double s : samples) hdr.record(s);
      const double seconds = now_s() - t0;
      hdr_p99 = hdr.quantile(0.99);
      return Tally{seconds, static_cast<double>(n)};
    };
    report(metrics, "hdr_record_ops_per_sec",
           time_reps(reps, rep_s, {run})[0]);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const auto exact = [&](double q) {
      return sorted[static_cast<std::size_t>(
          q * static_cast<double>(n - 1))];
    };
    const double exact_p99 = exact(0.99);
    const double p99_err = std::fabs(hdr_p99 - exact_p99) / exact_p99;
    put(metrics, "hdr_p99_seconds", hdr_p99);
    put(metrics, "hdr_exact_p99_seconds", exact_p99);
    put(metrics, "hdr_p99_rel_error", p99_err);
    std::printf("hdr        : p99 %.6f vs exact %.6f (err %.2f%%)\n", hdr_p99,
                exact_p99, 100.0 * p99_err);
  }

  // ---- protocol operations the simulator charges cycles for ----
  // Each kernel prices one constant in src/cadet/config.h, at the payload
  // sizes the testbed runs.
  {
    const auto kernel = [&](const std::string& key, int batch, auto call) {
      report(metrics, key,
             time_reps(reps, rep_s, {calls(batch, 1.0, call)})[0]);
    };
    util::Xoshiro256 rng(0x0b5eULL);
    crypto::Csprng csprng(std::uint64_t{4});

    // kCraftPacket + kProcessPacket: a 64 B data upload.
    const util::Bytes upload = rng.bytes(64);
    kernel("packet_encode_decode_64b_per_sec", 256, [&] {
      const auto packet = decode(encode(Packet::data_upload(upload, false)));
      return packet ? packet->payload[0] : std::uint8_t{0};
    });

    // kSanityPerByte: a client's 32 B upload at the edge, an edge's 1 KiB
    // bulk upload at the server.
    const nist::SanityBattery sanity;
    for (const std::size_t bytes : {std::size_t{32}, std::size_t{1024}}) {
      const util::Bytes payload = rng.bytes(bytes);
      const util::Bytes previous = rng.bytes(bytes);
      kernel("sanity_battery_" + std::to_string(bytes) + "b_per_sec", 4, [&] {
        return static_cast<std::uint8_t>(
            sanity.run(payload, previous).passed());
      });
    }

    // kServerMixPerByte: a 1 KiB bulk upload folded into a full 1 MiB pool.
    entropy::ServerEntropyPool pool(1 << 20);
    pool.push(rng.bytes(1 << 20));
    entropy::YarrowMixer mixer(pool);
    const util::Bytes bulk = rng.bytes(1024);
    kernel("yarrow_add_input_1024b_per_sec", 4, [&] {
      mixer.add_input(bulk);
      return static_cast<std::uint8_t>(mixer.folds_performed());
    });

    // kX25519: one scalar multiplication.
    const crypto::X25519KeyPair a = make_keypair(csprng);
    const crypto::X25519KeyPair b = make_keypair(csprng);
    kernel("x25519_shared_secret_per_sec", 4,
           [&] { return a.shared_secret(b.public_key)[0]; });

    // kSealPerByte: seal + open of a 64 B reply and a 4 KiB refill.
    const util::Bytes key = rng.bytes(32);
    for (const std::size_t bytes : {std::size_t{64}, std::size_t{4096}}) {
      const util::Bytes plaintext = rng.bytes(bytes);
      kernel("seal_open_" + std::to_string(bytes) + "b_per_sec", 4, [&] {
        const auto opened =
            cadet::open(key, cadet::seal(key, plaintext, csprng));
        return opened ? (*opened)[0] : std::uint8_t{0};
      });
    }

    // kQualityPerByte: the server's quality battery on a 50,000-bit pool
    // snapshot.
    const nist::QualityBattery quality;
    const util::Bytes snapshot = rng.bytes(6250);
    kernel("quality_battery_50000bit_per_sec", 1, [&] {
      return static_cast<std::uint8_t>(quality.run(snapshot, 50000).passed());
    });
  }

  // ---- span tracing overhead ----
  // The PR-5 acceptance gate: running the testbed with the tracer + span
  // tracker on (events discarded by a null sink, so only the record/tag
  // cost is measured) must cost < 5% of the untraced events/s.
  const double overhead_duration_s = quick ? 20.0 : 60.0;
  const double testbed_side_s =
      quick ? kQuickTestbedSideSeconds : kFullTestbedSideSeconds;
  {
    struct NullSink final : obs::TraceSink {
      void write(const obs::TraceEvent&) override {}
    };
    NullSink sink;
    const Overhead o = measure_overhead(testbed_side_s, [&](bool traced) {
      if (traced) {
        obs::Tracer::global().set_sink(&sink);
        obs::Tracer::global().enable();
        obs::SpanTracker::global().reset();
        obs::SpanTracker::global().enable();
      }
      const Tally tally = run_testbed_world(overhead_duration_s);
      if (traced) {
        obs::Tracer::global().enable(false);
        obs::Tracer::global().set_sink(nullptr);
        obs::SpanTracker::global().enable(false);
      }
      return tally;
    });
    put(metrics, "span_off_events_per_sec", o.off);
    put(metrics, "span_on_events_per_sec", o.on);
    put(metrics, "span_overhead_fraction", o.median);
    std::printf("span trace : %11.0f events/s untraced, %11.0f traced ",
                o.off, o.on);
    print_overhead(o);
    std::printf("\n");
  }

  // ---- trace ring overhead ----
  // Same discipline as the span gate: the 49-node testbed with the global
  // tracer on and no sink (the ring behind --flight-out and /flight
  // absorbing every emit) vs. off.
  {
    const Overhead o = measure_overhead(testbed_side_s, [&](bool on) {
      obs::Tracer::global().clear();
      obs::Tracer::global().enable(on);
      const Tally tally = run_testbed_world(overhead_duration_s);
      obs::Tracer::global().enable(false);
      return tally;
    });
    put(metrics, "flight_off_events_per_sec", o.off);
    put(metrics, "flight_on_events_per_sec", o.on);
    put(metrics, "flight_overhead_fraction", o.median);
    std::printf("trace ring : %11.0f events/s off, %11.0f on ", o.off, o.on);
    print_overhead(o);
    std::printf("\n");
  }

  // ---- sharded scale world (BENCH_7: the million-client path) ----
  // Quick mode runs 100k clients, full mode the ROADMAP's 1M. The section
  // reports simulated-event throughput, the exact struct-of-arrays
  // bytes/client (ScaleWorld::memory_bytes), process peak RSS, and the
  // shrink factor against the per-node World's measured RSS footprint at
  // the same construction point — the before/after the SoA refactor claims.
  {
    // Determinism cross-check first, small and cheap: -j1 and -j4 must
    // produce byte-identical traces or every number below is suspect.
    {
      testbed::ScaleConfig cfg;
      cfg.seed = 77;
      cfg.num_clients = 20000;
      cfg.clients_per_edge = 512;
      cfg.duration_s = 2.0;
      cfg.drop_prob = 0.02;
      cfg.flooder_fraction = 0.005;
      cfg.bad_uploader_fraction = 0.1;
      testbed::ScaleWorld sequential(cfg);
      const std::uint64_t seq_events = sequential.run();
      testbed::ScaleWorld pooled(cfg);
      util::TaskPool pool(4);
      const std::uint64_t pool_events = pooled.run(
          [&pool](std::size_t count,
                  const std::function<void(std::size_t)>& task) {
            pool.run(count, task);
          });
      if (sequential.checksum() != pooled.checksum() ||
          seq_events != pool_events) {
        std::fprintf(stderr,
                     "FATAL: sharded trace diverged between -j1 and -j4 "
                     "(checksum %llx vs %llx)\n",
                     static_cast<unsigned long long>(sequential.checksum()),
                     static_cast<unsigned long long>(pooled.checksum()));
        return 3;
      }
    }

    // Legacy footprint: RSS delta across constructing a per-node World
    // with 2048 clients (32 networks x 64). RSS is the honest measure for
    // the old side — its state is scattered across nodes, buffers, and
    // crypto contexts with no exact accounting hook.
    double legacy_bytes_per_client = 0.0;
    {
      const std::size_t kLegacyClients = 2048;
      const double rss_before = current_rss_bytes();
      testbed::TestbedConfig config;
      config.num_networks = 32;
      config.clients_per_network = kLegacyClients / 32;
      config.profiles.assign(config.num_networks,
                             testbed::NetworkProfile::kBalanced);
      config.server_seed_bytes = 1 << 20;
      testbed::World world(config);
      world.register_edges();
      const double rss_after = current_rss_bytes();
      if (rss_after > rss_before) {
        legacy_bytes_per_client =
            (rss_after - rss_before) / static_cast<double>(kLegacyClients);
      }
    }

    testbed::ScaleConfig cfg;
    cfg.seed = 42;
    cfg.num_clients = quick ? 100'000 : 1'000'000;
    cfg.clients_per_edge = 1024;
    cfg.duration_s = quick ? 5.0 : 10.0;
    cfg.drop_prob = 0.02;
    cfg.flooder_fraction = 0.002;
    cfg.bad_uploader_fraction = 0.05;

    // Observability overhead over the same seeded run: the plane enabled
    // with tracing off (the shipping default) against the plane disabled
    // (enable_obs(false), the naked simulation), gated < 5% on the median
    // of interleaved off/on pairs. The run is deterministic, so every run
    // must execute the same events.
    // Every run is single-threaded: the plane's cost is per event, and on a
    // shared 4-vCPU VM the pooled runs' window barriers, waiting on a
    // descheduled worker, moved the plane reading from -4% to +7% between
    // otherwise equal runs. The -j1/-j4 cross-check above covers the pool.
    std::uint64_t events = 0;
    bool diverged = false;
    std::size_t clients = 0;
    std::size_t shards = 0;
    double bytes_per_client = 0.0;
    const auto run_scale_world = [&](bool on) {
      testbed::ScaleWorld world(cfg);
      world.enable_obs(on);
      const double t0 = now_s();
      const std::uint64_t executed = world.run();
      const Tally tally{now_s() - t0, static_cast<double>(executed)};
      if (events == 0) events = executed;
      diverged = diverged || executed != events;
      if (on) {  // the footprint of the shipping configuration
        clients = world.num_clients();
        shards = world.num_shards();
        bytes_per_client = static_cast<double>(world.memory_bytes()) /
                           static_cast<double>(clients);
      }
      return tally;
    };
    const Overhead plane = measure_overhead(kScaleSideSeconds, run_scale_world);
    const double eps_off = plane.off;
    const double eps = plane.on;

    if (diverged) {
      std::fprintf(stderr,
                   "FATAL: the obs plane changed the simulation (plane "
                   "off/on runs differ from %llu events)\n",
                   static_cast<unsigned long long>(events));
      return 3;
    }

    put(metrics, "scale_clients", static_cast<double>(clients));
    put(metrics, "scale_shards", static_cast<double>(shards));
    put(metrics, "scale_events", static_cast<double>(events));
    put(metrics, "scale_events_per_sec", eps);
    put(metrics, "scale_obs_off_events_per_sec", eps_off);
    put(metrics, "scale_obs_overhead_fraction", plane.median);
    put(metrics, "scale_bytes_per_client", bytes_per_client);
    put(metrics, "scale_legacy_bytes_per_client", legacy_bytes_per_client);
    if (legacy_bytes_per_client > 0.0) {
      put(metrics, "scale_soa_shrink_factor",
          legacy_bytes_per_client / bytes_per_client);
    }
    put(metrics, "scale_peak_rss_mb", peak_rss_mb());
    std::printf("scale      : %zu clients / %zu shards, %11.0f events/s "
                "(%.2f s wall), %.1f B/client vs legacy %.1f B/client",
                clients, shards, eps, static_cast<double>(events) / eps,
                bytes_per_client, legacy_bytes_per_client);
    if (legacy_bytes_per_client > 0.0) {
      std::printf(" -> %.1fx smaller", legacy_bytes_per_client /
                                           bytes_per_client);
    }
    std::printf(", peak RSS %.0f MB\n", peak_rss_mb());
    std::printf("scale obs  : %11.0f events/s plane off, %11.0f on ",
                eps_off, eps);
    print_overhead(plane);
    std::printf("\n");
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
    const std::string json = to_json(metrics, quick);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("report -> %s\n", out_path.c_str());
  }

  if (!check_path.empty()) {
    std::FILE* f = std::fopen(check_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", check_path.c_str());
      return 2;
    }
    std::string text;
    char chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
      text.append(chunk, got);
    }
    std::fclose(f);
    const std::vector<Metric> baselines = parse_flat_json(text);
    bool failed = false;
    for (const Metric& base : baselines) {
      if (!gated(base.name) || base.value <= 0.0) continue;
      const double current = get(metrics, base.name);
      if (current <= 0.0) continue;  // metric not produced in this mode
      const double ratio = current / base.value;
      if (ratio < 0.7) {
        std::fprintf(stderr,
                     "REGRESSION: %s = %.3f is %.0f%% of baseline %.3f "
                     "(floor 70%%)\n",
                     base.name.c_str(), current, 100.0 * ratio, base.value);
        failed = true;
      }
    }
    // The span-overhead gate is absolute, not baseline-relative: tracing
    // must stay under 5% of the untraced event rate on this machine.
    if (get(metrics, "span_on_events_per_sec") > 0.0) {
      const double overhead = get(metrics, "span_overhead_fraction");
      if (overhead >= 0.05) {
        std::fprintf(stderr,
                     "REGRESSION: span tracing overhead %.1f%% exceeds the "
                     "5%% budget\n",
                     100.0 * overhead);
        failed = true;
      }
    }
    // Health-plane absolute gates.
    if (get(metrics, "hdr_exact_p99_seconds") > 0.0 &&
        get(metrics, "hdr_p99_rel_error") > 0.05) {
      std::fprintf(stderr,
                   "REGRESSION: HDR p99 off by %.1f%% from the exact "
                   "percentile (budget 5%%)\n",
                   100.0 * get(metrics, "hdr_p99_rel_error"));
      failed = true;
    }
    if (get(metrics, "flight_on_events_per_sec") > 0.0 &&
        get(metrics, "flight_overhead_fraction") >= 0.03) {
      std::fprintf(stderr,
                   "REGRESSION: trace ring overhead %.1f%% exceeds "
                   "the 3%% budget\n",
                   100.0 * get(metrics, "flight_overhead_fraction"));
      failed = true;
    }
    // Scale-path absolute gates: the struct-of-arrays footprint must stay
    // an order of magnitude under the per-node World's (the whole point of
    // the refactor), with a hard bytes/client ceiling that does not move
    // with the machine.
    if (get(metrics, "scale_bytes_per_client") > 0.0 &&
        get(metrics, "scale_bytes_per_client") > 512.0) {
      std::fprintf(stderr,
                   "REGRESSION: scale world uses %.1f bytes/client, over "
                   "the 512 B ceiling\n",
                   get(metrics, "scale_bytes_per_client"));
      failed = true;
    }
    if (get(metrics, "scale_soa_shrink_factor") > 0.0 &&
        get(metrics, "scale_soa_shrink_factor") < 5.0) {
      std::fprintf(stderr,
                   "REGRESSION: struct-of-arrays state only %.1fx smaller "
                   "than the per-node World (floor 5x)\n",
                   get(metrics, "scale_soa_shrink_factor"));
      failed = true;
    }
    // The always-on sharded obs plane (tracing off — the shipping default)
    // must cost under 5% of the naked simulation's event rate. Absolute,
    // like the span gate: the budget does not move with the machine.
    if (get(metrics, "scale_obs_off_events_per_sec") > 0.0 &&
        get(metrics, "scale_obs_overhead_fraction") >= 0.05) {
      std::fprintf(stderr,
                   "REGRESSION: sharded obs plane overhead %.1f%% exceeds "
                   "the 5%% budget\n",
                   100.0 * get(metrics, "scale_obs_overhead_fraction"));
      failed = true;
    }
    if (failed) return 1;
    std::printf("check      : all gated metrics within 30%% of %s, span "
                "overhead < 5%%, ring overhead < 3%%, HDR p99 within "
                "5%%, sharded obs plane < 5%%\n",
                check_path.c_str());
  }
  return 0;
}
