// cadet_report — join a CADET span trace with a metrics snapshot into a
// run report: per-path fulfillment latency percentiles, cache-hit
// breakdown, the retry/fallback funnel, refill outcomes, and an upload
// policing timeline — as text (stdout / --out) and as a self-contained
// HTML page (--html).
//
// Every execution path (the per-node World, the sharded ScaleWorld, the
// UDP runner) emits one trace and metric vocabulary, so one pipeline reads
// any run: sections render from what the trace holds (the shard section
// when events carry a `shard` stream attribute, the policed-clients
// section when there are policing events).
//
// The report is reconstructed from the trace alone, in one pass that also
// validates it. Per trace id, an 'E' record with no open 'B' for its span,
// or a 'B'/'X' record whose parent no 'B'/'X' of the trace defines, is an
// orphan, and a 'B' that no 'E' closes by the end of the file is unclosed.
// Shard-tagged events (cadet_sim --scale) must rise strictly in
// {ts, seq, shard} order, the order the barrier fold writes. --check makes
// any orphan, unclosed span, order violation or malformed line fatal.
//
// When a Prometheus snapshot (cadet_sim --metrics-out) is also given, each
// row of kJoinRows pairs a trace event with the counter family that counts
// the same fact, and --check makes any disagreement fatal too. That closes
// the loop on the span plumbing: if a serve path ever stops emitting its
// event, the report and the counters drift apart and CI notices.
//
// There is no event filter: the trace holds one JSON object per line, so
// `grep '"ev":"cache_hit"' t.jsonl | head` lists events of one kind.
//
// Examples:
//   cadet_sim --duration 120 --trace-out t.jsonl --metrics-out m.prom
//   cadet_report t.jsonl --metrics m.prom --check
//   cadet_report t.jsonl --check          # span trees and shard order only
//   cadet_report t.jsonl --html report.html
//   cadet_sim --adversary-mix free-riders --trace-out adv.jsonl
//   cadet_report adv.jsonl --adversary
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace {

using namespace cadet;

struct Options {
  std::string trace_path;
  std::string metrics_path;  // optional Prometheus snapshot
  std::string html_path;     // optional HTML report
  std::string out_path;      // optional text report file ("" = stdout)
  bool check = false;        // a broken trace or a join mismatch is fatal
  bool adversary = false;    // the defense claims must hold
  std::string validate_path;  // standalone exposition lint (no trace)
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s TRACE.jsonl [options]\n"
      "       %s --validate-metrics FILE\n"
      "  --metrics FILE  Prometheus snapshot to join (cadet_sim"
      " --metrics-out)\n"
      "  --check         exit non-zero on a malformed line, an orphan or\n"
      "                  unclosed span, a shard-order violation, or (with\n"
      "                  --metrics) a trace/metrics disagreement\n"
      "  --adversary     exit non-zero unless the trace shows attackers\n"
      "                  policed and served worse than honest clients\n"
      "                  (see docs/ADVERSARIES.md)\n"
      "  --html FILE     also write a self-contained HTML report\n"
      "  --out FILE      write the text report to FILE instead of stdout\n"
      "  --validate-metrics FILE  parse a Prometheus exposition (e.g. a\n"
      "                  scraped /metrics body) and exit non-zero on any\n"
      "                  malformed line; no trace needed\n",
      argv0, argv0);
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
    if (arg == "--metrics") {
      opt.metrics_path = next();
    } else if (arg == "--validate-metrics") {
      opt.validate_path = next();
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--adversary") {
      opt.adversary = true;
    } else if (arg == "--html") {
      opt.html_path = next();
    } else if (arg == "--out") {
      opt.out_path = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    } else if (opt.trace_path.empty()) {
      opt.trace_path = arg;
    } else {
      std::fprintf(stderr, "extra argument %s\n", arg.c_str());
      return false;
    }
  }
  return !opt.trace_path.empty() || !opt.validate_path.empty();
}

/// --validate-metrics: lint one exposition file with parse_prometheus.
/// Non-zero on read failure, malformed lines, or an empty exposition (a
/// scrape that returned nothing is a broken scrape).
int validate_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::PromParse parsed = obs::parse_prometheus(buffer.str());
  for (const auto& error : parsed.errors) {
    std::fprintf(stderr, "malformed line: %s\n", error.c_str());
  }
  if (!parsed.errors.empty()) return 1;
  if (parsed.samples.empty()) {
    std::fprintf(stderr, "%s: no samples\n", path.c_str());
    return 1;
  }
  std::printf("%s: %zu sample(s), %zu metric type(s), 0 errors\n",
              path.c_str(), parsed.samples.size(), parsed.types.size());
  return 0;
}

/// One reconstructed request trace (root span "request" on the client).
struct RequestTrace {
  std::uint64_t node = 0;  // requesting client id
  double begin_s = 0.0;
  double end_s = 0.0;
  std::string outcome;     // reply | fallback | request_expired | (open)
  std::string serve_path;  // cache_hit | cache_miss | e2e | (none)
  std::uint64_t retries = 0;
  bool closed = false;
  double latency_s() const { return end_s - begin_s; }
};

/// Everything the report derives from the trace.
struct TraceDigest {
  std::uint64_t total_events = 0;
  std::uint64_t malformed = 0;
  double first_ts = 0.0;
  double last_ts = 0.0;

  /// Events per (tier, name): the trace side of every count the report
  /// prints and joins.
  std::map<std::pair<std::string, std::string>, std::uint64_t> events;
  std::uint64_t count(const char* tier, const char* name) const {
    const auto it = events.find({tier, name});
    return it == events.end() ? 0 : it->second;
  }

  std::vector<RequestTrace> requests;

  // Policing events over time, with the client they hit — penalty_drop /
  // sanity_reject on the upload path, heavy_deny on the request path.
  struct Policing {
    double ts_s;
    std::string name;  // penalty_drop | sanity_reject | heavy_deny
    std::uint64_t client;
  };
  std::vector<Policing> policing;

  // Entropy provenance: per-delivery source batch ranges.
  util::Samples delivery_gen_lo;
  util::Samples delivery_gen_hi;

  // Watchdog transitions (slo_alert / slo_clear health-plane events).
  struct SloTransition {
    double ts_s = 0.0;
    bool firing = false;
    double rule = -1.0;  // rule index within the engine
    double value = 0.0;
    double limit = 0.0;
  };
  std::vector<SloTransition> slo_transitions;

  // Sharded runs stamp every event with its stream's `shard`; replies
  // carry the fulfillment latency, and net-tier cross_* events carry the
  // boundary crossing latency.
  struct ShardRow {
    std::uint64_t events = 0;
    util::Samples fulfill_s;
  };
  std::map<std::uint64_t, ShardRow> shards;
  std::vector<std::pair<double, double>> crossings;  // {ts, latency}
  std::uint64_t order_violations = 0;  // {ts, seq, shard} steps backwards

  // Span-tree census: records carrying a trace id, the record that ends
  // each trace, and the structural problems --check rejects.
  struct SpanCensus {
    std::size_t traces = 0;
    std::uint64_t records = 0;  // 'B' / 'E' / 'X'
    std::uint64_t tagged = 0;   // other events with a trace id
    std::map<std::string, std::uint64_t> outcomes;
    std::uint64_t orphans = 0;
    std::uint64_t unclosed = 0;
  };
  SpanCensus spans;

  /// Everything --check rejects apart from a join mismatch, as messages.
  std::vector<std::string> problems() const {
    std::vector<std::string> out;
    const auto note = [&](std::uint64_t n, const char* what) {
      if (n > 0) out.push_back(std::to_string(n) + " " + what);
    };
    note(malformed, "malformed line(s)");
    note(spans.orphans, "orphan span record(s)");
    note(spans.unclosed, "unclosed span(s)");
    note(order_violations, "{ts, seq, shard} order violation(s)");
    return out;
  }
};

bool contains(const std::vector<std::uint64_t>& ids, std::uint64_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// One trace id's span state, kept to the end of the file: a parent may be
/// defined after the child that names it.
struct SpanTree {
  std::vector<std::uint64_t> defined;  // spans of its 'B' / 'X' records
  std::vector<std::uint64_t> parents;  // parents those records name
  std::vector<std::uint64_t> open;     // 'B' spans no 'E' has closed yet
  std::string outcome;  // the last 'E', or a parentless 'X' root

  void observe(const obs::ParsedEvent& e, TraceDigest::SpanCensus& census) {
    if (e.phase == 'B' || e.phase == 'X') {
      ++census.records;
      defined.push_back(e.span);
      if (e.parent != 0) parents.push_back(e.parent);
      if (e.phase == 'B' && !contains(open, e.span)) open.push_back(e.span);
      if (e.phase == 'X' && e.parent == 0) outcome = e.name;  // e.g. upload
    } else if (e.phase == 'E') {
      ++census.records;
      const auto it = std::find(open.begin(), open.end(), e.span);
      if (it == open.end()) {
        ++census.orphans;
      } else {
        open.erase(it);
      }
      outcome = e.name;
    } else {
      ++census.tagged;
    }
  }

  void close(TraceDigest::SpanCensus& census) const {
    for (const std::uint64_t parent : parents) {
      if (!contains(defined, parent)) ++census.orphans;
    }
    census.unclosed += open.size();
    if (!outcome.empty()) {
      ++census.outcomes[outcome];
    } else if (open.empty()) {
      ++census.outcomes["(eventless)"];
    }
  }
};

bool digest_trace(const std::string& path, TraceDigest& digest) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }

  // trace id -> request under reconstruction (requests only; refills and
  // uploads fold straight into counters).
  std::map<std::uint64_t, RequestTrace> open_requests;
  std::map<std::uint64_t, SpanTree> trees;  // every trace id seen
  std::optional<std::tuple<double, double, double>> last_merge_key;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto event = obs::parse_json_line(line);
    if (!event) {
      ++digest.malformed;
      continue;
    }
    if (digest.total_events == 0) digest.first_ts = event->ts_s;
    digest.last_ts = event->ts_s;
    ++digest.total_events;
    const auto& e = *event;
    ++digest.events[{e.tier, e.name}];
    if (e.trace != 0) trees[e.trace].observe(e, digest.spans);

    if (e.name == "request" && e.tier == "client" && e.phase == 'B') {
      RequestTrace req;
      req.node = e.node;
      req.begin_s = e.ts_s;
      open_requests[e.trace] = req;
    } else if (e.tier == "client" && e.phase == 'E') {
      const auto it = open_requests.find(e.trace);
      if (it != open_requests.end()) {
        it->second.end_s = e.ts_s;
        it->second.outcome = e.name;
        it->second.closed = true;
        digest.requests.push_back(it->second);
        open_requests.erase(it);
      }
    } else if (e.name == "request_retry") {
      const auto it = open_requests.find(e.trace);
      if (it != open_requests.end()) ++it->second.retries;
    } else if (e.name == "cache_hit" || e.name == "cache_miss" ||
               e.name == "e2e_forward") {
      const auto it = open_requests.find(e.trace);
      if (it != open_requests.end() && it->second.serve_path.empty()) {
        it->second.serve_path =
            e.name == "e2e_forward" ? "e2e" : e.name;
      }
    } else if (e.name == "penalty_drop" || e.name == "sanity_reject" ||
               e.name == "heavy_deny") {
      digest.policing.push_back(
          {e.ts_s, e.name,
           static_cast<std::uint64_t>(e.attr("client", 0.0))});
    } else if (e.name == "slo_alert" || e.name == "slo_clear") {
      digest.slo_transitions.push_back({e.ts_s, e.name == "slo_alert",
                                        e.attr("rule", -1.0),
                                        e.attr("value", 0.0),
                                        e.attr("limit", 0.0)});
    }
    // Provenance attrs ride both serve kinds (hit at request time,
    // delivery at drain time) where the edge tracks source batches.
    if ((e.name == "delivery" || e.name == "cache_hit") &&
        e.attr("src_lo", -1.0) >= 0.0) {
      digest.delivery_gen_lo.add(e.attr("src_lo", 0.0));
      digest.delivery_gen_hi.add(e.attr("src_hi", 0.0));
    }

    const double shard_attr = e.attr("shard", -1.0);
    if (shard_attr >= 0.0) {
      auto& row = digest.shards[static_cast<std::uint64_t>(shard_attr)];
      ++row.events;
      if (e.tier == "client" && e.name == "reply") {
        row.fulfill_s.add(e.attr("latency_s", 0.0));
      } else if (e.tier == "net") {
        digest.crossings.emplace_back(e.ts_s, e.attr("latency_s", 0.0));
      }
      // The barrier fold stamps `seq` next to `shard` and writes the
      // merged stream in strictly rising {ts, seq, shard} order.
      const double seq = e.attr("seq", -1.0);
      if (seq >= 0.0) {
        const std::tuple key{e.ts_s, seq, shard_attr};
        if (last_merge_key && !(key > *last_merge_key)) {
          ++digest.order_violations;
        }
        last_merge_key = key;
      }
    }
  }

  // Requests still open at end-of-trace (sim stopped mid-flight).
  for (auto& [trace_id, req] : open_requests) {
    req.outcome = "(open)";
    digest.requests.push_back(req);
  }
  digest.spans.traces = trees.size();
  for (const auto& [trace_id, tree] : trees) tree.close(digest.spans);
  return true;
}

/// Metrics-side truth pulled from a Prometheus snapshot.
struct MetricsDigest {
  bool loaded = false;
  std::size_t samples = 0;
  /// Sample name -> value summed over every label set.
  std::map<std::string, double> totals;
  std::uint64_t counter(const char* family) const {
    const auto it = totals.find(std::string(family) + "_total");
    return it == totals.end() ? 0 : static_cast<std::uint64_t>(it->second);
  }

  // Quantiles recovered from the cadet_fulfillment_seconds HDR histogram's
  // _bucket series (upper-edge estimates — exact to the HDR cell width).
  struct HdrQuantiles {
    bool loaded = false;
    double count = 0.0;
    double sum = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  };
  HdrQuantiles fulfillment;
};

/// Reconstruct quantiles from cumulative `_bucket` samples of one metric
/// family. Multiple label sets are merged by first delta-izing each series
/// (populated-cells-only HDR exports give every series its own edge grid,
/// so cumulative counts cannot be summed edge-wise directly).
MetricsDigest::HdrQuantiles hdr_quantiles_of(
    const std::vector<obs::PromSample>& samples, const std::string& family) {
  MetricsDigest::HdrQuantiles out;
  const std::string bucket_name = family + "_bucket";
  // (labels minus le) -> le -> cumulative count, per exposition order.
  std::map<obs::Labels, std::map<double, double>> series;
  for (const auto& sample : samples) {
    if (sample.name == family + "_count") {
      out.count += sample.value;
    } else if (sample.name == family + "_sum") {
      out.sum += sample.value;
    } else if (sample.name == bucket_name) {
      double le = 0.0;
      obs::Labels rest;
      bool has_le = false;
      for (const auto& [key, value] : sample.labels) {
        if (key == "le") {
          has_le = true;
          le = value == "+Inf"
                   ? std::numeric_limits<double>::infinity()
                   : std::strtod(value.c_str(), nullptr);
        } else {
          rest.emplace_back(key, value);
        }
      }
      if (has_le) series[rest][le] = sample.value;
    }
  }
  if (series.empty() || out.count <= 0.0) return out;
  // Merge per-bucket deltas onto the union grid, then re-accumulate.
  std::map<double, double> deltas;
  for (const auto& [labels, cumulative] : series) {
    double prev = 0.0;
    for (const auto& [le, cum] : cumulative) {
      deltas[le] += cum - prev;
      prev = cum;
    }
  }
  const auto quantile = [&](double q) {
    const double target = q * out.count;
    double cumulative = 0.0;
    double last_finite = 0.0;
    for (const auto& [le, n] : deltas) {
      cumulative += n;
      if (std::isfinite(le)) last_finite = le;
      if (cumulative >= target) {
        return std::isfinite(le) ? le : last_finite;
      }
    }
    return last_finite;
  };
  out.p50 = quantile(0.50);
  out.p90 = quantile(0.90);
  out.p99 = quantile(0.99);
  out.loaded = true;
  return out;
}

bool digest_metrics(const std::string& path, MetricsDigest& digest) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::PromParse parsed = obs::parse_prometheus(buffer.str());
  for (const auto& error : parsed.errors) {
    std::fprintf(stderr, "warning: unparsable metrics line: %s\n",
                 error.c_str());
  }
  digest.samples = parsed.samples.size();
  for (const auto& sample : parsed.samples) {
    digest.totals[sample.name] += sample.value;
  }
  digest.fulfillment =
      hdr_quantiles_of(parsed.samples, "cadet_fulfillment_seconds");
  digest.loaded = true;
  return true;
}

/// The trace-vs-metrics join: each row pairs a trace event with the counter
/// family that counts the same fact, under the names every path uses. A
/// row a run never exercises (e2e forwards on ScaleWorld, which has no
/// end-to-end mode) agrees at zero.
struct JoinRow {
  const char* label;
  const char* tier;    // trace event tier
  const char* event;   // trace event name
  const char* family;  // counter family
};
constexpr JoinRow kJoinRows[] = {
    {"requests", "client", "request", "cadet_client_requests_sent"},
    {"fulfilled", "client", "reply", "cadet_client_requests_fulfilled"},
    {"edge requests", "edge", "request", "cadet_edge_requests_received"},
    {"cache hits", "edge", "cache_hit", "cadet_edge_cache_hits"},
    {"cache misses", "edge", "cache_miss", "cadet_edge_cache_misses"},
    {"e2e forwards", "edge", "e2e_forward", "cadet_edge_e2e_forwarded"},
};

struct JoinResult {
  const char* label;
  std::uint64_t trace;
  std::uint64_t metrics;
};

std::vector<JoinResult> join(const TraceDigest& digest,
                             const MetricsDigest& metrics) {
  std::vector<JoinResult> rows;
  for (const JoinRow& row : kJoinRows) {
    rows.push_back({row.label, digest.count(row.tier, row.event),
                    metrics.counter(row.family)});
  }
  return rows;
}

std::uint64_t mismatches_of(const std::vector<JoinResult>& rows) {
  std::uint64_t n = 0;
  for (const JoinResult& row : rows) n += row.trace != row.metrics ? 1 : 0;
  return n;
}

/// Edge-tier refill span outcomes, in report order.
constexpr const char* kRefillOutcomes[] = {"refill_data", "refill_retry",
                                           "refill_lost"};

struct LatencyRow {
  std::string label;
  std::size_t n = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
};

/// Latency percentiles for closed, fulfilled request spans, overall and
/// split by serve path.
std::vector<LatencyRow> latency_rows(const TraceDigest& digest) {
  std::map<std::string, util::Samples> by_path;
  util::Samples all;
  for (const auto& req : digest.requests) {
    if (!req.closed || req.outcome != "reply") continue;
    all.add(req.latency_s());
    const std::string path =
        req.serve_path.empty() ? "(direct)" : req.serve_path;
    by_path[path].add(req.latency_s());
  }
  std::vector<LatencyRow> rows;
  const auto row = [](const std::string& label, const util::Samples& s) {
    LatencyRow r;
    r.label = label;
    r.n = s.count();
    r.p50 = s.quantile(0.5);
    r.p95 = s.quantile(0.95);
    r.p99 = s.quantile(0.99);
    r.max = s.max();
    return r;
  };
  if (all.count() > 0) rows.push_back(row("all", all));
  for (const auto& [path, samples] : by_path) {
    rows.push_back(row(path, samples));
  }
  return rows;
}

struct Funnel {
  std::uint64_t sent = 0;
  std::uint64_t first_try = 0;   // replies with zero retries
  std::uint64_t retried = 0;     // requests that retransmitted at least once
  std::uint64_t retry_reply = 0; // replies after >=1 retry
  std::uint64_t fallback = 0;
  std::uint64_t expired = 0;
  std::uint64_t open = 0;
};

void funnel_add(Funnel& f, const RequestTrace& req) {
  ++f.sent;
  if (req.retries > 0) ++f.retried;
  if (req.outcome == "reply") {
    (req.retries > 0 ? f.retry_reply : f.first_try) += 1;
  } else if (req.outcome == "fallback") {
    ++f.fallback;
  } else if (req.outcome == "request_expired") {
    ++f.expired;
  } else {
    ++f.open;
  }
}

Funnel funnel_of(const TraceDigest& digest) {
  Funnel f;
  for (const auto& req : digest.requests) funnel_add(f, req);
  return f;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// ---- policed-clients section (and the --adversary claims) ----

/// A client is called hostile once it was denied as a heavy user at least
/// once or accumulated this many upload-policing events. Honest devices do
/// trip the sanity battery occasionally (its false-positive base rate), so
/// a handful of rejects alone is not hostile.
constexpr std::uint64_t kHostilePolicingFloor = 5;

/// Per-policed-client defense activity reconstructed from the trace.
struct PolicedClient {
  std::uint64_t client = 0;
  std::uint64_t penalty = 0;  // penalty_drop events
  std::uint64_t sanity = 0;   // sanity_reject events
  std::uint64_t heavy = 0;    // heavy_deny events
  double first_ts = 0.0;
  double last_ts = 0.0;
  std::vector<std::uint64_t> buckets;  // policing events per time bucket
  std::uint64_t total() const { return penalty + sanity + heavy; }
  bool hostile() const {
    return heavy > 0 || penalty + sanity >= kHostilePolicingFloor;
  }
};

struct AdversarySection {
  std::vector<PolicedClient> rows;  // sorted by client id
  Funnel honest;                    // requests from never-hostile clients
  Funnel hostile;                   // requests from hostile clients
  std::size_t honest_clients = 0;   // distinct requesters per class
  std::size_t hostile_clients = 0;  // (poisoners never request: rows only)
};

AdversarySection adversary_section_of(const TraceDigest& digest,
                                      std::size_t buckets = 24) {
  AdversarySection section;
  const double span = std::max(digest.last_ts - digest.first_ts, 1e-9);
  std::map<std::uint64_t, PolicedClient> by_client;
  for (const auto& event : digest.policing) {
    PolicedClient& row = by_client[event.client];
    if (row.buckets.empty()) {
      row.client = event.client;
      row.buckets.assign(buckets, 0);
      row.first_ts = event.ts_s;
    }
    row.first_ts = std::min(row.first_ts, event.ts_s);
    row.last_ts = std::max(row.last_ts, event.ts_s);
    if (event.name == "penalty_drop") {
      ++row.penalty;
    } else if (event.name == "sanity_reject") {
      ++row.sanity;
    } else {
      ++row.heavy;
    }
    std::size_t i = static_cast<std::size_t>(
        (event.ts_s - digest.first_ts) / span * static_cast<double>(buckets));
    if (i >= buckets) i = buckets - 1;
    ++row.buckets[i];
  }

  std::map<std::uint64_t, bool> is_hostile;
  for (const auto& [id, row] : by_client) {
    is_hostile[id] = row.hostile();
    section.rows.push_back(row);
  }
  std::map<std::uint64_t, bool> requested;
  for (const auto& req : digest.requests) {
    const auto it = is_hostile.find(req.node);
    const bool hostile = it != is_hostile.end() && it->second;
    funnel_add(hostile ? section.hostile : section.honest, req);
    requested[req.node] = hostile;
  }
  for (const auto& [id, hostile] : requested) {
    (hostile ? section.hostile_clients : section.honest_clients) += 1;
  }
  return section;
}

/// ASCII density timeline for one policed client, scaled to `peak`.
std::string spark_of(const std::vector<std::uint64_t>& buckets,
                     std::uint64_t peak) {
  static const char kLevels[] = " .:-=+*#%@";
  std::string out;
  for (const std::uint64_t n : buckets) {
    const std::size_t level =
        n == 0 ? 0 : 1 + n * 8 / std::max<std::uint64_t>(peak, 1);
    out += kLevels[std::min<std::size_t>(level, 9)];
  }
  return out;
}

/// The defense claims --adversary asserts. Empty means the trace shows the
/// economics holding.
std::vector<std::string> adversary_problems(const AdversarySection& s) {
  std::vector<std::string> problems;
  if (s.rows.empty()) {
    problems.push_back(
        "no policing events in trace: defenses never engaged (is this an"
        " adversarial run?)");
    return problems;
  }
  std::uint64_t hostile_rows = 0;
  for (const auto& row : s.rows) hostile_rows += row.hostile() ? 1 : 0;
  if (hostile_rows == 0) {
    problems.push_back(
        "no client crossed the hostile policing floor: attackers were"
        " never cut off");
  }
  const std::uint64_t honest_ok = s.honest.first_try + s.honest.retry_reply;
  const std::uint64_t hostile_ok =
      s.hostile.first_try + s.hostile.retry_reply;
  if (s.hostile.sent > 0 && s.honest.sent > 0 &&
      ratio(hostile_ok, s.hostile.sent) >= ratio(honest_ok, s.honest.sent)) {
    problems.push_back(
        "hostile clients were served at least as well as honest ones:"
        " the usage defenses did not bite");
  }
  return problems;
}

/// Policing events bucketed over the run (for the timeline).
struct TimelineBucket {
  double t0 = 0.0, t1 = 0.0;
  std::uint64_t penalty = 0;
  std::uint64_t sanity = 0;
};

std::vector<TimelineBucket> policing_timeline(const TraceDigest& digest,
                                              std::size_t buckets = 20) {
  std::vector<TimelineBucket> timeline;
  bool any_upload_policing = false;
  for (const auto& event : digest.policing) {
    if (event.name != "heavy_deny") any_upload_policing = true;
  }
  if (!any_upload_policing || digest.last_ts <= digest.first_ts) {
    return timeline;
  }
  const double span = digest.last_ts - digest.first_ts;
  timeline.resize(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    timeline[i].t0 = digest.first_ts + span * static_cast<double>(i) /
                                          static_cast<double>(buckets);
    timeline[i].t1 = digest.first_ts + span * static_cast<double>(i + 1) /
                                          static_cast<double>(buckets);
  }
  for (const auto& event : digest.policing) {
    if (event.name == "heavy_deny") continue;  // request path, not uploads
    std::size_t i = static_cast<std::size_t>(
        (event.ts_s - digest.first_ts) / span * static_cast<double>(buckets));
    if (i >= buckets) i = buckets - 1;
    (event.name == "penalty_drop" ? timeline[i].penalty
                                  : timeline[i].sanity) += 1;
  }
  return timeline;
}

// ---- shard section (traces whose events carry `shard`) ----

/// Shard load-imbalance table + per-shard fulfillment percentiles + the
/// boundary crossing-latency heatmap, reconstructed from the shard/seq
/// stream attributes a sharded run's trace carries.
void shard_section(const TraceDigest& digest, std::string& out) {
  char buf[256];
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };

  // Stream ids: 0..E-1 are edge shards, E is the server stream, E+1 the
  // window-boundary stream (obs/shard_obs.h).
  const std::uint64_t boundary_id = digest.shards.rbegin()->first;
  const std::uint64_t server_id = boundary_id > 0 ? boundary_id - 1 : 0;

  std::uint64_t edge_total = 0;
  std::uint64_t edge_min = ~0ULL;
  std::uint64_t edge_max = 0;
  std::size_t edges = 0;
  for (const auto& [shard, row] : digest.shards) {
    if (shard >= server_id) continue;
    ++edges;
    edge_total += row.events;
    edge_min = std::min(edge_min, row.events);
    edge_max = std::max(edge_max, row.events);
  }
  const double edge_mean =
      edges > 0 ? static_cast<double>(edge_total) / static_cast<double>(edges)
                : 0.0;

  add("\n--- shard load ---\n");
  add("%zu edge shard(s) + server + boundary streams, %llu edge events\n",
      edges, static_cast<unsigned long long>(edge_total));
  if (edges > 0) {
    add("per-shard events min %llu / mean %.1f / max %llu, imbalance "
        "%.2fx\n",
        static_cast<unsigned long long>(edge_min), edge_mean,
        static_cast<unsigned long long>(edge_max),
        edge_mean > 0.0 ? static_cast<double>(edge_max) / edge_mean : 0.0);
  }

  // Per-shard table: everything when small, the busiest tail when huge.
  std::vector<std::pair<std::uint64_t, const TraceDigest::ShardRow*>> rows;
  for (const auto& [shard, row] : digest.shards) {
    if (shard < server_id) rows.emplace_back(shard, &row);
  }
  const std::size_t limit = 32;
  if (rows.size() > limit) {
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return x.second->events > y.second->events;
    });
    rows.resize(limit);
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return x.first < y.first;
    });
    add("(busiest %zu shards)\n", limit);
  }
  for (const auto& [shard, row] : rows) {
    add("  shard %5llu  events %8llu (%5.1f%% of mean)",
        static_cast<unsigned long long>(shard),
        static_cast<unsigned long long>(row->events),
        edge_mean > 0.0 ? 100.0 * static_cast<double>(row->events) / edge_mean
                        : 0.0);
    if (row->fulfill_s.count() > 0) {
      add("  fulfill p50=%7.1f ms p99=%7.1f ms (n=%zu)",
          row->fulfill_s.quantile(0.5) * 1e3,
          row->fulfill_s.quantile(0.99) * 1e3, row->fulfill_s.count());
    }
    add("\n");
  }
  {
    const auto server_it = digest.shards.find(server_id);
    const auto boundary_it = digest.shards.find(boundary_id);
    if (server_it != digest.shards.end() && boundary_id != server_id) {
      add("  server stream  events %8llu, boundary stream  events %8llu\n",
          static_cast<unsigned long long>(server_it->second.events),
          static_cast<unsigned long long>(
              boundary_it != digest.shards.end()
                  ? boundary_it->second.events
                  : 0));
    }
  }
  if (digest.order_violations > 0) {
    add("INVALID: %llu {ts, seq, shard} order violation(s)\n",
        static_cast<unsigned long long>(digest.order_violations));
  } else {
    add("merged {ts, seq, shard} order verified\n");
  }

  // Boundary crossing-latency heatmap: time buckets down, latency bins
  // across, shaded by count. Crossings live in [window, window + jitter]
  // (~8-18 ms), so the bins resolve the jitter distribution over the run.
  if (!digest.crossings.empty()) {
    double lat_lo = digest.crossings[0].second;
    double lat_hi = lat_lo;
    for (const auto& [ts, lat] : digest.crossings) {
      lat_lo = std::min(lat_lo, lat);
      lat_hi = std::max(lat_hi, lat);
    }
    const double t0 = digest.first_ts;
    const double t1 = std::max(digest.last_ts, t0 + 1e-9);
    constexpr std::size_t kRows = 12;
    constexpr std::size_t kCols = 10;
    std::uint64_t cells[kRows][kCols] = {};
    const double lat_span = std::max(lat_hi - lat_lo, 1e-12);
    for (const auto& [ts, lat] : digest.crossings) {
      std::size_t r = static_cast<std::size_t>((ts - t0) / (t1 - t0) *
                                               static_cast<double>(kRows));
      std::size_t c = static_cast<std::size_t>(
          (lat - lat_lo) / lat_span * static_cast<double>(kCols));
      if (r >= kRows) r = kRows - 1;
      if (c >= kCols) c = kCols - 1;
      ++cells[r][c];
    }
    std::uint64_t peak = 1;
    for (const auto& row : cells) {
      for (const std::uint64_t n : row) peak = std::max(peak, n);
    }
    static const char kShades[] = " .:-=+*#%@";
    add("\n--- boundary crossing latency heatmap ---\n");
    add("%zu crossing(s), latency %.2f .. %.2f ms, peak cell %llu\n",
        digest.crossings.size(), lat_lo * 1e3, lat_hi * 1e3,
        static_cast<unsigned long long>(peak));
    add("%16s %.2f ms %*s %.2f ms\n", "", lat_lo * 1e3,
        static_cast<int>(kCols) - 8, "", lat_hi * 1e3);
    for (std::size_t r = 0; r < kRows; ++r) {
      const double rt0 = t0 + (t1 - t0) * static_cast<double>(r) /
                                  static_cast<double>(kRows);
      const double rt1 = t0 + (t1 - t0) * static_cast<double>(r + 1) /
                                  static_cast<double>(kRows);
      add("%6.1f..%6.1f s |", rt0, rt1);
      for (std::size_t c = 0; c < kCols; ++c) {
        const std::size_t shade =
            cells[r][c] == 0
                ? 0
                : 1 + (cells[r][c] * (sizeof(kShades) - 3)) / peak;
        out += kShades[std::min(shade, sizeof(kShades) - 2)];
      }
      out += "|\n";
    }
  }
}

// ---- text report ----

std::string text_report(const TraceDigest& digest,
                        const MetricsDigest& metrics,
                        const std::vector<JoinResult>& joined,
                        const AdversarySection& adversary) {
  std::string out;
  char buf[256];
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };

  add("cadet_report: %llu event(s), sim time %.3f s .. %.3f s\n",
      static_cast<unsigned long long>(digest.total_events), digest.first_ts,
      digest.last_ts);
  if (digest.malformed > 0) {
    add("  (%llu malformed line(s) skipped)\n",
        static_cast<unsigned long long>(digest.malformed));
  }

  add("\n--- events by tier ---\n");
  std::map<std::string, std::uint64_t> tier_totals;
  for (const auto& [key, n] : digest.events) tier_totals[key.first] += n;
  for (const auto& [tier, total] : tier_totals) {
    add("%-7s %8llu\n", tier.c_str(), static_cast<unsigned long long>(total));
    for (const auto& [key, n] : digest.events) {
      if (key.first != tier) continue;
      add("  %-18s %8llu\n", key.second.c_str(),
          static_cast<unsigned long long>(n));
    }
  }

  const Funnel f = funnel_of(digest);
  add("\n--- request funnel ---\n");
  add("sent %llu\n", static_cast<unsigned long long>(f.sent));
  add("  fulfilled first try   %8llu\n",
      static_cast<unsigned long long>(f.first_try));
  add("  retried >=1x          %8llu\n",
      static_cast<unsigned long long>(f.retried));
  add("    fulfilled on retry  %8llu\n",
      static_cast<unsigned long long>(f.retry_reply));
  add("  local-CSPRNG fallback %8llu\n",
      static_cast<unsigned long long>(f.fallback));
  add("  expired               %8llu\n",
      static_cast<unsigned long long>(f.expired));
  if (f.open > 0) {
    add("  still open at end     %8llu\n",
        static_cast<unsigned long long>(f.open));
  }

  add("\n--- fulfillment latency (s) ---\n");
  for (const auto& row : latency_rows(digest)) {
    add("%-10s p50=%.6f p95=%.6f p99=%.6f max=%.6f (n=%zu)\n",
        row.label.c_str(), row.p50, row.p95, row.p99, row.max, row.n);
  }
  if (metrics.fulfillment.loaded) {
    add("HDR (metrics): p50<=%.6f p90<=%.6f p99<=%.6f mean=%.6f (n=%.0f)\n",
        metrics.fulfillment.p50, metrics.fulfillment.p90,
        metrics.fulfillment.p99,
        metrics.fulfillment.sum / metrics.fulfillment.count,
        metrics.fulfillment.count);
  }

  const std::uint64_t edge_requests = digest.count("edge", "request");
  const std::uint64_t cache_hits = digest.count("edge", "cache_hit");
  add("\n--- edge cache ---\n");
  add("requests %llu, served from cache %llu, hit ratio %.4f\n",
      static_cast<unsigned long long>(edge_requests),
      static_cast<unsigned long long>(cache_hits),
      ratio(cache_hits, edge_requests));
  add("misses %llu, e2e forwards %llu\n",
      static_cast<unsigned long long>(digest.count("edge", "cache_miss")),
      static_cast<unsigned long long>(digest.count("edge", "e2e_forward")));
  for (const char* outcome : kRefillOutcomes) {
    const std::uint64_t n = digest.count("edge", outcome);
    if (n > 0) {
      add("  %-14s %8llu\n", outcome, static_cast<unsigned long long>(n));
    }
  }

  const std::uint64_t uploads = digest.count("client", "upload");
  const std::uint64_t bulk_uploads = digest.count("edge", "bulk_upload");
  if (uploads + bulk_uploads > 0) {
    add("\n--- uploads ---\n");
    add("client uploads %llu, bulk aggregates %llu\n",
        static_cast<unsigned long long>(uploads),
        static_cast<unsigned long long>(bulk_uploads));
  }

  const auto timeline = policing_timeline(digest);
  if (!timeline.empty()) {
    add("\n--- upload policing timeline ---\n");
    for (const auto& bucket : timeline) {
      if (bucket.penalty + bucket.sanity == 0) continue;
      add("%8.1f .. %8.1f s  penalty %4llu  sanity %4llu\n", bucket.t0,
          bucket.t1, static_cast<unsigned long long>(bucket.penalty),
          static_cast<unsigned long long>(bucket.sanity));
    }
  }

  if (!adversary.rows.empty()) {
    add("\n--- policed clients ---\n");
    std::uint64_t peak = 1;
    for (const auto& row : adversary.rows) {
      for (const std::uint64_t n : row.buckets) peak = std::max(peak, n);
    }
    for (const auto& row : adversary.rows) {
      add("client %6llu [%s] |%s| penalty %5llu sanity %5llu heavy %5llu"
          "  %.1f..%.1f s\n",
          static_cast<unsigned long long>(row.client),
          row.hostile() ? "hostile" : "honest ",
          spark_of(row.buckets, peak).c_str(),
          static_cast<unsigned long long>(row.penalty),
          static_cast<unsigned long long>(row.sanity),
          static_cast<unsigned long long>(row.heavy), row.first_ts,
          row.last_ts);
    }
    const std::uint64_t honest_ok =
        adversary.honest.first_try + adversary.honest.retry_reply;
    const std::uint64_t hostile_ok =
        adversary.hostile.first_try + adversary.hostile.retry_reply;
    add("service split: honest %zu client(s) %llu/%llu fulfilled (%.1f%%)"
        ", hostile %zu client(s) %llu/%llu fulfilled (%.1f%%)\n",
        adversary.honest_clients,
        static_cast<unsigned long long>(honest_ok),
        static_cast<unsigned long long>(adversary.honest.sent),
        100.0 * ratio(honest_ok, adversary.honest.sent),
        adversary.hostile_clients,
        static_cast<unsigned long long>(hostile_ok),
        static_cast<unsigned long long>(adversary.hostile.sent),
        100.0 * ratio(hostile_ok, adversary.hostile.sent));
  }

  if (!digest.slo_transitions.empty()) {
    add("\n--- watchdog alert timeline ---\n");
    for (const auto& t : digest.slo_transitions) {
      add("%10.3f s  %-5s rule %2.0f  value %.6g  limit %.6g\n", t.ts_s,
          t.firing ? "FIRE" : "clear", t.rule, t.value, t.limit);
    }
  }

  if (digest.delivery_gen_lo.count() > 0) {
    add("\n--- entropy provenance ---\n");
    add("deliveries %zu, source batch lo p50=%.0f newest seen=%.0f\n",
        digest.delivery_gen_lo.count(), digest.delivery_gen_lo.quantile(0.5),
        digest.delivery_gen_hi.max());
  }

  const TraceDigest::SpanCensus& spans = digest.spans;
  add("\n--- span trees ---\n");
  add("traces %zu, span records %llu, tagged events %llu\n", spans.traces,
      static_cast<unsigned long long>(spans.records),
      static_cast<unsigned long long>(spans.tagged));
  for (const auto& [name, n] : spans.outcomes) {
    add("  %-18s %8llu\n", name.c_str(), static_cast<unsigned long long>(n));
  }
  if (spans.orphans + spans.unclosed > 0) {
    add("INVALID: %llu orphan record(s), %llu unclosed span(s)\n",
        static_cast<unsigned long long>(spans.orphans),
        static_cast<unsigned long long>(spans.unclosed));
  } else {
    add("all span trees well-formed\n");
  }

  if (!digest.shards.empty()) shard_section(digest, out);

  if (metrics.loaded) {
    add("\n--- trace vs metrics ---\n");
    add("%-22s %12s %12s\n", "", "trace", "metrics");
    for (const JoinResult& row : joined) {
      add("%-22s %12llu %12llu\n", row.label,
          static_cast<unsigned long long>(row.trace),
          static_cast<unsigned long long>(row.metrics));
    }
    const std::uint64_t mismatches = mismatches_of(joined);
    add(mismatches == 0 ? "trace and metrics agree\n"
                        : "MISMATCH in %llu row(s)\n",
        static_cast<unsigned long long>(mismatches));
  }
  return out;
}

// ---- HTML report ----

void html_escape(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c; break;
    }
  }
}

std::string html_report(const TraceDigest& digest,
                        const MetricsDigest& metrics,
                        const std::vector<JoinResult>& joined,
                        const AdversarySection& adversary,
                        const std::string& trace_path) {
  std::string out;
  char buf[512];
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };

  out +=
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
      "<title>CADET run report</title>\n<style>\n"
      "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;"
      "max-width:60em;padding:0 1em;color:#222}\n"
      "h1{font-size:1.4em} h2{font-size:1.1em;margin-top:2em;"
      "border-bottom:1px solid #ddd}\n"
      "table{border-collapse:collapse;margin:0.5em 0}\n"
      "td,th{border:1px solid #ccc;padding:0.25em 0.7em;text-align:right}\n"
      "th{background:#f4f4f4} td.l,th.l{text-align:left}\n"
      ".bar{display:inline-block;height:0.8em;background:#4a90d9}\n"
      ".bad{color:#b00;font-weight:bold} .ok{color:#080}\n"
      "</style></head><body>\n";

  out += "<h1>CADET run report</h1>\n<p>trace: <code>";
  html_escape(out, trace_path);
  add("</code> &mdash; %llu event(s), sim time %.3f&ndash;%.3f&nbsp;s</p>\n",
      static_cast<unsigned long long>(digest.total_events), digest.first_ts,
      digest.last_ts);

  const Funnel f = funnel_of(digest);
  out += "<h2>Request funnel</h2>\n<table>\n"
         "<tr><th class=l>stage</th><th>count</th><th>share</th></tr>\n";
  const auto funnel_row = [&](const char* label, std::uint64_t n) {
    add("<tr><td class=l>%s</td><td>%llu</td>"
        "<td><span class=bar style=\"width:%.0fpx\"></span> %.1f%%</td>"
        "</tr>\n",
        label, static_cast<unsigned long long>(n),
        200.0 * ratio(n, f.sent), 100.0 * ratio(n, f.sent));
  };
  funnel_row("sent", f.sent);
  funnel_row("fulfilled first try", f.first_try);
  funnel_row("retried &ge;1x", f.retried);
  funnel_row("fulfilled on retry", f.retry_reply);
  funnel_row("local-CSPRNG fallback", f.fallback);
  funnel_row("expired", f.expired);
  if (f.open > 0) funnel_row("still open at end", f.open);
  out += "</table>\n";

  out += "<h2>Fulfillment latency</h2>\n<table>\n"
         "<tr><th class=l>path</th><th>n</th><th>p50 (s)</th>"
         "<th>p95 (s)</th><th>p99 (s)</th><th>max (s)</th></tr>\n";
  for (const auto& row : latency_rows(digest)) {
    add("<tr><td class=l>%s</td><td>%zu</td><td>%.6f</td><td>%.6f</td>"
        "<td>%.6f</td><td>%.6f</td></tr>\n",
        row.label.c_str(), row.n, row.p50, row.p95, row.p99, row.max);
  }
  out += "</table>\n";
  if (metrics.fulfillment.loaded) {
    add("<p>HDR (metrics snapshot): p50&le;%.6f p90&le;%.6f p99&le;%.6f "
        "(n=%.0f)</p>\n",
        metrics.fulfillment.p50, metrics.fulfillment.p90,
        metrics.fulfillment.p99, metrics.fulfillment.count);
  }

  if (!digest.slo_transitions.empty()) {
    out += "<h2>Watchdog alert timeline</h2>\n<table>\n"
           "<tr><th class=l>time (s)</th><th class=l>transition</th>"
           "<th>rule</th><th>value</th><th>limit</th></tr>\n";
    for (const auto& t : digest.slo_transitions) {
      add("<tr><td class=l>%.3f</td><td class=l>%s</td><td>%.0f</td>"
          "<td>%.6g</td><td>%.6g</td></tr>\n",
          t.ts_s, t.firing ? "<span class=bad>FIRE</span>"
                           : "<span class=ok>clear</span>",
          t.rule, t.value, t.limit);
    }
    out += "</table>\n";
  }

  out += "<h2>Edge cache</h2>\n<table>\n"
         "<tr><th class=l>measure</th><th>value</th></tr>\n";
  const auto measure_row = [&](const char* label, std::uint64_t n) {
    add("<tr><td class=l>%s</td><td>%llu</td></tr>\n", label,
        static_cast<unsigned long long>(n));
  };
  measure_row("requests", digest.count("edge", "request"));
  measure_row("cache hits", digest.count("edge", "cache_hit"));
  measure_row("cache misses", digest.count("edge", "cache_miss"));
  measure_row("e2e forwards", digest.count("edge", "e2e_forward"));
  add("<tr><td class=l>hit ratio</td><td>%.4f</td></tr>\n",
      ratio(digest.count("edge", "cache_hit"),
            digest.count("edge", "request")));
  for (const char* outcome : kRefillOutcomes) {
    const std::uint64_t n = digest.count("edge", outcome);
    if (n > 0) measure_row(outcome, n);
  }
  out += "</table>\n";

  const auto timeline = policing_timeline(digest);
  if (!timeline.empty()) {
    std::uint64_t peak = 1;
    for (const auto& bucket : timeline) {
      peak = std::max(peak, bucket.penalty + bucket.sanity);
    }
    out += "<h2>Upload policing timeline</h2>\n<table>\n"
           "<tr><th class=l>window (s)</th><th>penalty drops</th>"
           "<th>sanity rejects</th><th class=l></th></tr>\n";
    for (const auto& bucket : timeline) {
      add("<tr><td class=l>%.1f&ndash;%.1f</td><td>%llu</td><td>%llu</td>"
          "<td class=l><span class=bar style=\"width:%.0fpx\"></span>"
          "</td></tr>\n",
          bucket.t0, bucket.t1,
          static_cast<unsigned long long>(bucket.penalty),
          static_cast<unsigned long long>(bucket.sanity),
          150.0 * ratio(bucket.penalty + bucket.sanity, peak));
    }
    out += "</table>\n";
  }

  if (!adversary.rows.empty()) {
    out += "<h2>Policed clients</h2>\n";
    std::uint64_t peak = 1;
    for (const auto& row : adversary.rows) {
      peak = std::max(peak, row.total());
    }
    out += "<table>\n<tr><th class=l>client</th><th class=l>class</th>"
           "<th>penalty drops</th><th>sanity rejects</th>"
           "<th>heavy denials</th><th class=l>window (s)</th>"
           "<th class=l></th></tr>\n";
    for (const auto& row : adversary.rows) {
      add("<tr><td class=l>%llu</td><td class=l>%s</td><td>%llu</td>"
          "<td>%llu</td><td>%llu</td><td class=l>%.1f&ndash;%.1f</td>"
          "<td class=l><span class=bar style=\"width:%.0fpx\"></span>"
          "</td></tr>\n",
          static_cast<unsigned long long>(row.client),
          row.hostile() ? "<span class=bad>hostile</span>"
                        : "<span class=ok>honest</span>",
          static_cast<unsigned long long>(row.penalty),
          static_cast<unsigned long long>(row.sanity),
          static_cast<unsigned long long>(row.heavy), row.first_ts,
          row.last_ts, 150.0 * ratio(row.total(), peak));
    }
    out += "</table>\n";
    const std::uint64_t honest_ok =
        adversary.honest.first_try + adversary.honest.retry_reply;
    const std::uint64_t hostile_ok =
        adversary.hostile.first_try + adversary.hostile.retry_reply;
    add("<p>service split: honest %zu client(s) %llu/%llu fulfilled"
        " (%.1f%%), hostile %zu client(s) %llu/%llu fulfilled"
        " (%.1f%%)</p>\n",
        adversary.honest_clients,
        static_cast<unsigned long long>(honest_ok),
        static_cast<unsigned long long>(adversary.honest.sent),
        100.0 * ratio(honest_ok, adversary.honest.sent),
        adversary.hostile_clients,
        static_cast<unsigned long long>(hostile_ok),
        static_cast<unsigned long long>(adversary.hostile.sent),
        100.0 * ratio(hostile_ok, adversary.hostile.sent));
  }

  if (metrics.loaded) {
    out += "<h2>Trace vs metrics</h2>\n<table>\n"
           "<tr><th class=l>measure</th><th>trace</th><th>metrics</th>"
           "</tr>\n";
    for (const JoinResult& row : joined) {
      add("<tr><td class=l>%s</td><td>%llu</td><td>%llu</td></tr>\n",
          row.label, static_cast<unsigned long long>(row.trace),
          static_cast<unsigned long long>(row.metrics));
    }
    out += "</table>\n";
    out += mismatches_of(joined) == 0
               ? "<p class=ok>trace and metrics agree</p>\n"
               : "<p class=bad>trace and metrics DISAGREE</p>\n";
  }

  out += "</body></html>\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }

  if (!opt.validate_path.empty()) return validate_metrics(opt.validate_path);

  TraceDigest digest;
  if (!digest_trace(opt.trace_path, digest)) return 2;

  MetricsDigest metrics;
  if (!opt.metrics_path.empty() &&
      !digest_metrics(opt.metrics_path, metrics)) {
    return 2;
  }

  const std::vector<JoinResult> joined = join(digest, metrics);
  const AdversarySection adversary = adversary_section_of(digest);

  const std::string text = text_report(digest, metrics, joined, adversary);
  if (opt.out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else if (!obs::write_file(opt.out_path, text)) {
    return 2;
  }

  if (!opt.html_path.empty()) {
    const std::string html =
        html_report(digest, metrics, joined, adversary, opt.trace_path);
    if (!obs::write_file(opt.html_path, html)) return 2;
    std::fprintf(stderr, "html report -> %s\n", opt.html_path.c_str());
  }

  int rc = 0;
  if (opt.check) {
    for (const std::string& problem : digest.problems()) {
      std::fprintf(stderr, "cadet_report --check: %s\n", problem.c_str());
      rc = 1;
    }
  }
  const std::uint64_t mismatches = mismatches_of(joined);
  if (opt.check && metrics.loaded && mismatches > 0) {
    std::fprintf(stderr, "cadet_report --check: %llu mismatch(es)\n",
                 static_cast<unsigned long long>(mismatches));
    rc = 1;
  }
  if (opt.adversary) {
    for (const auto& problem : adversary_problems(adversary)) {
      std::fprintf(stderr, "cadet_report --adversary: %s\n",
                   problem.c_str());
      rc = 1;
    }
  }
  return rc;
}
