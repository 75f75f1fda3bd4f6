// Watchdog / SLO engine: declarative health rules evaluated on ticks.
//
// A rule names an instrument (by metric family — all label sets matching
// the name are aggregated), a condition kind, and thresholds; the engine
// evaluates every rule against the live Registry each tick (sim-time ticks
// from cadet_sim, wall-clock ticks from UdpRunner), tracks consecutive
// breaches, and on the firing transition emits a structured "slo_alert"
// trace event (which also lands in the global tracer's ring) and invokes
// the alert hook — cadet_sim uses the hook to write its --flight-out dump
// of that ring, so the events *leading up to* the breach are preserved.
//
// Four condition kinds cover the protocol's failure modes:
//   kLatencyBurn   fraction of *new* HDR observations above threshold_s
//                  exceeds `limit` (fulfillment-latency burn rate)
//   kRatio         delta(numerator)/delta(denominator) exceeds `limit`
//                  (refill failure ratio)
//   kGaugeAbove    gauge stays above `limit` (pending-queue stall)
//   kCounterRate   counter increase per second exceeds `limit`
//                  (penalty-table spike)
//
// Rules parse from a compact CLI syntax (see parse_slo_rule):
//   burn:slow_fulfillment:cadet_fulfillment_seconds:0.5:0.1:2
//   ratio:refill_churn:cadet_edge_refill_retries/cadet_edge_requests_received:0:0.5:2
//   gauge:pending_stall:cadet_fulfillment_inflight:0:1000:3
//   rate:penalty_spike:cadet_edge_uploads_dropped_penalty:0:100:1
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace cadet::obs {

struct SloRule {
  enum class Kind { kLatencyBurn, kRatio, kGaugeAbove, kCounterRate };

  std::string name;    // rule id, shown in /healthz and alert events
  Kind kind = Kind::kCounterRate;
  std::string metric;  // instrument family (numerator for kRatio)
  std::string denom;   // kRatio only: denominator family
  double threshold_s = 0.0;  // kLatencyBurn only: latency cutoff
  double limit = 0.0;        // breach when value > limit
  int for_ticks = 1;         // consecutive breaching ticks before firing
};

/// Parse "kind:name:metric[/denom]:threshold:limit[:for_ticks]" where kind
/// is burn|ratio|gauge|rate. Returns nullopt on malformed input.
std::optional<SloRule> parse_slo_rule(const std::string& text);

/// The four default rules wired by cadet_sim and the UDP demo (tuned for
/// the testbed workloads; override with explicit rules for production).
std::vector<SloRule> default_slo_rules();

class SloEngine {
 public:
  struct Alert {
    std::string rule;
    double value = 0.0;
    double limit = 0.0;
    double at_s = 0.0;
    bool firing = false;  // false = recovery ("slo_clear")
  };

  struct RuleState {
    SloRule rule;
    bool firing = false;
    int breach_ticks = 0;
    double last_value = 0.0;
    std::uint64_t fires = 0;
    // previous-tick raw readings for delta-based kinds
    double prev_count = 0.0;
    double prev_above = 0.0;
    double prev_denom = 0.0;
    bool has_prev = false;
  };

  explicit SloEngine(Registry* registry) : registry_(registry) {}

  void add_rule(const SloRule& rule);
  std::size_t rule_count() const;

  /// Snapshot view for tests and end-of-run reports. The reference is NOT
  /// synchronized against tick(): callers must own the ticking thread (the
  /// single-threaded sim path) or call only after the poll loop stopped.
  const std::deque<RuleState>& states() const
      CADET_NO_THREAD_SAFETY_ANALYSIS {
    return states_;
  }

  /// Called on every firing/recovery transition (after the trace event is
  /// emitted). cadet_sim hooks its --flight-out dump here. Set before
  /// ticking starts; the hook runs outside the engine lock, so it may call
  /// back into any_firing()/healthz_json() without deadlocking.
  void set_alert_hook(std::function<void(const Alert&)> hook);

  /// Evaluate every rule at `now_s` (sim seconds or wall seconds — the
  /// engine only needs the clock to be monotone). Returns the transitions
  /// that happened this tick. Thread-safe against the const readers below:
  /// the UDP poll thread ticks while the admin acceptor serves /healthz.
  std::vector<Alert> tick(double now_s);

  bool any_firing() const;
  std::uint64_t total_fires() const;
  std::uint64_t ticks() const;

  /// /healthz body: {"status":"ok"|"alerting","rules":[...]}.
  std::string healthz_json() const;

 private:
  double read_value(RuleState& state, double dt_s) CADET_REQUIRES(mu_);
  bool any_firing_locked() const CADET_REQUIRES(mu_);

  Registry* registry_;
  // The engine is ticked from the owning loop (sim main thread or UDP poll
  // thread) while the AdminServer acceptor thread reads /healthz — every
  // piece of rule state is guarded, and clang's -Wthread-safety proves the
  // discipline (this lock is what fixed a real tick-vs-healthz race).
  mutable util::Mutex mu_;
  std::deque<RuleState> states_ CADET_GUARDED_BY(mu_);  // stable addresses
  std::function<void(const Alert&)> hook_ CADET_GUARDED_BY(mu_);
  double last_tick_s_ CADET_GUARDED_BY(mu_) = 0.0;
  bool has_last_tick_ CADET_GUARDED_BY(mu_) = false;
  std::uint64_t ticks_ CADET_GUARDED_BY(mu_) = 0;
};

}  // namespace cadet::obs
