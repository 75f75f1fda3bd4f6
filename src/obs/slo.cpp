#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/hdr.h"
#include "obs/trace.h"

namespace cadet::obs {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = text.find(sep, pos);
    if (next == std::string::npos) {
      out.push_back(text.substr(pos));
      return out;
    }
    out.push_back(text.substr(pos, next - pos));
    pos = next + 1;
  }
}

bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

// Aggregated live readings for one metric family (every label set summed).
struct FamilyReading {
  double counter = 0.0;
  double gauge = 0.0;
  double hdr_count = 0.0;  // HDR observation count
  double hdr_above = 0.0;  // HDR observations above the rule threshold
  bool found = false;
};

FamilyReading read_family(const Registry& registry, const std::string& name,
                          double threshold_s) {
  FamilyReading reading;
  for (const auto& entry : registry.entries()) {
    if (entry.name != name) continue;
    reading.found = true;
    switch (entry.kind) {
      case Registry::Kind::kCounter:
        reading.counter += static_cast<double>(entry.counter->value());
        break;
      case Registry::Kind::kGauge:
        reading.gauge += static_cast<double>(entry.gauge->value());
        break;
      case Registry::Kind::kHdr:
        reading.hdr_count += static_cast<double>(entry.hdr->count());
        reading.hdr_above +=
            static_cast<double>(entry.hdr->count_above(threshold_s));
        break;
    }
  }
  return reading;
}

const char* kind_token(SloRule::Kind kind) {
  switch (kind) {
    case SloRule::Kind::kLatencyBurn: return "burn";
    case SloRule::Kind::kRatio: return "ratio";
    case SloRule::Kind::kGaugeAbove: return "gauge";
    case SloRule::Kind::kCounterRate: return "rate";
  }
  return "?";
}

void append_json_escaped(std::string& out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::optional<SloRule> parse_slo_rule(const std::string& text) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() < 5 || parts.size() > 6) return std::nullopt;
  SloRule rule;
  if (parts[0] == "burn") {
    rule.kind = SloRule::Kind::kLatencyBurn;
  } else if (parts[0] == "ratio") {
    rule.kind = SloRule::Kind::kRatio;
  } else if (parts[0] == "gauge") {
    rule.kind = SloRule::Kind::kGaugeAbove;
  } else if (parts[0] == "rate") {
    rule.kind = SloRule::Kind::kCounterRate;
  } else {
    return std::nullopt;
  }
  rule.name = parts[1];
  rule.metric = parts[2];
  if (rule.kind == SloRule::Kind::kRatio) {
    const std::size_t slash = rule.metric.find('/');
    if (slash == std::string::npos) return std::nullopt;
    rule.denom = rule.metric.substr(slash + 1);
    rule.metric.resize(slash);
  }
  if (rule.name.empty() || rule.metric.empty()) return std::nullopt;
  if (!parse_double(parts[3], rule.threshold_s)) return std::nullopt;
  if (!parse_double(parts[4], rule.limit)) return std::nullopt;
  if (parts.size() == 6) {
    double ticks = 0.0;
    if (!parse_double(parts[5], ticks) || ticks < 1.0) return std::nullopt;
    rule.for_ticks = static_cast<int>(ticks);
  }
  return rule;
}

std::vector<SloRule> default_slo_rules() {
  std::vector<SloRule> rules;
  // Fulfillment-latency burn rate: >10% of new fulfillments slower than
  // 500 ms, sustained for two ticks.
  rules.push_back(*parse_slo_rule(
      "burn:slow_fulfillment:cadet_fulfillment_seconds:0.5:0.1:2"));
  // Refill failure ratio: edge refill retries vs. requests received.
  rules.push_back(*parse_slo_rule(
      "ratio:refill_churn:"
      "cadet_edge_refill_retries/cadet_edge_requests_received:0:0.5:2"));
  // Pending-queue stall: in-flight fulfillments piling up.
  rules.push_back(*parse_slo_rule(
      "gauge:pending_stall:cadet_fulfillment_inflight:0:1000:3"));
  // Penalty-table spike: sustained Eq. 2 drops of client uploads per
  // second, at the edges that police them on every path.
  rules.push_back(*parse_slo_rule(
      "rate:penalty_spike:cadet_edge_uploads_dropped_penalty:0:100:1"));
  return rules;
}

void SloEngine::add_rule(const SloRule& rule) {
  util::MutexLock lock(mu_);
  RuleState state;
  state.rule = rule;
  states_.push_back(std::move(state));
}

std::size_t SloEngine::rule_count() const {
  util::MutexLock lock(mu_);
  return states_.size();
}

void SloEngine::set_alert_hook(std::function<void(const Alert&)> hook) {
  util::MutexLock lock(mu_);
  hook_ = std::move(hook);
}

double SloEngine::read_value(RuleState& state, double dt_s) {
  const SloRule& rule = state.rule;
  switch (rule.kind) {
    case SloRule::Kind::kLatencyBurn: {
      const FamilyReading now =
          read_family(*registry_, rule.metric, rule.threshold_s);
      const double d_count =
          state.has_prev ? now.hdr_count - state.prev_count : now.hdr_count;
      const double d_above =
          state.has_prev ? now.hdr_above - state.prev_above : now.hdr_above;
      state.prev_count = now.hdr_count;
      state.prev_above = now.hdr_above;
      return d_count > 0.0 ? d_above / d_count : 0.0;
    }
    case SloRule::Kind::kRatio: {
      const FamilyReading num = read_family(*registry_, rule.metric, 0.0);
      const FamilyReading den = read_family(*registry_, rule.denom, 0.0);
      const double d_num =
          state.has_prev ? num.counter - state.prev_count : num.counter;
      const double d_den =
          state.has_prev ? den.counter - state.prev_denom : den.counter;
      state.prev_count = num.counter;
      state.prev_denom = den.counter;
      return d_den > 0.0 ? d_num / d_den : 0.0;
    }
    case SloRule::Kind::kGaugeAbove: {
      const FamilyReading now = read_family(*registry_, rule.metric, 0.0);
      return now.gauge;
    }
    case SloRule::Kind::kCounterRate: {
      const FamilyReading now = read_family(*registry_, rule.metric, 0.0);
      const double delta =
          state.has_prev ? now.counter - state.prev_count : 0.0;
      state.prev_count = now.counter;
      return state.has_prev && dt_s > 0.0 ? delta / dt_s : 0.0;
    }
  }
  return 0.0;
}

std::vector<SloEngine::Alert> SloEngine::tick(double now_s) {
  std::vector<Alert> transitions;
  std::vector<std::size_t> transition_rules;  // rule index per transition
  std::function<void(const Alert&)> hook;
  {
    util::MutexLock lock(mu_);
    const double dt_s = has_last_tick_ ? now_s - last_tick_s_ : 0.0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      RuleState& state = states_[i];
      const double value = read_value(state, dt_s);
      state.last_value = value;
      const bool breach = value > state.rule.limit;
      state.has_prev = true;
      state.breach_ticks = breach ? state.breach_ticks + 1 : 0;

      const bool should_fire = state.breach_ticks >= state.rule.for_ticks;
      if (should_fire != state.firing) {
        state.firing = should_fire;
        if (should_fire) ++state.fires;
        Alert alert;
        alert.rule = state.rule.name;
        alert.value = value;
        alert.limit = state.rule.limit;
        alert.at_s = now_s;
        alert.firing = should_fire;
        transition_rules.push_back(i);
        transitions.push_back(std::move(alert));
      }
    }
    last_tick_s_ = now_s;
    has_last_tick_ = true;
    ++ticks_;
    hook = hook_;
  }
  // Emit + hook outside the lock: the hook (the --flight-out dump) and the
  // trace sink are free to call back into any_firing()/healthz_json().
  for (std::size_t t = 0; t < transitions.size(); ++t) {
    const Alert& alert = transitions[t];
    const std::size_t i = transition_rules[t];
    // Structured alert record: rides the trace stream (and the tracer's
    // ring) so cadet_report can build an alert timeline. The rule is
    // identified by its index (attrs are numeric); /healthz carries the
    // index -> name mapping.
    emit(static_cast<util::SimTime>(now_s * 1e9),
         alert.firing ? "slo_alert" : "slo_clear", "health", i,
         {{"rule", static_cast<double>(i)},
          {"value", alert.value},
          {"limit", alert.limit}});
    if (hook) hook(alert);
  }
  return transitions;
}

bool SloEngine::any_firing_locked() const {
  for (const RuleState& state : states_) {
    if (state.firing) return true;
  }
  return false;
}

bool SloEngine::any_firing() const {
  util::MutexLock lock(mu_);
  return any_firing_locked();
}

std::uint64_t SloEngine::total_fires() const {
  util::MutexLock lock(mu_);
  std::uint64_t fires = 0;
  for (const RuleState& state : states_) fires += state.fires;
  return fires;
}

std::uint64_t SloEngine::ticks() const {
  util::MutexLock lock(mu_);
  return ticks_;
}

std::string SloEngine::healthz_json() const {
  util::MutexLock lock(mu_);
  std::string out = "{\"status\":\"";
  out += any_firing_locked() ? "alerting" : "ok";
  out += "\",\"ticks\":" + std::to_string(ticks_) + ",\"rules\":[";
  bool first = true;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const RuleState& state = states_[i];
    if (!first) out += ',';
    first = false;
    out += "{\"index\":" + std::to_string(i) + ",\"name\":\"";
    append_json_escaped(out, state.rule.name);
    out += "\",\"kind\":\"";
    out += kind_token(state.rule.kind);
    out += "\",\"metric\":\"";
    append_json_escaped(out, state.rule.metric);
    if (!state.rule.denom.empty()) {
      out += '/';
      append_json_escaped(out, state.rule.denom);
    }
    out += "\",\"firing\":";
    out += state.firing ? "true" : "false";
    out += ",\"value\":" + json_number(state.last_value);
    out += ",\"limit\":" + json_number(state.rule.limit);
    out += ",\"fires\":" + std::to_string(state.fires) + '}';
  }
  out += "]}";
  return out;
}

}  // namespace cadet::obs
