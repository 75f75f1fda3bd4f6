// SloEngine: rule parsing, the four condition kinds against a live
// Registry, for_ticks hysteresis, firing/recovery transitions, the alert
// hook, and the /healthz JSON body.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace cadet::obs {
namespace {

TEST(ParseSloRule, AcceptsEveryKind) {
  const auto burn =
      parse_slo_rule("burn:slow:cadet_fulfillment_seconds:0.5:0.1:2");
  ASSERT_TRUE(burn.has_value());
  EXPECT_EQ(burn->kind, SloRule::Kind::kLatencyBurn);
  EXPECT_EQ(burn->name, "slow");
  EXPECT_EQ(burn->metric, "cadet_fulfillment_seconds");
  EXPECT_DOUBLE_EQ(burn->threshold_s, 0.5);
  EXPECT_DOUBLE_EQ(burn->limit, 0.1);
  EXPECT_EQ(burn->for_ticks, 2);

  const auto ratio = parse_slo_rule("ratio:churn:retries/requests:0:0.5");
  ASSERT_TRUE(ratio.has_value());
  EXPECT_EQ(ratio->kind, SloRule::Kind::kRatio);
  EXPECT_EQ(ratio->metric, "retries");
  EXPECT_EQ(ratio->denom, "requests");
  EXPECT_EQ(ratio->for_ticks, 1);  // default

  const auto gauge = parse_slo_rule("gauge:stall:inflight:0:1000:3");
  ASSERT_TRUE(gauge.has_value());
  EXPECT_EQ(gauge->kind, SloRule::Kind::kGaugeAbove);

  const auto rate = parse_slo_rule("rate:spike:drops:0:100:1");
  ASSERT_TRUE(rate.has_value());
  EXPECT_EQ(rate->kind, SloRule::Kind::kCounterRate);
}

TEST(ParseSloRule, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_slo_rule("").has_value());
  EXPECT_FALSE(parse_slo_rule("bogus:n:m:0:1").has_value());     // bad kind
  EXPECT_FALSE(parse_slo_rule("rate:n:m:0").has_value());        // too few
  EXPECT_FALSE(parse_slo_rule("rate:n:m:0:1:2:3").has_value());  // too many
  EXPECT_FALSE(parse_slo_rule("rate::m:0:1").has_value());       // no name
  EXPECT_FALSE(parse_slo_rule("rate:n::0:1").has_value());       // no metric
  EXPECT_FALSE(parse_slo_rule("rate:n:m:x:1").has_value());      // bad num
  EXPECT_FALSE(parse_slo_rule("rate:n:m:0:1:0").has_value());    // ticks < 1
  EXPECT_FALSE(parse_slo_rule("ratio:n:m:0:1").has_value());     // no denom
}

TEST(SloEngine, DefaultRulesParse) {
  const std::vector<SloRule> rules = default_slo_rules();
  EXPECT_EQ(rules.size(), 4u);
}

TEST(SloEngine, GaugeRuleFiresAndClears) {
  Registry registry;
  Gauge& inflight = registry.gauge("inflight");
  SloEngine engine(&registry);
  engine.add_rule(*parse_slo_rule("gauge:stall:inflight:0:10:1"));

  inflight.set(5);
  EXPECT_TRUE(engine.tick(1.0).empty());
  EXPECT_FALSE(engine.any_firing());

  inflight.set(50);
  const auto fired = engine.tick(2.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].firing);
  EXPECT_EQ(fired[0].rule, "stall");
  EXPECT_DOUBLE_EQ(fired[0].value, 50.0);
  EXPECT_DOUBLE_EQ(fired[0].limit, 10.0);
  EXPECT_TRUE(engine.any_firing());
  EXPECT_EQ(engine.total_fires(), 1u);

  inflight.set(0);
  const auto cleared = engine.tick(3.0);
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].firing);
  EXPECT_FALSE(engine.any_firing());
  EXPECT_EQ(engine.total_fires(), 1u);  // recovery is not a new fire
  EXPECT_EQ(engine.ticks(), 3u);
}

TEST(SloEngine, ForTicksHysteresis) {
  Registry registry;
  Gauge& g = registry.gauge("queue");
  SloEngine engine(&registry);
  engine.add_rule(*parse_slo_rule("gauge:stall:queue:0:10:3"));

  g.set(100);
  EXPECT_TRUE(engine.tick(1.0).empty());  // breach 1/3
  EXPECT_TRUE(engine.tick(2.0).empty());  // breach 2/3
  EXPECT_FALSE(engine.any_firing());
  EXPECT_EQ(engine.tick(3.0).size(), 1u);  // breach 3/3 -> fires
  EXPECT_TRUE(engine.any_firing());

  // A single good tick resets the streak.
  g.set(0);
  EXPECT_EQ(engine.tick(4.0).size(), 1u);  // clears
  g.set(100);
  EXPECT_TRUE(engine.tick(5.0).empty());
  EXPECT_TRUE(engine.tick(6.0).empty());
  EXPECT_EQ(engine.tick(7.0).size(), 1u);
  EXPECT_EQ(engine.total_fires(), 2u);
}

TEST(SloEngine, LatencyBurnUsesOnlyNewObservations) {
  Registry registry;
  HdrHistogram& lat = registry.hdr("cadet_fulfillment_seconds");
  SloEngine engine(&registry);
  engine.add_rule(
      *parse_slo_rule("burn:slow:cadet_fulfillment_seconds:0.5:0.1:1"));

  // Tick 1: 100 fast observations -> burn 0.
  for (int i = 0; i < 100; ++i) lat.record(0.01);
  EXPECT_TRUE(engine.tick(1.0).empty());

  // Tick 2: 10 new observations, 5 slow -> burn 0.5 despite the 100
  // earlier fast ones (delta-based, not lifetime ratio).
  for (int i = 0; i < 5; ++i) lat.record(0.01);
  for (int i = 0; i < 5; ++i) lat.record(2.0);
  const auto fired = engine.tick(2.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NEAR(fired[0].value, 0.5, 1e-9);

  // Tick 3: no new observations -> burn 0 -> clears.
  const auto cleared = engine.tick(3.0);
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].firing);
}

TEST(SloEngine, RatioRuleUsesCounterDeltas) {
  Registry registry;
  Counter& retries = registry.counter("retries");
  Counter& requests = registry.counter("requests");
  SloEngine engine(&registry);
  engine.add_rule(*parse_slo_rule("ratio:churn:retries/requests:0:0.5:1"));

  retries.inc(1);
  requests.inc(100);
  EXPECT_TRUE(engine.tick(1.0).empty());  // 1% churn

  retries.inc(80);
  requests.inc(100);
  const auto fired = engine.tick(2.0);  // delta ratio 80/100
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NEAR(fired[0].value, 0.8, 1e-9);
}

TEST(SloEngine, CounterRateIsPerSecond) {
  Registry registry;
  Counter& drops = registry.counter("drops");
  SloEngine engine(&registry);
  engine.add_rule(*parse_slo_rule("rate:spike:drops:0:100:1"));

  drops.inc(1000);
  // First tick has no baseline: rate reads 0, never fires spuriously.
  EXPECT_TRUE(engine.tick(1.0).empty());

  drops.inc(500);
  const auto fired = engine.tick(3.0);  // 500 over 2 s = 250/s
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NEAR(fired[0].value, 250.0, 1e-9);
}

TEST(SloEngine, AlertHookSeesEveryTransition) {
  Registry registry;
  Gauge& g = registry.gauge("queue");
  SloEngine engine(&registry);
  engine.add_rule(*parse_slo_rule("gauge:stall:queue:0:10:1"));
  std::vector<SloEngine::Alert> seen;
  engine.set_alert_hook(
      [&seen](const SloEngine::Alert& a) { seen.push_back(a); });

  g.set(100);
  engine.tick(1.0);
  g.set(0);
  engine.tick(2.0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].firing);
  EXPECT_FALSE(seen[1].firing);
  EXPECT_DOUBLE_EQ(seen[0].at_s, 1.0);
}

TEST(SloEngine, HealthzJsonReflectsState) {
  Registry registry;
  Gauge& g = registry.gauge("queue");
  SloEngine engine(&registry);
  engine.add_rule(*parse_slo_rule("gauge:stall:queue:0:10:1"));

  g.set(0);
  engine.tick(1.0);
  std::string body = engine.healthz_json();
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"stall\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(body.find("\"firing\":false"), std::string::npos);

  g.set(100);
  engine.tick(2.0);
  body = engine.healthz_json();
  EXPECT_NE(body.find("\"status\":\"alerting\""), std::string::npos);
  EXPECT_NE(body.find("\"firing\":true"), std::string::npos);
  EXPECT_NE(body.find("\"fires\":1"), std::string::npos);
}

TEST(SloEngine, MissingMetricNeverFires) {
  Registry registry;
  SloEngine engine(&registry);
  engine.add_rule(*parse_slo_rule("gauge:ghost:not_registered:0:10:1"));
  EXPECT_TRUE(engine.tick(1.0).empty());
  EXPECT_TRUE(engine.tick(2.0).empty());
  EXPECT_FALSE(engine.any_firing());
}

}  // namespace
}  // namespace cadet::obs
