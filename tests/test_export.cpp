// Exporter round trips: the Prometheus text exposition must survive
// parse_prometheus (names, label escaping, +Inf buckets).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/export.h"
#include "obs/hdr.h"
#include "obs/metrics.h"

namespace cadet::obs {
namespace {

// A small registry exercising every instrument kind; entries() exports
// sorted by (name, labels), which the sample indexes below depend on.
void fill(Registry& reg) {
  reg.counter("cadet_test_requests", tier_labels("edge", 100)).inc(7);
  reg.counter("cadet_test_requests", tier_labels("edge", 101)).inc(2);
  reg.gauge("cadet_test_depth").set(-3);
  reg.hdr("cadet_test_latency_seconds").record(0.75);
}

TEST(PromRoundTrip, SamplesAndTypesSurvive) {
  Registry reg;
  fill(reg);
  const PromParse parsed = parse_prometheus(to_prometheus(reg));
  EXPECT_TRUE(parsed.errors.empty());

  ASSERT_EQ(parsed.types.size(), 3u);
  EXPECT_EQ(parsed.types[0],
            (std::pair<std::string, std::string>{"cadet_test_depth",
                                                 "gauge"}));
  EXPECT_EQ(parsed.types[1].second, "histogram");
  EXPECT_EQ(parsed.types[2].second, "counter");

  // 1 gauge + (populated cell + +Inf bucket + sum + count) + 2 counters.
  ASSERT_EQ(parsed.samples.size(), 7u);
  EXPECT_EQ(parsed.samples[0].name, "cadet_test_depth");
  EXPECT_EQ(parsed.samples[0].value, -3.0);
  EXPECT_EQ(parsed.samples[5].name, "cadet_test_requests_total");
  EXPECT_EQ(parsed.samples[5].labels, tier_labels("edge", 100));
  EXPECT_EQ(parsed.samples[5].value, 7.0);
  EXPECT_EQ(parsed.samples[6].value, 2.0);

  // The +Inf bucket parses back to an actual infinity.
  const PromSample& inf_bucket = parsed.samples[2];
  EXPECT_EQ(inf_bucket.name, "cadet_test_latency_seconds_bucket");
  ASSERT_EQ(inf_bucket.labels.size(), 1u);
  EXPECT_EQ(inf_bucket.labels[0].first, "le");
  EXPECT_EQ(inf_bucket.labels[0].second, "+Inf");
  EXPECT_EQ(inf_bucket.value, 1.0);
}

TEST(PromRoundTrip, LabelEscapingIsInvertible) {
  Registry reg;
  reg.counter("cadet_test_nasty",
              {{"path", "a\\b"}, {"quote", "say \"hi\""}, {"nl", "x\ny"}})
      .inc(1);
  const std::string text = to_prometheus(reg);
  // The exposition itself stays one line per sample.
  EXPECT_EQ(text.find("\ny\""), std::string::npos);
  EXPECT_NE(text.find("a\\\\b"), std::string::npos);
  EXPECT_NE(text.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(text.find("x\\ny"), std::string::npos);

  const PromParse parsed = parse_prometheus(text);
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.samples.size(), 1u);
  // Labels come back exactly as they went in, in the same order.
  EXPECT_EQ(parsed.samples[0].labels,
            (Labels{{"path", "a\\b"}, {"quote", "say \"hi\""},
                    {"nl", "x\ny"}}));
}

TEST(PromParse, MalformedLinesAreCollectedNotDropped) {
  const PromParse parsed = parse_prometheus(
      "cadet_good 1\n"
      "no_value_here\n"
      "cadet_bad{unterminated=\"oops 3\n"
      "cadet_notnum 12abc\n"
      "# TYPE incomplete\n"
      "\n"
      "cadet_also_good{a=\"b\"} 2.5\n");
  ASSERT_EQ(parsed.samples.size(), 2u);
  EXPECT_EQ(parsed.samples[0].name, "cadet_good");
  EXPECT_EQ(parsed.samples[1].value, 2.5);
  EXPECT_EQ(parsed.errors.size(), 4u);
}

}  // namespace
}  // namespace cadet::obs
