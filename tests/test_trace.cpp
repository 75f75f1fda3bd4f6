#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/time.h"

namespace cadet::obs {
namespace {

TraceEvent make_event(double ts_s, const char* name, std::uint64_t node) {
  TraceEvent event;
  event.ts = util::from_seconds(ts_s);
  event.name = name;
  event.tier = "edge";
  event.node = node;
  return event;
}

TEST(Tracer, DisabledByDefaultAndRecordsWhenEnabled) {
  Tracer tracer(8);
  tracer.record(make_event(1.0, "request", 100));
  EXPECT_TRUE(tracer.recent().empty());
  tracer.enable();
  tracer.record(make_event(1.0, "request", 100));
  EXPECT_EQ(tracer.recent().size(), 1u);
  EXPECT_EQ(tracer.recorded(), 1u);
  // Disabling stops recording but keeps the ring for a later dump.
  tracer.enable(false);
  tracer.record(make_event(2.0, "reply", 100));
  EXPECT_EQ(tracer.recent().size(), 1u);
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(Tracer, RingWraparoundKeepsNewestWithoutSink) {
  Tracer tracer(4);
  tracer.enable();
  for (int i = 0; i < 7; ++i) {
    tracer.record(make_event(static_cast<double>(i), "request",
                             static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(tracer.recorded(), 7u);
  const auto recent = tracer.recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest-first: events 3,4,5,6 survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[i].node, i + 3);
  }
}

TEST(Tracer, FullRingFlushesThroughSinkLosslessly) {
  Tracer tracer(2);
  MemorySink sink;
  tracer.set_sink(&sink);
  tracer.enable();
  for (int i = 0; i < 5; ++i) {
    tracer.record(make_event(static_cast<double>(i), "upload",
                             static_cast<std::uint64_t>(i)));
  }
  // The sink sees every event in record order; the ring keeps the newest.
  ASSERT_EQ(sink.events().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.events()[i].node, i);
  }
  const auto recent = tracer.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].node, 3u);
  EXPECT_EQ(recent[1].node, 4u);
}

TEST(TraceJson, RoundTripsThroughParser) {
  TraceEvent event;
  event.ts = util::from_seconds(1.25);
  event.name = "cache_hit";
  event.tier = "edge";
  event.node = 100;
  event.attrs[0] = {"bytes", 64.0};
  event.attrs[1] = {"client", 1003.0};
  event.num_attrs = 2;

  const std::string line = to_json(event);
  const auto parsed = parse_json_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->ts_s, 1.25);
  EXPECT_EQ(parsed->name, "cache_hit");
  EXPECT_EQ(parsed->tier, "edge");
  EXPECT_EQ(parsed->node, 100u);
  ASSERT_EQ(parsed->attrs.size(), 2u);
  EXPECT_EQ(parsed->attrs[0].first, "bytes");
  EXPECT_DOUBLE_EQ(parsed->attrs[0].second, 64.0);
  EXPECT_EQ(parsed->attrs[1].first, "client");
  EXPECT_DOUBLE_EQ(parsed->attrs[1].second, 1003.0);
}

TEST(TraceJson, ParserRejectsMalformedLines) {
  EXPECT_FALSE(parse_json_line("").has_value());
  EXPECT_FALSE(parse_json_line("not json").has_value());
  EXPECT_FALSE(parse_json_line("{\"ts\":1.0}").has_value());  // no "ev"
}

TEST(FileSink, WritesOneValidJsonObjectPerLine) {
  const std::string path = testing::TempDir() + "/cadet_trace_test.jsonl";
  {
    FileSink sink(path);
    ASSERT_TRUE(sink.ok());
    Tracer tracer(4);
    tracer.set_sink(&sink);
    tracer.enable();
    for (int i = 0; i < 10; ++i) {
      TraceEvent event = make_event(0.5 * i, i % 2 ? "reply" : "request",
                                    1000 + static_cast<std::uint64_t>(i));
      event.attrs[0] = {"bytes", 16.0 * i};
      event.num_attrs = 1;
      tracer.record(event);
    }
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    const auto parsed = parse_json_line(line);
    ASSERT_TRUE(parsed.has_value()) << "unparseable line: " << line;
    EXPECT_EQ(parsed->tier, "edge");
    ++lines;
  }
  EXPECT_EQ(lines, 10);
  std::remove(path.c_str());
}

TEST(Emit, GlobalTracerCapturesEngineEvents) {
  Tracer& tracer = Tracer::global();
  MemorySink sink;
  tracer.clear();
  tracer.set_sink(&sink);
  tracer.enable();

  emit(util::from_seconds(2.0), "penalty_drop", "edge", 100,
       {{"client", 1003.0}});

  tracer.enable(false);
  tracer.set_sink(nullptr);
  tracer.clear();

  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(std::string(sink.events()[0].name), "penalty_drop");
  EXPECT_EQ(sink.events()[0].node, 100u);
}

}  // namespace
}  // namespace cadet::obs
