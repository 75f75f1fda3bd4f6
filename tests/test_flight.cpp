// The tracer's ring of the newest events, which backs the flight dumps
// (cadet_sim --flight-out, the admin /flight endpoint): order, wrap, clear,
// JSONL, the emit hook, and writers racing a dumping reader.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace cadet::obs {
namespace {

TraceEvent make_event(std::uint64_t n) {
  TraceEvent e;
  e.ts = static_cast<util::SimTime>(n) * 1000;
  e.name = "tick";
  e.tier = "test";
  e.node = n;
  return e;
}

TEST(FlightRecorder, DumpIsOldestFirst) {
  Tracer r(8);
  r.enable();
  for (std::uint64_t i = 0; i < 5; ++i) r.record(make_event(i));
  const auto events = r.recent();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].node, i);
  }
  EXPECT_EQ(r.recorded(), 5u);
}

TEST(FlightRecorder, WrapKeepsTheLastCapacityEvents) {
  Tracer r(8);
  r.enable();
  for (std::uint64_t i = 0; i < 20; ++i) r.record(make_event(i));
  const auto events = r.recent();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].node, 12 + i);  // events 12..19 survive
  }
}

TEST(FlightRecorder, ClearEmpties) {
  Tracer r(8);
  r.enable();
  r.record(make_event(1));
  r.clear();
  EXPECT_TRUE(r.recent().empty());
  EXPECT_EQ(r.recorded(), 0u);
}

TEST(FlightRecorder, DumpJsonlParsesBack) {
  Tracer r(8);
  r.enable();
  TraceEvent e = make_event(7);
  e.attrs[0] = {"bytes", 64.0};
  e.num_attrs = 1;
  r.record(e);
  const std::string jsonl = r.recent_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const auto parsed = parse_json_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "tick");
  EXPECT_EQ(parsed->tier, "test");
  EXPECT_EQ(parsed->node, 7u);
  EXPECT_DOUBLE_EQ(parsed->attr("bytes"), 64.0);
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(FlightRecorder, EmitFeedsGlobalWhenArmed) {
  Tracer& g = Tracer::global();
  g.clear();
  ASSERT_FALSE(g.enabled());
  emit(1000, "ignored", "test", 1);
  EXPECT_TRUE(g.recent().empty());

  g.enable();
  emit(2000, "captured", "test", 2, {{"k", 3.0}});
  g.enable(false);

  const auto events = g.recent();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "captured");
  EXPECT_EQ(events[0].node, 2u);
  g.clear();
}

// Writers racing a dumping reader: every dump is oldest first (each
// writer's events in its own order), the sink sees every event, and the
// ring ends full.
TEST(FlightRecorder, ConcurrentAppendAndDump) {
  constexpr std::uint64_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  Tracer r(1024);
  MemorySink sink;
  r.set_sink(&sink);
  r.enable();
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&r, w]() {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        TraceEvent e;
        e.ts = static_cast<util::SimTime>(i);
        e.name = "w";
        e.tier = "test";
        e.node = w * kPerWriter + i;
        r.record(e);
      }
    });
  }
  for (int pass = 0; pass < 50; ++pass) {
    std::vector<std::uint64_t> next(kWriters, 0);
    for (const TraceEvent& e : r.recent()) {
      ASSERT_STREQ(e.tier, "test");
      ASSERT_LT(e.node, kWriters * kPerWriter);
      const std::uint64_t w = e.node / kPerWriter;
      ASSERT_GE(e.node, next[w]);
      next[w] = e.node + 1;
    }
  }
  for (auto& t : writers) t.join();
  r.set_sink(nullptr);
  EXPECT_EQ(r.recorded(), kWriters * kPerWriter);
  EXPECT_EQ(sink.events().size(), kWriters * kPerWriter);
  EXPECT_EQ(r.recent().size(), r.capacity());
}

}  // namespace
}  // namespace cadet::obs
