// Sharded observability plane: the exports a cadet_sim --scale run writes
// (Prometheus snapshot + folded JSONL trace) must be byte-identical at any
// worker count, the folded stream must respect the merge watermark and the
// {ts, seq, shard} order, cross-boundary refill spans must stitch, and the
// plane must never perturb the simulation it observes.
#include "testbed/scale.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/task_pool.h"

namespace cadet::testbed {
namespace {

ScaleWorld::Executor pool_executor(util::TaskPool& pool) {
  return [&pool](std::size_t count,
                 const std::function<void(std::size_t)>& task) {
    pool.run(count, task);
  };
}

ScaleConfig obs_config() {
  ScaleConfig config;
  config.seed = 42;
  config.num_clients = 4000;
  config.clients_per_edge = 500;  // 8 edge shards + the server shard
  config.duration_s = 3.0;
  config.drop_prob = 0.02;
  config.flooder_fraction = 0.005;
  config.bad_uploader_fraction = 0.1;
  return config;
}

/// The two export artifacts of one traced scale run, as the bytes
/// cadet_sim --scale would write.
struct Exports {
  std::string metrics;
  std::string trace;
  std::uint64_t checksum = 0;
  std::uint64_t fulfilled = 0;
  std::vector<obs::TraceEvent> events;
};

Exports traced_run(const ScaleConfig& config, std::size_t workers) {
  obs::Registry registry;
  obs::MemorySink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.enable(true);

  ScaleWorld world(config);
  world.set_tracer(&tracer);
  world.enable_tracing(true);
  if (workers <= 1) {
    world.run();
  } else {
    util::TaskPool pool(workers);
    world.run(pool_executor(pool));
  }
  world.publish_metrics(registry);

  Exports out;
  out.metrics = obs::to_prometheus(registry);
  for (const obs::TraceEvent& event : sink.events()) {
    out.trace += obs::to_json(event);
    out.trace += '\n';
  }
  out.checksum = world.checksum();
  out.fulfilled = world.stats().fulfilled;
  out.events = sink.events();
  return out;
}

double attr_of(const obs::TraceEvent& event, const char* key,
               double fallback) {
  for (std::uint8_t i = 0; i < event.num_attrs; ++i) {
    if (std::string_view(event.attrs[i].key) == key) {
      return event.attrs[i].value;
    }
  }
  return fallback;
}

TEST(ScaleObs, ExportsAreExecutorIndependent) {
  const ScaleConfig config = obs_config();
  const Exports sequential = traced_run(config, 1);
  // 3 workers split the 9 shards unevenly; 8 workers outnumber the
  // hardware threads of most hosts, so that pool parks instead of spinning.
  for (const std::size_t workers : {2, 3, 4, 8}) {
    SCOPED_TRACE(workers);
    const Exports pooled = traced_run(config, workers);
    EXPECT_EQ(sequential.checksum, pooled.checksum);
    // What --metrics-out/--trace-out would write is byte-identical
    // regardless of the executor.
    EXPECT_EQ(sequential.metrics, pooled.metrics);
    EXPECT_EQ(sequential.trace, pooled.trace);
  }
}

TEST(ScaleObs, PlaneDoesNotPerturbTheSimulation) {
  const ScaleConfig config = obs_config();
  ScaleWorld bare(config);
  bare.enable_obs(false);  // instruments off, tracing off
  bare.run();

  const Exports traced = traced_run(config, 1);
  EXPECT_EQ(bare.checksum(), traced.checksum);
  EXPECT_EQ(bare.stats().fulfilled, traced.fulfilled);
}

TEST(ScaleObs, FoldedStreamIsMergeOrdered) {
  const Exports run = traced_run(obs_config(), 4);
  ASSERT_FALSE(run.events.empty());
  double prev_ts = -1.0;
  double prev_seq = -1.0;
  double prev_shard = -1.0;
  for (const obs::TraceEvent& event : run.events) {
    const double ts = util::to_seconds(event.ts);
    const double seq = attr_of(event, "seq", -1.0);
    const double shard = attr_of(event, "shard", -1.0);
    ASSERT_GE(seq, 0.0);    // every folded event carries its stream keys
    ASSERT_GE(shard, 0.0);
    if (ts != prev_ts) {
      ASSERT_GT(ts, prev_ts);
    } else if (seq != prev_seq) {
      ASSERT_GT(seq, prev_seq);
    } else {
      ASSERT_GT(shard, prev_shard);
    }
    prev_ts = ts;
    prev_seq = seq;
    prev_shard = shard;
  }
}

TEST(ScaleObs, WindowFoldRespectsWatermark) {
  obs::MemorySink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.enable(true);

  ScaleWorld world(obs_config());
  world.set_tracer(&tracer);
  world.enable_tracing(true);
  std::uint64_t windows = 0;
  world.set_window_hook([&](const ScaleWorld::WindowReport& report) {
    ++windows;
    // Boundary deliveries run up to two windows ahead of the barrier, so
    // the fold must hold those back: nothing at or past the watermark may
    // have reached the sink yet.
    for (const obs::TraceEvent& event : sink.events()) {
      ASSERT_LT(event.ts, report.watermark);
    }
    EXPECT_EQ(report.lookahead_violations, 0u);
  });
  world.run();
  EXPECT_GT(windows, 0u);
  EXPECT_EQ(world.lookahead_violations(), 0u);
}

TEST(ScaleObs, RefillSpansStitchAcrossTheBoundary) {
  const Exports run = traced_run(obs_config(), 2);
  // Every refill trace must be a complete edge -> server -> edge story:
  // 'B' refill opens it, the server's 'X' request rides the same trace on
  // the far side of the boundary, 'E' refill_data / refill_lost closes it.
  std::set<std::uint64_t> open;
  std::map<std::uint64_t, std::uint64_t> grants;  // trace -> count
  std::uint64_t closed = 0;
  for (const obs::TraceEvent& event : run.events) {
    const std::string_view name(event.name);
    if (name == "refill") {
      EXPECT_TRUE(open.insert(event.trace).second);
    } else if (name == "request" &&
               std::string_view(event.tier) == "server") {
      EXPECT_EQ(open.count(event.trace), 1u)
          << "grant for a refill trace that is not open";
      EXPECT_EQ(event.parent, event.trace);  // child of the root span
      ++grants[event.trace];
    } else if (name == "refill_data" || name == "refill_lost") {
      EXPECT_EQ(open.erase(event.trace), 1u)
          << "close for a refill trace that is not open";
      ++closed;
    }
  }
  EXPECT_GT(closed, 0u);
  EXPECT_GT(grants.size(), 0u);
  // Reissued refills may carry several grants; every grant's trace opened.
  EXPECT_TRUE(open.empty()) << open.size() << " refill span(s) never closed";
}

TEST(ScaleObs, FulfillmentHistogramMatchesTheLedger) {
  const Exports run = traced_run(obs_config(), 1);
  const obs::PromParse parsed = obs::parse_prometheus(run.metrics);
  double hdr_count = -1.0;
  double fulfilled = -1.0;
  double violations = -1.0;
  for (const obs::PromSample& sample : parsed.samples) {
    if (sample.name == "cadet_fulfillment_seconds_count") {
      hdr_count = sample.value;
    } else if (sample.name == "cadet_client_requests_fulfilled_total") {
      fulfilled = sample.value;
    } else if (sample.name == "cadet_shard_lookahead_violations_total") {
      violations = sample.value;
    }
  }
  EXPECT_EQ(hdr_count, static_cast<double>(run.fulfilled));
  EXPECT_EQ(fulfilled, static_cast<double>(run.fulfilled));
  EXPECT_EQ(violations, 0.0);  // published even when zero: the alert floor
  EXPECT_GT(run.fulfilled, 0u);
}

TEST(ScaleObs, RepublishingWithoutProgressAddsNothing) {
  obs::Registry registry;
  ScaleWorld world(obs_config());
  world.run();
  world.publish_metrics(registry);
  const std::string first = obs::to_prometheus(registry);
  // Delta publication: a second publish with no new work must not move any
  // counter or histogram (the window hook republishes every SLO period).
  world.publish_metrics(registry);
  EXPECT_EQ(obs::to_prometheus(registry), first);
}

}  // namespace
}  // namespace cadet::testbed
