// Chaos-label run on the sharded path: 100k clients under datagram loss,
// flooders, bad uploaders, and partition-aligned edge crash windows — the
// scale-out counterpart of test_chaos.cpp's per-node fault sweeps. The
// invariants are the same shape: every wire request resolves exactly once,
// the boundary conserves every crossing event, and the same seed produces
// a byte-identical trace no matter how many workers step the shards.
#include "testbed/scale.h"

#include <gtest/gtest.h>

#include <functional>

#include "util/task_pool.h"

namespace cadet::testbed {
namespace {

TEST(ScaleChaos, HundredThousandClientsSurviveFaults) {
  ScaleConfig config;
  config.seed = 20260808;
  config.num_clients = 100'000;
  config.clients_per_edge = 1024;
  config.duration_s = 5.0;
  config.drop_prob = 0.05;
  config.flooder_fraction = 0.002;
  config.bad_uploader_fraction = 0.05;
  // Partition-aligned crash windows on a spread of edges.
  {
    ScaleConfig probe_config = config;
    probe_config.num_clients = 100;
    ScaleWorld probe(probe_config);
    const util::SimTime w = probe.window();
    for (std::uint32_t edge = 0; edge < 98; edge += 10) {
      config.crashes.push_back({edge, 100 * w, 300 * w});
    }
  }

  ScaleWorld world(config);
  const std::uint64_t events = world.run();
  const ScaleStats stats = world.stats();

  // The run actually exercised the machinery (~395k events; answered
  // requests schedule no retransmission timer, so none is counted here).
  EXPECT_GT(events, 350'000u);
  EXPECT_GT(stats.requests_sent, 50'000u);
  EXPECT_GT(stats.wire_dropped_requests, 0u);
  EXPECT_GT(stats.crash_dropped_requests, 0u);
  EXPECT_GT(stats.retried, 0u);
  EXPECT_GT(stats.heavy_denied, 0u);
  EXPECT_GT(stats.refills_completed, 0u);

  // Conservation under faults: every request resolves exactly once...
  EXPECT_EQ(stats.requests_sent,
            stats.fulfilled + stats.fallback + stats.expired);
  // ...the boundary loses nothing...
  EXPECT_EQ(world.boundary_emitted(), world.boundary_injected());
  EXPECT_EQ(stats.refills_requested + stats.refill_reissues,
            stats.server_grants);
  EXPECT_EQ(stats.server_grants,
            stats.refills_completed + stats.crash_dropped_refills);
  // ...and the upload ledger balances.
  EXPECT_EQ(stats.uploads_sent,
            stats.uploads_accepted + stats.uploads_dropped_penalty +
                stats.uploads_rejected_sanity + stats.wire_dropped_uploads +
                stats.crash_dropped_uploads);

  // Retries + fallback keep the honest population served through 5% loss
  // and a tenth of the edges crashing for a stretch of the run.
  EXPECT_GT(stats.fulfilled * 10, stats.requests_sent * 7);

  // Same seed, pooled execution: byte-identical trace.
  util::TaskPool pool(4);
  ScaleWorld pooled(config);
  pooled.run([&pool](std::size_t count,
                     const std::function<void(std::size_t)>& task) {
    pool.run(count, task);
  });
  EXPECT_EQ(world.checksum(), pooled.checksum());
  EXPECT_EQ(world.events_executed(), pooled.events_executed());
}

}  // namespace
}  // namespace cadet::testbed
