// Same-seed runs must be byte-identical: the chaos suite, the sweep tool,
// and every experiment in the paper reproduction lean on the simulator
// being a pure function of its seed. This drives two independently
// constructed Worlds through the same workload and compares their JSONL
// protocol traces byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/trace.h"
#include "testbed/topology.h"
#include "testbed/workload.h"
#include "util/time.h"

namespace cadet::testbed {
namespace {

std::string run_trace(std::uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  config.num_networks = 2;
  config.clients_per_network = 3;
  World world(config);

  obs::MemorySink sink;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_sink(&sink);
  tracer.enable();

  world.register_edges();
  WorkloadDriver driver(world, seed + 1);
  const util::SimTime t_end = util::from_seconds(20.0);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(i, ClientBehavior::for_profile(world.profile_of(i)), 0,
                 t_end);
  }
  world.simulator().run_until(t_end);

  tracer.enable(false);
  tracer.set_sink(nullptr);

  std::string jsonl;
  for (const obs::TraceEvent& event : sink.events()) {
    jsonl += obs::to_json(event);
    jsonl += '\n';
  }
  return jsonl;
}

TEST(Determinism, SameSeedProducesByteIdenticalTrace) {
  const std::string first = run_trace(20180301);
  const std::string second = run_trace(20180301);
  // The run must actually have traced protocol activity, or this test
  // would pass vacuously.
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(run_trace(20180301), run_trace(20180302));
}

}  // namespace
}  // namespace cadet::testbed
