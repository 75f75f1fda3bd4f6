// Profiler call-tree tests: scope nesting, sim-time attribution, folded
// output, and that the whole thing is inert until enabled.
#include <gtest/gtest.h>

#include <string>

#include "obs/profile.h"
#include "util/time.h"

namespace cadet::obs {
namespace {

// The profiler is a process-global singleton (like the tracer); every test
// leaves it disabled and reset so the others start clean.
struct ProfilerGuard {
  ProfilerGuard() {
    Profiler::global().reset();
    Profiler::global().enable();
  }
  ~ProfilerGuard() {
    Profiler::global().enable(false);
    Profiler::global().reset();
  }
};

TEST(Profiler, DisabledScopesLeaveTheTreeEmpty) {
  Profiler& profiler = Profiler::global();
  profiler.reset();
  ASSERT_FALSE(profiler.enabled());
  {
    CADET_PROFILE_SCOPE("should_not_appear");
    CADET_PROFILE_ADD_SIM(util::from_seconds(1.0));
  }
  EXPECT_EQ(profiler.nodes().size(), 1u);  // just the synthetic root
  EXPECT_TRUE(profiler.folded().empty());
}

TEST(Profiler, NestedScopesBuildOneTreePath) {
  ProfilerGuard guard;
  Profiler& profiler = Profiler::global();
  for (int i = 0; i < 3; ++i) {
    CADET_PROFILE_SCOPE("outer");
    CADET_PROFILE_SCOPE("inner");
    CADET_PROFILE_ADD_SIM(util::from_seconds(0.25));
  }
  // Root + outer + inner; repeated entries reuse their nodes.
  ASSERT_EQ(profiler.nodes().size(), 3u);
  const auto& outer = profiler.nodes()[1];
  const auto& inner = profiler.nodes()[2];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.calls, 3u);
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, 1u);
  EXPECT_EQ(inner.calls, 3u);
  // Sim time lands on the innermost open scope, nowhere else.
  EXPECT_EQ(inner.sim_ns,
            static_cast<std::uint64_t>(util::from_seconds(0.75)));
  EXPECT_EQ(outer.sim_ns, 0u);
}

TEST(Profiler, SameNameUnderDifferentParentsIsTwoNodes) {
  ProfilerGuard guard;
  Profiler& profiler = Profiler::global();
  {
    CADET_PROFILE_SCOPE("edge");
    CADET_PROFILE_SCOPE("crypto");
  }
  {
    CADET_PROFILE_SCOPE("server");
    CADET_PROFILE_SCOPE("crypto");
  }
  // root + edge + crypto + server + crypto: keyed by path, not by name.
  EXPECT_EQ(profiler.nodes().size(), 5u);
}

TEST(Profiler, FoldedLinesCarryTheFullStack) {
  ProfilerGuard guard;
  {
    CADET_PROFILE_SCOPE("sim.run");
    CADET_PROFILE_SCOPE("edge");
    CADET_PROFILE_ADD_SIM(util::from_seconds(0.002));
  }
  const std::string folded = Profiler::global().folded(/*sim_time=*/true);
  // One line for the only node with nonzero exclusive sim time: 2 ms.
  EXPECT_EQ(folded, "sim.run;edge 2000\n");
}

TEST(Profiler, ReportListsEveryScope) {
  ProfilerGuard guard;
  {
    CADET_PROFILE_SCOPE("alpha");
    CADET_PROFILE_SCOPE("beta");
  }
  const std::string report = Profiler::global().report();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);
}

TEST(Profiler, ResetDropsTheTree) {
  ProfilerGuard guard;
  {
    CADET_PROFILE_SCOPE("gone");
  }
  Profiler::global().reset();
  EXPECT_EQ(Profiler::global().nodes().size(), 1u);
  EXPECT_TRUE(Profiler::global().folded().empty());
}

}  // namespace
}  // namespace cadet::obs
