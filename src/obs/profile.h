// Sim-time + wall-time scoped profiler.
//
// CADET_PROFILE_SCOPE("name") opens a RAII scope that charges elapsed
// *wall* time to a call-tree node keyed by the dynamic nesting of scopes
// (sim.run -> edge -> crypto.seal -> ...); CADET_PROFILE_ADD_SIM(dt)
// additionally charges *simulated* time to the innermost open scope (the
// testbed knows how much sim-time a handler consumed — its modeled CPU
// busy interval — but that never shows up on any wall clock). The tree
// dumps as a human-readable table (inclusive/exclusive, both clocks) or as
// folded-stack lines ("sim.run;edge;crypto.seal 123") ready for
// flamegraph.pl / speedscope.
//
// The profiler holds wall-clock calls, which the cadet_lint sim-purity
// rule bans from src/{sim,cadet,entropy}; those trees only ever see the
// CADET_PROFILE_* macros (no chrono tokens at the call site) and this
// header lives in src/obs, which is exempt.
//
// Single-threaded by design, like the tracer: one world per thread, and
// multi-world tools (cadet_sweep -j) leave the profiler disabled. The
// enabled check is one predictable branch per scope.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace cadet::obs {

class Profiler {
 public:
  struct Node {
    const char* name = "";        // string literal
    std::uint32_t parent = 0;     // index into nodes() (root parents itself)
    std::uint64_t calls = 0;
    std::uint64_t wall_ns = 0;    // inclusive wall time
    std::uint64_t sim_ns = 0;     // exclusive (self) sim time
    std::vector<std::uint32_t> children;
  };

  void enable(bool on = true) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Enter a child scope of the current node (found by name or created).
  /// Returns the previous current-node index for the matching pop().
  std::uint32_t push(const char* name);

  /// Leave the current scope: charge `wall_ns` + one call to it and make
  /// `prev` current again.
  void pop(std::uint32_t prev, std::uint64_t wall_ns);

  /// Charge simulated time to the innermost open scope.
  void add_sim(util::SimTime dt) {
    if (enabled() && dt > 0) {
      nodes_[current_].sim_ns += static_cast<std::uint64_t>(dt);
    }
  }

  /// Call tree, index 0 = synthetic root (never charged directly).
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// Folded-stack lines, one per tree node with nonzero exclusive time:
  /// "a;b;c <microseconds>\n". Wall time by default, sim time on request.
  std::string folded(bool sim_time = false) const;

  /// Human-readable table: per node, calls + inclusive/exclusive wall and
  /// sim time, indented by tree depth.
  std::string report() const;

  /// Drop the whole tree and return to the root scope.
  void reset();

  static Profiler& global();

 private:
  Profiler() { reset(); }

  bool enabled_ = false;
  std::uint32_t current_ = 0;
  std::vector<Node> nodes_;
};

/// RAII wall-clock scope; no-op (one branch) when the profiler is off.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    Profiler& profiler = Profiler::global();
    if (!profiler.enabled()) return;
    active_ = true;
    prev_ = profiler.push(name);
    start_ = std::chrono::steady_clock::now();
  }

  ~ProfileScope() {
    if (!active_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    Profiler::global().pop(
        prev_, static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       elapsed)
                       .count()));
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  bool active_ = false;
  std::uint32_t prev_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace cadet::obs

// Call-site macros: no chrono tokens at the expansion site, so profiled
// code in the sim-pure trees stays lint-clean.
#define CADET_PROFILE_CONCAT2(a, b) a##b
#define CADET_PROFILE_CONCAT(a, b) CADET_PROFILE_CONCAT2(a, b)
#define CADET_PROFILE_SCOPE(name)                                     \
  ::cadet::obs::ProfileScope CADET_PROFILE_CONCAT(cadet_profile_scope_, \
                                                  __LINE__)(name)
#define CADET_PROFILE_ADD_SIM(dt) ::cadet::obs::Profiler::global().add_sim(dt)
