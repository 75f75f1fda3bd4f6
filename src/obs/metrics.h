// Unified metrics registry shared by all three CADET tiers, the simulator,
// and the transports.
//
// Three instrument kinds, named and labeled Prometheus-style:
//   Counter       monotonically increasing u64 (uploads, cache hits, drops)
//   Gauge         signed instantaneous value (pool fill, queue depth)
//   HdrHistogram  log-linear latency cells + sum + count (obs/hdr.h)
//
// Registration (Registry::counter/gauge/hdr) takes a mutex and may
// allocate; it happens once per node at construction. The returned
// references have stable addresses for the registry's lifetime, and the
// increment/set/record hot paths are lock-free relaxed atomics (safe for
// the threaded UDP path and a concurrent scraper).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace cadet::obs {

class HdrHistogram;  // obs/hdr.h
struct HdrConfig;    // obs/hdr.h

/// Metric labels: sorted key=value pairs (tier, node, ...).
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept { add(-n); }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Named + labeled instruments. One Registry is typically shared by a whole
/// deployment (testbed::World owns one); nodes constructed standalone fall
/// back to a private registry so unit tests stay isolated.
class Registry {
 public:
  Registry() = default;
  ~Registry();  // out of line: Slot holds a unique_ptr to a forward-
                // declared HdrHistogram
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Same (name, labels) returns the same instrument.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// Log-linear HDR latency histogram (obs/hdr.h); exports under the
  /// Prometheus histogram type.
  HdrHistogram& hdr(const std::string& name, const Labels& labels = {});
  HdrHistogram& hdr(const std::string& name, const Labels& labels,
                    const HdrConfig& config);

  enum class Kind { kCounter, kGauge, kHdr };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const HdrHistogram* hdr = nullptr;
  };
  /// Stable snapshot of every registered instrument, sorted by (name,
  /// labels) so exports are deterministic.
  std::vector<Entry> entries() const;

  std::size_t size() const;

  /// Process-wide default registry (used when no explicit registry is
  /// wired; lives forever).
  static Registry& global();

 private:
  struct Slot {
    Slot();   // out of line: the unique_ptr points at a forward-declared
    ~Slot();  // HdrHistogram
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    std::string name;
    Labels labels;
    Kind kind;
    // Exactly one is engaged, matching `kind`. deque gives the instruments
    // stable addresses as the registry grows.
    Counter counter;
    Gauge gauge;
    std::unique_ptr<HdrHistogram> hdr;
  };

  Slot& find_or_create(const std::string& name, const Labels& labels,
                       Kind kind, const HdrConfig* hdr_config = nullptr);

  mutable util::Mutex mu_;
  std::deque<Slot> slots_ CADET_GUARDED_BY(mu_);
  std::map<std::pair<std::string, Labels>, Slot*> index_
      CADET_GUARDED_BY(mu_);
};

/// Convenience label builders for the fixed tier taxonomy.
Labels tier_labels(const char* tier, std::uint64_t node);

}  // namespace cadet::obs
