// Outside-in span recorder for cadet_e2e's traced runs.
//
// The benchmark times calls into each layer's public functions from its own
// files (engine on_packet handlers, UdpRunner::poll_once, the ScaleWorld
// executor and window hook); nothing inside src/ is instrumented. Spans are
// {id, parent, name, start_ns, end_ns}, kept in memory and written when the
// run ends: JSONL for tools, folded stacks for a flame graph.
//
// A span's self time is its duration minus its direct children's. Children
// of one parent never overlap (every traced loop is single-threaded), so
// the self times of all non-async spans add up to the roots' durations.
// Async spans (an open-loop request from due time to delivery) overlap the
// loop and are kept out of that sum.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cadet::e2e {

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns() noexcept;

struct Span {
  std::uint32_t id = 0;      ///< 1-based index into the log
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint16_t name = 0;
  bool async = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t key = 0;  ///< generator sequence number of async spans
};

/// Per-name totals over a set of spans.
struct LayerTime {
  double self_ns = 0.0;
  double total_ns = 0.0;
  double max_ns = 0.0;
  std::uint64_t calls = 0;
};
using LayerTable = std::map<std::string, LayerTime>;
/// Folded-stack path ("sim.run;edge.request") -> self nanoseconds.
using FoldedTable = std::map<std::string, double>;

class SpanLog {
 public:
  /// Id of a span name, added on first use.
  std::uint16_t intern(const std::string& name);

  /// Open a span under the current parent and make it the current parent.
  std::uint32_t open(std::uint16_t name, std::int64_t start_ns);
  /// Close the innermost open span `id` and restore its parent as current.
  void close(std::uint32_t id, std::int64_t end_ns);
  /// close() after renaming the span to `coalesce`. A childless span that
  /// directly follows a sibling of that name extends the sibling instead
  /// (idle polls would otherwise cost one span per empty poll).
  void close_as(std::uint32_t id, std::int64_t end_ns, std::uint16_t coalesce);
  /// Record a finished leaf span under the current parent.
  void leaf(std::uint16_t name, std::int64_t start_ns, std::int64_t end_ns);
  /// Record a root span outside the loop's time budget.
  void async(std::uint16_t name, std::uint64_t key, std::int64_t start_ns,
             std::int64_t end_ns);

  void clear();
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Add this log's self times to `layers` (by span name) and `folded` (by
  /// stack path). Async spans count calls and totals but no self time.
  void accumulate(LayerTable& layers, FoldedTable& folded) const;

  /// JSONL, one span per line, times relative to `origin_ns`.
  bool write_jsonl(const std::string& path, std::int64_t origin_ns) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;
};

bool write_folded(const std::string& path, const FoldedTable& folded);

}  // namespace cadet::e2e
