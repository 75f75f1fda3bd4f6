// Sim-time event tracer: structured protocol events (request / reply /
// upload / penalty / cache-hit / refill / mix / ...) stamped with simulator
// time, buffered in a fixed-capacity ring and drained to pluggable sinks as
// JSONL.
//
// Hot-path contract: record() is a no-op unless the tracer is enabled, and
// with CADET_OBS=OFF the emit helpers compile away entirely. Events are
// small PODs — names and attribute keys must be string literals (static
// storage), so recording never allocates.
//
// One JSONL line per event:
//   {"ts":1.234567,"ev":"cache_hit","tier":"edge","node":100,"bytes":64}
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"  // for CADET_OBS_ENABLED
#include "util/time.h"

namespace cadet::obs {

struct TraceEvent {
  struct Attr {
    const char* key = nullptr;  // string literal
    double value = 0.0;
  };

  util::SimTime ts = 0;
  const char* name = "";  // string literal (event kind)
  const char* tier = "";  // "client" | "edge" | "server" | "net" | "sim"
  std::uint64_t node = 0;
  // Causal span context (0 = not part of any trace). `phase` marks span
  // boundary records: 'B' opens span `span` (with `parent` naming the
  // enclosing span, 0 for a trace root), 'E' closes it, 'X' is a
  // zero-length span (opened and closed at ts). phase == 0 is a plain
  // event, optionally tagged with the trace/span it occurred under.
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  char phase = 0;
  std::array<Attr, 4> attrs{};
  std::uint8_t num_attrs = 0;
};

/// Serialize one event as a single JSON object (no trailing newline).
std::string to_json(const TraceEvent& event);

/// Where drained events go.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& event) = 0;
};

/// JSONL file sink. Opens with fopen; silently discards if opening failed
/// (ok() reports it).
class FileSink final : public TraceSink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  void write(const TraceEvent& event) override;
  bool ok() const noexcept { return file_ != nullptr; }

 private:
  std::FILE* file_ = nullptr;
};

/// In-memory sink for tests.
class MemorySink final : public TraceSink {
 public:
  void write(const TraceEvent& event) override { events_.push_back(event); }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Ring-buffer tracer. Disabled (and free) by default; enable() turns
/// recording on. When the ring fills: with a sink attached the buffered
/// events are flushed through first (lossless file tracing), without one
/// the oldest event is overwritten (bounded-memory flight recorder).
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  void set_capacity(std::size_t capacity);
  std::size_t capacity() const noexcept { return ring_.size(); }

  void enable(bool on = true) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Attach a sink (not owned). Pass nullptr to detach.
  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }

  void record(const TraceEvent& event) noexcept;

  /// Drain every buffered event, oldest first, to the sink (if any) and
  /// clear the ring. Returns the number of events drained.
  std::size_t flush();

  /// Copy out the buffered events, oldest first, without clearing.
  std::vector<TraceEvent> buffered() const;

  std::size_t buffered_count() const noexcept { return count_; }
  /// Events overwritten because the ring was full and no sink was attached.
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t recorded() const noexcept { return recorded_; }

  void clear();

  /// Process-wide tracer the protocol engines emit to.
  static Tracer& global();

 private:
  bool enabled_ = false;
  TraceSink* sink_ = nullptr;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // index of the oldest buffered event
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
};

#if CADET_OBS_ENABLED
namespace detail {
/// Flight-recorder hooks (defined in flight.cpp; declared here so emit()
/// can feed the recorder without trace.h depending on flight.h). The armed
/// flag is a single relaxed load on the hot path.
extern std::atomic<bool> g_flight_armed;
void flight_append(const TraceEvent& event) noexcept;
}  // namespace detail
#endif

/// Emit helper used by the engines: compiled out with CADET_OBS=OFF, and a
/// single predictable branch when both tracing and the flight recorder are
/// off at runtime.
inline void emit(util::SimTime ts, const char* name, const char* tier,
                 std::uint64_t node,
                 std::initializer_list<TraceEvent::Attr> attrs = {}) noexcept {
#if CADET_OBS_ENABLED
  Tracer& tracer = Tracer::global();
  const bool traced = tracer.enabled();
  const bool flight =
      detail::g_flight_armed.load(std::memory_order_relaxed);
  if (!traced && !flight) return;
  TraceEvent event;
  event.ts = ts;
  event.name = name;
  event.tier = tier;
  event.node = node;
  for (const auto& attr : attrs) {
    if (event.num_attrs >= event.attrs.size()) break;
    event.attrs[event.num_attrs++] = attr;
  }
  if (flight) detail::flight_append(event);
  if (traced) tracer.record(event);
#else
  (void)ts; (void)name; (void)tier; (void)node; (void)attrs;
#endif
}

// ---- trace reading (cadet_report, tests) ----

/// One parsed JSONL trace line.
struct ParsedEvent {
  double ts_s = 0.0;
  std::string name;
  std::string tier;
  std::uint64_t node = 0;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  char phase = 0;  // 'B' | 'E' | 'X' | 0
  std::vector<std::pair<std::string, double>> attrs;

  /// Attribute lookup; returns `fallback` when the key is absent.
  double attr(std::string_view key, double fallback = 0.0) const {
    for (const auto& [k, v] : attrs) {
      if (k == key) return v;
    }
    return fallback;
  }
};

/// Parse one line of the tracer's JSONL output. Returns nullopt on
/// malformed input. (A purpose-built parser for the flat objects to_json
/// emits — not a general JSON parser.)
std::optional<ParsedEvent> parse_json_line(std::string_view line);

}  // namespace cadet::obs
