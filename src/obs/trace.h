// Sim-time event tracer: structured protocol events (request / reply /
// upload / penalty / cache-hit / refill / mix / ...) stamped with simulator
// time, kept in a ring of the newest events and passed to a pluggable sink
// (a JSONL file for --trace-out) as they are recorded.
//
// Hot-path contract: record() is a no-op unless the tracer is enabled, and
// the emit helpers cost one flag test while it is off. Events are
// small PODs — names and attribute keys must be string literals (static
// storage), so an event never owns heap memory.
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

#include "util/thread_annotations.h"
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

/// Where recorded events go.
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

/// The one event ring. Disabled by default, and it holds no memory until
/// it first records. Once enabled it keeps the newest `capacity` events
/// (the oldest is overwritten) and passes each event to the attached sink
/// as it records it, so a file sink sees every event in record order while
/// the ring serves last-N dumps (cadet_sim --flight-out, the admin /flight
/// endpoint). The mutex lets another thread (the admin acceptor) copy the
/// ring out while the engines record.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit Tracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }

  /// Disabling keeps the ring, so a dump after the run still reads it.
  void enable(bool on = true) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Attach a sink (not owned). Pass nullptr to detach.
  void set_sink(TraceSink* sink);

  void record(const TraceEvent& event) noexcept;

  /// Copy of the ring, oldest first.
  std::vector<TraceEvent> recent() const;
  /// recent() rendered through to_json, one line per event.
  std::string recent_jsonl() const;

  /// Events recorded since construction or the last clear().
  std::uint64_t recorded() const;

  /// Empty the ring and zero recorded().
  void clear();

  /// Process-wide tracer the protocol engines emit to.
  static Tracer& global();

 private:
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  mutable util::Mutex mu_;
  TraceSink* sink_ CADET_GUARDED_BY(mu_) = nullptr;
  std::vector<TraceEvent> ring_ CADET_GUARDED_BY(mu_);
  // Oldest event once the ring is full (the slot the next event takes).
  std::size_t next_ CADET_GUARDED_BY(mu_) = 0;
  std::uint64_t recorded_ CADET_GUARDED_BY(mu_) = 0;
};

namespace detail {
/// The one emit body behind obs::emit and the span helpers (obs/span.h):
/// a single flag test while tracing is off, else one record into the
/// global ring. `trace` == 0 (span tracking off, or a sender that never
/// bound a context) is a plain event: the span fields stay unset.
inline void emit_span(util::SimTime ts, const char* name, const char* tier,
                      std::uint64_t node, std::uint64_t trace,
                      std::uint64_t span, std::uint64_t parent, char phase,
                      std::initializer_list<TraceEvent::Attr> attrs) noexcept {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  TraceEvent event;
  event.ts = ts;
  event.name = name;
  event.tier = tier;
  event.node = node;
  if (trace != 0) {
    event.trace = trace;
    event.span = span;
    event.parent = parent;
    event.phase = phase;
  }
  for (const auto& attr : attrs) {
    if (event.num_attrs >= event.attrs.size()) break;
    event.attrs[event.num_attrs++] = attr;
  }
  tracer.record(event);
}
}  // namespace detail

/// Emit helper used by the engines: a single predictable branch when
/// tracing is off at runtime.
inline void emit(util::SimTime ts, const char* name, const char* tier,
                 std::uint64_t node,
                 std::initializer_list<TraceEvent::Attr> attrs = {}) noexcept {
  detail::emit_span(ts, name, tier, node, 0, 0, 0, 0, attrs);
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
