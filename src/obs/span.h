// Causal span tracing over the JSONL event tracer.
//
// A *trace* is one client-initiated operation (entropy request or upload);
// a *span* is one unit of work inside it (the client-side request lifetime,
// an edge serve decision, a server pool draw, an e2e relay). Span records
// ride the existing TraceEvent stream as phase 'B'/'E'/'X' records carrying
// {trace, span, parent} ids, so one request's full story — retries, dedup
// drops, cache hit vs. server refill, fallback — reconstructs from the
// trace alone (tools/cadet_report reads and validates it). Span ids ride the
// *existing* protocol events: with spans enabled the "request" record
// becomes the root's 'B', the terminal "reply"/"fallback"/"request_expired"
// record its 'E', and serve decisions become zero-length 'X' spans — the
// trace gains id fields, not extra lines.
//
// Propagation: the engines are sans-IO and share no call stack across the
// wire, so context rides the PR-3 per-sender wire seq instead of a new
// wire field — the sender binds (sender node, seq) -> context in the
// process-global SpanTracker at wire() time, and the receiver's handler
// adopts the binding keyed by the packet header it just parsed. Zero bytes
// of wire-format growth; retransmissions reuse the same seq and therefore
// the same binding.
//
// Nesting discipline (what makes the acceptance check hold): only trace
// roots have duration — the client request span (closes at fulfilled /
// fallback / expired) and the edge refill span (closes at server data or
// declared loss). Every downstream span is zero-length (a single
// phase-'X' record) and parents directly on the root it rides, so child
// sim-timestamps nest inside the parent interval by causality.
//
// Determinism: ids are sequential from a single tracker; engines run
// single-threaded per world, so same seed => byte-identical span trace.
// Multi-world runs (cadet_sweep -j) keep spans disabled. reset() re-zeroes
// the counters so a same-seed rerun reproduces identical ids.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <unordered_map>

#include "obs/trace.h"
#include "util/time.h"

namespace cadet::obs {

struct SpanContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  bool valid() const noexcept { return trace != 0; }
};

/// Process-global id allocator + wire-seq correlation table.
class SpanTracker {
 public:
  void enable(bool on = true) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Allocate a fresh trace with its root span.
  SpanContext start_trace() {
    if (!enabled()) return {};
    return {++next_trace_, ++next_span_};
  }

  /// Allocate a child span id (caller supplies the trace it belongs to).
  std::uint64_t new_span() { return enabled() ? ++next_span_ : 0; }

  /// Bind an outgoing packet's (sender, seq) to the context downstream
  /// spans should parent on. Overwrites: the u16 seq wraps, and the newest
  /// in-flight binding is the one a receiver can observe.
  void bind_seq(std::uint64_t sender, std::uint16_t seq, SpanContext ctx) {
    if (!enabled()) return;
    seq_map_[key(sender, seq)] = ctx;
  }

  /// Context bound to an incoming packet's (sender, seq); invalid context
  /// if the sender never bound it (e.g. spans were off when it was sent).
  SpanContext lookup_seq(std::uint64_t sender, std::uint16_t seq) const {
    if (!enabled()) return {};
    const auto it = seq_map_.find(key(sender, seq));
    return it == seq_map_.end() ? SpanContext{} : it->second;
  }

  /// Forget everything: id counters restart from 1 and the seq table
  /// empties, so a same-seed rerun emits a byte-identical span trace.
  void reset() {
    next_trace_ = 0;
    next_span_ = 0;
    seq_map_.clear();
  }

  static SpanTracker& global();

 private:
  static std::uint64_t key(std::uint64_t sender, std::uint16_t seq) noexcept {
    return (sender << 16) | seq;
  }

  bool enabled_ = false;
  std::uint64_t next_trace_ = 0;
  std::uint64_t next_span_ = 0;
  // Bounded: at most 65536 live keys per sender (seq wraps and overwrites).
  std::unordered_map<std::uint64_t, SpanContext> seq_map_;
};

/// Open span ctx.span (parent 0 for a trace root).
inline void span_begin(util::SimTime ts, const char* name, const char* tier,
                       std::uint64_t node, SpanContext ctx,
                       std::uint64_t parent = 0,
                       std::initializer_list<TraceEvent::Attr> attrs = {}) noexcept {
  detail::emit_span(ts, name, tier, node, ctx.trace, ctx.span, parent, 'B',
                    attrs);
}

/// Close span ctx.span.
inline void span_end(util::SimTime ts, const char* name, const char* tier,
                     std::uint64_t node, SpanContext ctx,
                     std::initializer_list<TraceEvent::Attr> attrs = {}) noexcept {
  detail::emit_span(ts, name, tier, node, ctx.trace, ctx.span, 0, 'E',
                    attrs);
}

/// Zero-length span: opened and closed at `ts` in one record (phase 'X').
/// Every non-root span uses this — only the client request root and the
/// edge refill root have duration, which is what keeps child timestamps
/// nested inside their parent interval.
inline void span_complete(util::SimTime ts, const char* name,
                          const char* tier, std::uint64_t node,
                          SpanContext ctx, std::uint64_t parent,
                          std::initializer_list<TraceEvent::Attr> attrs = {}) noexcept {
  detail::emit_span(ts, name, tier, node, ctx.trace, ctx.span, parent, 'X',
                    attrs);
}

/// Instant event tagged with the trace/span it occurred under (no phase).
inline void span_event(util::SimTime ts, const char* name, const char* tier,
                       std::uint64_t node, SpanContext ctx,
                       std::initializer_list<TraceEvent::Attr> attrs = {}) noexcept {
  detail::emit_span(ts, name, tier, node, ctx.trace, ctx.span, 0, 0,
                    attrs);
}

}  // namespace cadet::obs
