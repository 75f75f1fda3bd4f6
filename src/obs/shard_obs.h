// Per-shard observability plane for the sharded deterministic worlds.
//
// The per-node engines emit straight into the process-global Tracer and
// Registry; at a million clients the sharded world (testbed/scale.h) runs
// its sub-worlds concurrently on a thread pool, so a shared tracer would
// serialize the hot path AND interleave events in worker order — breaking
// the any-`-j` byte-identical export guarantee the scale path is built on.
//
// ShardObsPlane solves both with the same discipline as the MergeQueue:
// one delta buffer per stream (one stream per edge shard, one for the
// server shard, one for the window barrier itself), written lock-free by
// its single owner during a window, and folded by ONE thread at the window
// barrier in {ts, seq, shard} order. The fold is watermark-gated: only
// events timestamped before the merged watermark move to the sink, so an
// event recorded "in the future" (a boundary crossing scheduled up to two
// windows ahead) is held until every stream has advanced past its
// timestamp. By induction over barriers the folded sequence is a pure
// function of the simulation state — the same argument, and the same
// witness structure, as the per-shard FNV trace checksums.
//
// Latency observations ride per-stream HdrHistograms; integer cells add
// commutatively, so merging the per-shard histograms in shard-index order
// yields counts independent of which worker ran which shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/hdr.h"
#include "obs/trace.h"
#include "util/time.h"

namespace cadet::obs {

/// One stream's delta state: a trace-event buffer with a private sequence
/// counter plus a latency histogram. Exactly one owner writes during a
/// window (the shard that owns the stream); the plane folds at barriers.
class ShardObs {
 public:
  ShardObs(std::uint32_t shard, const HdrConfig& latency_config)
      : shard_(shard), latency_(latency_config) {}

  std::uint32_t shard() const noexcept { return shard_; }

  /// Buffer one trace event, stamping `shard` and `seq` attributes (the
  /// merge keys cadet_report validates). No-op while the plane's tracing
  /// gate is off.
  void emit(const TraceEvent& event) noexcept;

  /// Record one latency observation into the stream's histogram. No-op
  /// while the plane's collection gate is off.
  void record(double seconds) noexcept {
    if (collecting_) latency_.record(seconds);
  }

  const HdrHistogram& latency() const noexcept { return latency_; }
  /// Events buffered by this stream so far (== the next seq stamp).
  std::uint64_t emitted() const noexcept { return seq_; }
  /// Events still held in the buffer (not yet folded past the watermark).
  std::size_t buffered() const noexcept { return buffer_.size(); }

  std::size_t memory_bytes() const noexcept;

  /// A buffered event with its fold keys (public so the fold comparator
  /// and the plane's scratch vector can name it).
  struct Buffered {
    TraceEvent event;
    std::uint64_t seq = 0;
    std::uint32_t shard = 0;
  };

 private:
  friend class ShardObsPlane;

  std::uint32_t shard_ = 0;
  bool tracing_ = false;
  bool collecting_ = true;
  std::uint64_t seq_ = 0;
  HdrHistogram latency_;
  std::vector<Buffered> buffer_;
};

class ShardObsPlane {
 public:
  /// `num_edges` edge streams + one server stream + one boundary stream.
  /// `latency_config` sizes every stream's histogram (fulfillment
  /// latencies live well under its 16 s default ceiling).
  explicit ShardObsPlane(std::size_t num_edges,
                         const HdrConfig& latency_config = scale_latency());

  /// Histogram layouts tuned for the scale path: tighter ceilings than
  /// the registry default keep ~1000 per-shard instruments small.
  static HdrConfig scale_latency() noexcept;    // 1 ns .. 16 s
  static HdrConfig boundary_crossing() noexcept;  // 1 ns .. 1 s
  static HdrConfig boundary_batch() noexcept;   // counts in integer cells

  std::size_t num_edges() const noexcept { return num_edges_; }
  std::size_t num_streams() const noexcept { return streams_.size(); }

  ShardObs& edge(std::size_t s) noexcept { return streams_[s]; }
  const ShardObs& edge(std::size_t s) const noexcept { return streams_[s]; }
  ShardObs& server() noexcept { return streams_[num_edges_]; }
  ShardObs& boundary() noexcept { return streams_[num_edges_ + 1]; }
  const ShardObs& boundary() const noexcept {
    return streams_[num_edges_ + 1];
  }

  /// Tracing gate: while off, emit() is a flag test and the fold is free.
  void enable_tracing(bool on) noexcept;
  bool tracing() const noexcept { return tracing_; }

  /// Collection gate for the always-on instruments (latency + boundary
  /// histograms). On by default; the bench disables it to measure the
  /// plane's cost against a dark world.
  void set_enabled(bool on) noexcept;
  bool enabled() const noexcept { return enabled_; }

  /// Boundary instruments, written single-threaded at the barrier:
  /// crossing latency (delivery time minus emission time) and batch
  /// occupancy (events per drain, kept in the histogram's integer cells
  /// as n nanoseconds — exact to the layout's cell precision).
  void record_crossing(double seconds) noexcept {
    if (enabled_) crossing_.record(seconds);
  }
  void record_batch(std::uint64_t events) noexcept {
    if (enabled_) occupancy_.record(static_cast<double>(events) * 1e-9);
  }
  const HdrHistogram& crossing() const noexcept { return crossing_; }
  const HdrHistogram& occupancy() const noexcept { return occupancy_; }

  /// Fold every stream's buffered events with ts < `watermark` into
  /// `tracer` (may be null to discard), ordered by {ts, seq, shard}.
  /// Events at or past the watermark stay buffered for a later barrier.
  /// Single-threaded: call only from the window barrier. Returns the
  /// number of events folded.
  std::size_t fold_window(Tracer* tracer, util::SimTime watermark);
  /// Final fold with an unbounded watermark (end of run).
  std::size_t fold_all(Tracer* tracer);

  std::uint64_t events_folded() const noexcept { return folded_; }

  /// Per-edge latency histograms merged in shard-index order — the
  /// deterministic aggregate the registry publication absorbs.
  HdrSnapshot merged_latency() const;

  std::size_t memory_bytes() const noexcept;

 private:
  std::size_t num_edges_ = 0;
  bool tracing_ = false;
  bool enabled_ = true;
  std::uint64_t folded_ = 0;
  std::vector<ShardObs> streams_;
  HdrHistogram crossing_;
  HdrHistogram occupancy_;
  std::vector<ShardObs::Buffered> scratch_;  // fold workspace, reused
};

}  // namespace cadet::obs
