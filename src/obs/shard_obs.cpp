#include "obs/shard_obs.h"

#include <algorithm>
#include <limits>

namespace cadet::obs {

namespace {

/// Fold order: delivery/record time, then the per-stream emission
/// sequence, then the owning stream's shard index — the same total order
/// the MergeQueue drains boundary events in, for the same reason: it is a
/// pure function of simulation state, never of worker scheduling.
inline bool fold_before(const ShardObs::Buffered& x,
                        const ShardObs::Buffered& y) noexcept {
  if (x.event.ts != y.event.ts) return x.event.ts < y.event.ts;
  if (x.seq != y.seq) return x.seq < y.seq;
  return x.shard < y.shard;
}

}  // namespace

void ShardObs::emit(const TraceEvent& event) noexcept {
  if (!tracing_) return;
  Buffered entry;
  entry.event = event;
  entry.seq = seq_++;
  entry.shard = shard_;
  // Stamp the merge keys as attributes so the exported artifact carries
  // the order proof cadet_report re-validates offline.
  if (entry.event.num_attrs + 2 <= static_cast<int>(entry.event.attrs.size())) {
    entry.event.attrs[entry.event.num_attrs++] = {
        "shard", static_cast<double>(shard_)};
    entry.event.attrs[entry.event.num_attrs++] = {
        "seq", static_cast<double>(entry.seq)};
  }
  buffer_.push_back(entry);
}

std::size_t ShardObs::memory_bytes() const noexcept {
  return buffer_.capacity() * sizeof(Buffered) +
         latency_.layout().cell_count() * sizeof(std::uint64_t);
}

ShardObsPlane::ShardObsPlane(std::size_t num_edges,
                             const HdrConfig& latency_config)
    : num_edges_(num_edges),
      crossing_(boundary_crossing()),
      occupancy_(boundary_batch()) {
  streams_.reserve(num_edges_ + 2);
  for (std::size_t k = 0; k < num_edges_ + 2; ++k) {
    streams_.emplace_back(static_cast<std::uint32_t>(k), latency_config);
  }
}

HdrConfig ShardObsPlane::scale_latency() noexcept {
  // Fulfillment rides two LAN hops + retries: everything of interest sits
  // under seconds. 16 s / 32 sub-buckets keeps a stream's cells ~4 KB, so
  // a thousand shards cost single-digit MB — a few bytes per client.
  HdrConfig config;
  config.sub_bucket_bits = 5;
  config.max_value_s = 16.0;
  return config;
}

HdrConfig ShardObsPlane::boundary_crossing() noexcept {
  HdrConfig config;
  config.sub_bucket_bits = 6;
  config.max_value_s = 1.0;  // crossings are window + jitter: ~8-18 ms
  return config;
}

HdrConfig ShardObsPlane::boundary_batch() noexcept {
  HdrConfig config;
  config.sub_bucket_bits = 6;
  config.max_value_s = 0.0167;  // batch sizes up to ~16.7M events, exact
                                // to the layout's 1/64 cell width
  return config;
}

void ShardObsPlane::enable_tracing(bool on) noexcept {
  tracing_ = on;
  for (ShardObs& stream : streams_) stream.tracing_ = on;
}

void ShardObsPlane::set_enabled(bool on) noexcept {
  enabled_ = on;
  for (ShardObs& stream : streams_) stream.collecting_ = on;
}

std::size_t ShardObsPlane::fold_window(Tracer* tracer,
                                       util::SimTime watermark) {
  if (!tracing_) return 0;
  scratch_.clear();
  for (ShardObs& stream : streams_) {
    std::size_t keep = 0;
    for (ShardObs::Buffered& entry : stream.buffer_) {
      if (entry.event.ts < watermark) {
        scratch_.push_back(entry);
      } else {
        stream.buffer_[keep++] = entry;  // held: timestamped in a future
                                         // window (boundary lookahead)
      }
    }
    stream.buffer_.resize(keep);
  }
  std::sort(scratch_.begin(), scratch_.end(), fold_before);
  if (tracer != nullptr) {
    for (const ShardObs::Buffered& entry : scratch_) {
      tracer->record(entry.event);
    }
  }
  folded_ += scratch_.size();
  return scratch_.size();
}

std::size_t ShardObsPlane::fold_all(Tracer* tracer) {
  return fold_window(tracer, std::numeric_limits<util::SimTime>::max());
}

HdrSnapshot ShardObsPlane::merged_latency() const {
  HdrSnapshot merged = streams_.empty()
                           ? HdrSnapshot{}
                           : streams_[0].latency_.snapshot();
  for (std::size_t k = 1; k < streams_.size(); ++k) {
    merged.merge(streams_[k].latency_.snapshot());
  }
  return merged;
}

std::size_t ShardObsPlane::memory_bytes() const noexcept {
  std::size_t total = scratch_.capacity() * sizeof(ShardObs::Buffered) +
                      (crossing_.layout().cell_count() +
                       occupancy_.layout().cell_count()) *
                          sizeof(std::uint64_t);
  for (const ShardObs& stream : streams_) total += stream.memory_bytes();
  return total;
}

}  // namespace cadet::obs
