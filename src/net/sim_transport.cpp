#include "net/sim_transport.h"

#include "obs/hdr.h"
#include "obs/trace.h"
#include "util/buffer_pool.h"
#include "util/log.h"

namespace cadet::net {

SimTransport::SimTransport(sim::Simulator& simulator, std::uint64_t seed)
    : simulator_(simulator), rng_(seed), default_profile_(sim::testbed_lan()) {}

void SimTransport::reserve(std::size_t nodes, std::size_t links) {
  nodes_.reserve(nodes);
  if (links > 0) link_profiles_.reserve(links);
}

void SimTransport::set_default_profile(const sim::LatencyProfile& profile) {
  default_profile_ = profile;
}

void SimTransport::set_link_profile(NodeId from, NodeId to,
                                    const sim::LatencyProfile& profile) {
  link_profiles_[link_key(from, to)] = profile;
}

const sim::LatencyProfile& SimTransport::profile_for(NodeId from,
                                                     NodeId to) const {
  if (link_profiles_.empty()) return default_profile_;
  const auto it = link_profiles_.find(link_key(from, to));
  return it != link_profiles_.end() ? it->second : default_profile_;
}

void SimTransport::count_unbound_drop(NodeId from, NodeId to) {
  // An unbound destination is a drop, not a delivery: count it as such so
  // load accounting stays truthful.
  ++dropped_packets_;
  if (dropped_counter_ != nullptr) dropped_counter_->inc();
  obs::emit(simulator_.now(), "packet_drop", "net", from,
            {{"to", static_cast<double>(to)}, {"unbound", 1.0}});
  CADET_LOG_DEBUG << "SimTransport: dropping packet to unbound node " << to;
}

void SimTransport::send(NodeId from, NodeId to, util::Bytes data) {
  NodeState& src = nodes_[from];
  ++src.counters.packets_sent;
  src.counters.bytes_sent += data.size();
  ++total_packets_;
  if (packets_counter_ != nullptr) {
    packets_counter_->inc();
    bytes_counter_->inc(data.size());
  }

  const auto& profile = profile_for(from, to);
  if (profile.dropped(rng_)) {
    ++dropped_packets_;
    if (dropped_counter_ != nullptr) dropped_counter_->inc();
    obs::emit(simulator_.now(), "packet_drop", "net", from,
              {{"to", static_cast<double>(to)}});
    util::BufferPool::local().release(std::move(data));
    return;
  }
  const util::SimTime delay = profile.sample(rng_, data.size());
  if (latency_hist_ != nullptr) {
    latency_hist_->record(util::to_seconds(delay));
  }
  // One lookup now; the delivery closure reuses the pointer (element
  // references are stable). A handler installed between send and delivery
  // is honoured, same as the old lookup-at-delivery behaviour.
  NodeState* dst = &nodes_[to];
  simulator_.schedule(
      delay, [this, from, to, dst, payload = std::move(data)]() mutable {
        if (!dst->handler) {
          count_unbound_drop(from, to);
          util::BufferPool::local().release(std::move(payload));
          return;
        }
        ++dst->counters.packets_received;
        dst->counters.bytes_received += payload.size();
        dst->handler(from, payload, simulator_.now());
        util::BufferPool::local().release(std::move(payload));
      });
}

void SimTransport::set_handler(NodeId id, PacketHandler handler) {
  nodes_[id].handler = std::move(handler);
}

const SimTransport::NodeCounters& SimTransport::counters(NodeId id) const {
  return nodes_[id].counters;  // default-constructs zeros for unseen nodes
}

void SimTransport::reset_counters() {
  // Zero in place instead of clearing: delivery closures in flight hold
  // NodeState pointers into this map.
  for (auto& [id, node] : nodes_) {
    node.counters = NodeCounters{};
  }
  total_packets_ = 0;
  dropped_packets_ = 0;
}

void SimTransport::bind_metrics(obs::Registry& registry) {
  const obs::Labels labels{{"tier", "net"}, {"transport", "sim"}};
  packets_counter_ = &registry.counter("cadet_net_packets", labels);
  bytes_counter_ = &registry.counter("cadet_net_bytes", labels);
  dropped_counter_ = &registry.counter("cadet_net_dropped", labels);
  latency_hist_ = &registry.hdr("cadet_net_latency_seconds", labels);
}

}  // namespace cadet::net
