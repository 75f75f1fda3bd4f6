#include "net/udp_runner.h"

#include "obs/slo.h"

namespace cadet::net {

util::SimTime wall_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint16_t UdpRunner::add_node(NodeId id, Handler handler) {
  auto endpoint = std::make_unique<UdpEndpoint>();
  const std::uint16_t port = endpoint->local_port();
  directory_[id] = UdpAddress{"127.0.0.1", port};
  nodes_.push_back(Node{id, std::move(endpoint), std::move(handler)});
  return port;
}

void UdpRunner::add_remote(NodeId id, const UdpAddress& address) {
  directory_[id] = address;
}

UdpEndpoint* UdpRunner::endpoint_of(NodeId id) {
  for (auto& node : nodes_) {
    if (node.id == id) return node.endpoint.get();
  }
  return nullptr;
}

NodeId UdpRunner::node_for_address(const UdpAddress& address) const {
  for (const auto& [id, addr] : directory_) {
    if (addr == address) return id;
  }
  return kInvalidNode;
}

void UdpRunner::send_all(NodeId from, const std::vector<Outgoing>& out) {
  UdpEndpoint* endpoint = endpoint_of(from);
  if (endpoint == nullptr) {
    dropped_sends_ += out.size();
    if (dropped_counter_ != nullptr) dropped_counter_->inc(out.size());
    return;
  }
  for (const auto& o : out) {
    const auto it = directory_.find(o.to);
    if (it == directory_.end()) {
      ++dropped_sends_;
      if (dropped_counter_ != nullptr) dropped_counter_->inc();
      continue;
    }
    if (!endpoint->send_to(it->second, o.data)) {
      // Kernel buffer full (EAGAIN/ENOBUFS): the datagram never left the
      // host, so account it as dropped rather than sent.
      ++dropped_sends_;
      if (dropped_counter_ != nullptr) dropped_counter_->inc();
      continue;
    }
    if (packets_counter_ != nullptr) {
      packets_counter_->inc();
      bytes_counter_->inc(o.data.size());
    }
  }
}

void UdpRunner::bind_metrics(obs::Registry& registry) {
  const obs::Labels labels{{"tier", "net"}, {"transport", "udp"}};
  packets_counter_ = &registry.counter("cadet_net_packets", labels);
  bytes_counter_ = &registry.counter("cadet_net_bytes", labels);
  dropped_counter_ = &registry.counter("cadet_net_dropped", labels);
  handler_hist_ = &registry.hdr("cadet_net_handler_seconds", labels);
}

void UdpRunner::bind_health(obs::SloEngine* engine, int interval_ms) {
  slo_ = engine;
  slo_interval_ns_ =
      static_cast<std::int64_t>(interval_ms < 1 ? 1 : interval_ms) *
      1'000'000;
  last_slo_tick_ns_ = 0;
}

int UdpRunner::poll_once(int timeout_ms) {
  std::vector<const UdpEndpoint*> endpoints;
  endpoints.reserve(nodes_.size());
  for (const auto& node : nodes_) endpoints.push_back(node.endpoint.get());
  wait_readable(endpoints, timeout_ms);

  int handled = 0;
  for (auto& node : nodes_) {
    handled += node.endpoint->drain(
        [&](util::BytesView data, const UdpAddress& from) {
          const NodeId sender = node_for_address(from);
          const util::SimTime start = wall_clock_ns();
          const auto replies = node.handler(sender, data, start);
          if (handler_hist_ != nullptr) {
            handler_hist_->record(
                util::to_seconds(wall_clock_ns() - start));
          }
          send_all(node.id, replies);
        });
  }
  handled_ += static_cast<std::uint64_t>(handled);

  if (slo_ != nullptr) {
    const util::SimTime now = wall_clock_ns();
    if (now - last_slo_tick_ns_ >= slo_interval_ns_) {
      last_slo_tick_ns_ = now;
      slo_->tick(util::to_seconds(now));
    }
  }
  return handled;
}

bool UdpRunner::pump_until(const std::function<bool()>& done,
                           int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  while (!done()) {
    poll_once(20);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    if (elapsed.count() > deadline_ms) return false;
  }
  return true;
}

}  // namespace cadet::net
