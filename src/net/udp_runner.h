// Binds sans-IO CADET engines to real UDP sockets: one endpoint per node,
// a NodeId -> port directory, and a poll loop that feeds received
// datagrams to engine handlers and transmits their send-intents. This is
// the live-deployment counterpart of testbed::SimNode.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "net/udp.h"
#include "obs/hdr.h"
#include "obs/metrics.h"

namespace cadet::obs {
class SloEngine;
}

namespace cadet::net {

/// Wall-clock nanoseconds suitable for the engines' SimTime parameter.
util::SimTime wall_clock_ns();

class UdpRunner {
 public:
  using Handler = std::function<std::vector<Outgoing>(
      NodeId from, util::BytesView data, util::SimTime now)>;

  /// Bind a new loopback endpoint for `id` and route incoming datagrams to
  /// `handler`. Returns the bound port.
  std::uint16_t add_node(NodeId id, Handler handler);

  /// Register an off-process peer reachable at `address` (for runners that
  /// host only part of a deployment).
  void add_remote(NodeId id, const UdpAddress& address);

  /// Transmit an engine's send-intents on behalf of `from`. Intents for
  /// unknown destinations are dropped (counted).
  void send_all(NodeId from, const std::vector<Outgoing>& out);

  /// Wait up to timeout_ms for traffic, then drain every socket once,
  /// dispatching handlers and transmitting their replies. Returns the
  /// number of datagrams handled.
  int poll_once(int timeout_ms);

  /// Pump until `done()` or `deadline_ms` elapses; true if `done`.
  bool pump_until(const std::function<bool()>& done, int deadline_ms);

  std::uint64_t dropped_sends() const noexcept { return dropped_sends_; }
  std::uint64_t datagrams_handled() const noexcept { return handled_; }

  /// Publish datagram totals and handler latency (cadet_net_packets /
  /// _bytes / _dropped counters, cadet_net_handler_seconds histogram,
  /// labeled transport=udp) to `registry`, which must outlive the runner.
  /// The poll loop is the only writer; scrapers read concurrently.
  void bind_metrics(obs::Registry& registry);

  /// Tick `engine` from the poll loop, at most once per `interval_ms` of
  /// wall clock (default 100 ms). The engine must outlive the runner.
  void bind_health(obs::SloEngine* engine, int interval_ms = 100);

 private:
  struct Node {
    NodeId id;
    std::unique_ptr<UdpEndpoint> endpoint;
    Handler handler;
  };

  UdpEndpoint* endpoint_of(NodeId id);
  NodeId node_for_address(const UdpAddress& address) const;

  std::vector<Node> nodes_;
  std::map<NodeId, UdpAddress> directory_;
  std::uint64_t dropped_sends_ = 0;
  std::uint64_t handled_ = 0;

  obs::Counter* packets_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::HdrHistogram* handler_hist_ = nullptr;

  obs::SloEngine* slo_ = nullptr;
  std::int64_t slo_interval_ns_ = 0;
  std::int64_t last_slo_tick_ns_ = 0;
};

}  // namespace cadet::net
