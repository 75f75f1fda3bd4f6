// UdpRunner: the live-socket counterpart of SimNode. Runs the actual
// protocol over loopback UDP inside the test.
#include "net/udp_runner.h"

#include <gtest/gtest.h>

#include "cadet/cadet.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace cadet::net {
namespace {

TEST(UdpRunner, RoutesBetweenHandlers) {
  UdpRunner runner;
  util::Bytes received;
  runner.add_node(1, [&](NodeId from, util::BytesView data, util::SimTime) {
    received.assign(data.begin(), data.end());
    EXPECT_EQ(from, 2u);
    return std::vector<Outgoing>{};
  });
  runner.add_node(2, [&](NodeId, util::BytesView, util::SimTime) {
    return std::vector<Outgoing>{};
  });
  runner.send_all(2, {{1, util::Bytes{0xab, 0xcd}}});
  ASSERT_TRUE(runner.pump_until([&] { return !received.empty(); }, 2000));
  EXPECT_EQ(received, (util::Bytes{0xab, 0xcd}));
}

TEST(UdpRunner, RepliesFlowBack) {
  UdpRunner runner;
  bool echoed = false;
  runner.add_node(1, [&](NodeId from, util::BytesView data, util::SimTime) {
    // Echo server.
    return std::vector<Outgoing>{{from, util::Bytes(data.begin(),
                                                    data.end())}};
  });
  runner.add_node(2, [&](NodeId, util::BytesView data, util::SimTime) {
    echoed = data.size() == 3;
    return std::vector<Outgoing>{};
  });
  runner.send_all(2, {{1, util::Bytes{1, 2, 3}}});
  EXPECT_TRUE(runner.pump_until([&] { return echoed; }, 2000));
}

// Both drop paths (unknown destination, unknown sender) count in
// dropped_sends() and in the cadet_net_dropped counter alike.
TEST(UdpRunner, UnknownDestinationCounted) {
  obs::Registry registry;
  UdpRunner runner;
  runner.bind_metrics(registry);
  const obs::Counter& dropped = registry.counter(
      "cadet_net_dropped", {{"tier", "net"}, {"transport", "udp"}});
  runner.add_node(1, [](NodeId, util::BytesView, util::SimTime) {
    return std::vector<Outgoing>{};
  });
  runner.send_all(1, {{99, util::Bytes{1}}});
  EXPECT_EQ(runner.dropped_sends(), 1u);
  EXPECT_EQ(dropped.value(), 1u);
  runner.send_all(42, {{1, util::Bytes{1}}, {1, util::Bytes{2}}});
  EXPECT_EQ(runner.dropped_sends(), 3u);
  EXPECT_EQ(dropped.value(), runner.dropped_sends());
}

TEST(UdpRunner, FullProtocolOverRealSockets) {
  ServerNode::Config sc;
  sc.id = 1;
  sc.seed = 777;
  ServerNode server(sc);
  util::Xoshiro256 rng(7);
  server.seed_pool(rng.bytes(4096));

  EdgeNode::Config ec;
  ec.id = 100;
  ec.server = 1;
  ec.seed = 778;
  ec.num_clients = 1;
  EdgeNode edge(ec);

  ClientNode::Config cc;
  cc.id = 1000;
  cc.edge = 100;
  cc.server = 1;
  cc.seed = 779;
  ClientNode client(cc);

  UdpRunner runner;
  runner.add_node(1, [&](NodeId f, util::BytesView d, util::SimTime t) {
    return server.on_packet(f, d, t);
  });
  runner.add_node(100, [&](NodeId f, util::BytesView d, util::SimTime t) {
    return edge.on_packet(f, d, t);
  });
  runner.add_node(1000, [&](NodeId f, util::BytesView d, util::SimTime t) {
    return client.on_packet(f, d, t);
  });

  // Registration chain over real sockets.
  runner.send_all(100, edge.begin_edge_reg(wall_clock_ns()));
  ASSERT_TRUE(runner.pump_until([&] { return edge.registered(); }, 3000));
  runner.send_all(1000, client.begin_init(wall_clock_ns()));
  ASSERT_TRUE(runner.pump_until([&] { return client.initialized(); }, 3000));
  runner.send_all(1000, client.begin_rereg(wall_clock_ns()));
  ASSERT_TRUE(runner.pump_until([&] { return client.reregistered(); }, 3000));

  // Sealed delivery.
  bool delivered = false;
  runner.send_all(1000,
                  client.request_entropy(
                      256, wall_clock_ns(),
                      [&](util::BytesView data, util::SimTime) {
                        delivered = data.size() == 32;
                      }));
  EXPECT_TRUE(runner.pump_until([&] { return delivered; }, 3000));

  // End-to-end mode over real sockets too.
  bool e2e_delivered = false;
  runner.send_all(1000,
                  client.request_entropy(
                      256, wall_clock_ns(),
                      [&](util::BytesView data, util::SimTime) {
                        e2e_delivered = data.size() == 32;
                      },
                      /*end_to_end=*/true));
  EXPECT_TRUE(runner.pump_until([&] { return e2e_delivered; }, 3000));
  EXPECT_GE(edge.stats().e2e_forwarded, 1u);
}

}  // namespace
}  // namespace cadet::net
