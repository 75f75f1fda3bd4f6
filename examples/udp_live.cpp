// Live deployment over real UDP sockets (loopback) — the same engines that
// run under the simulator, driven by the paper's actual transport ("UDP
// sockets to facilitate direct exchanges of data", §VI-A).
//
// One process hosts a server, an edge, and two clients, each on its own
// socket, glued together by net::UdpRunner. The producer client
// contributes entropy read from /dev/urandom; the consumer registers
// (init + token rereg) and pulls encrypted entropy.
// With `--admin-port N` the process also exposes the runtime health plane
// on 127.0.0.1:N (/metrics, /healthz, /flight) backed by a live Registry,
// the default SLO rules, and the global tracer's ring of the newest events
// (switched on for the endpoint); `--serve-ms T` keeps the process polling
// (and the endpoint up) for T ms after the demo so a scraper can observe
// it — this is what the CI admin-endpoint job drives.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cadet/cadet.h"
#include "entropy/sources.h"
#include "net/udp_runner.h"
#include "obs/admin.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace cadet;
  constexpr net::NodeId kServer = 1, kEdge = 100, kProducer = 1000,
                        kConsumer = 1001;

  int admin_port = -1;
  int serve_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--admin-port") == 0 && i + 1 < argc) {
      admin_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve-ms") == 0 && i + 1 < argc) {
      serve_ms = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--admin-port N] [--serve-ms T]\n", argv[0]);
      return 2;
    }
  }

  obs::Registry registry;

  ServerNode::Config server_config;
  server_config.id = kServer;
  server_config.seed = net::wall_clock_ns() | 1;
  server_config.metrics = &registry;
  ServerNode server(server_config);

  EdgeNode::Config edge_config;
  edge_config.id = kEdge;
  edge_config.server = kServer;
  edge_config.seed = server_config.seed + 1;
  edge_config.num_clients = 2;
  edge_config.metrics = &registry;
  EdgeNode edge(edge_config);

  auto client_config = [&](net::NodeId id) {
    ClientNode::Config c;
    c.id = id;
    c.edge = kEdge;
    c.server = kServer;
    c.seed = server_config.seed + id;
    c.metrics = &registry;
    return c;
  };
  ClientNode producer(client_config(kProducer));
  ClientNode consumer(client_config(kConsumer));

  net::UdpRunner runner;
  runner.bind_metrics(registry);

  // Health plane: default watchdog rules ticked from the poll loop, and
  // the admin endpoint if requested, with /flight serving the global
  // tracer's ring.
  obs::SloEngine slo(&registry);
  for (const obs::SloRule& rule : obs::default_slo_rules()) {
    slo.add_rule(rule);
  }
  runner.bind_health(&slo);
  obs::AdminServer admin(&registry, &slo);
  if (admin_port >= 0) {
    obs::Tracer::global().enable();
    admin.add_source("/flight", "application/x-ndjson",
                     [] { return obs::Tracer::global().recent_jsonl(); });
    obs::AdminServer::Options admin_opt;
    admin_opt.port = admin_port;
    if (!admin.start(admin_opt)) return 1;
    std::printf("admin endpoint: http://127.0.0.1:%d "
                "(/metrics /healthz /flight)\n",
                admin.port());
    std::fflush(stdout);  // a log reader learns an ephemeral port mid-run
  }
  runner.add_node(kServer, [&](net::NodeId f, util::BytesView d,
                               util::SimTime t) {
    return server.on_packet(f, d, t);
  });
  runner.add_node(kEdge, [&](net::NodeId f, util::BytesView d,
                             util::SimTime t) {
    return edge.on_packet(f, d, t);
  });
  runner.add_node(kProducer, [&](net::NodeId f, util::BytesView d,
                                 util::SimTime t) {
    return producer.on_packet(f, d, t);
  });
  runner.add_node(kConsumer, [&](net::NodeId f, util::BytesView d,
                                 util::SimTime t) {
    return consumer.on_packet(f, d, t);
  });

  std::printf("=== CADET over live UDP sockets (loopback) ===\n\n");

  // 1. Edge registration.
  runner.send_all(kEdge, edge.begin_edge_reg(net::wall_clock_ns()));
  if (!runner.pump_until([&] { return edge.registered(); }, 2000)) {
    std::fprintf(stderr, "edge registration timed out\n");
    return 1;
  }
  std::printf("[1] edge registered with server (esk established)\n");

  // 2. Consumer initialization + token reregistration.
  runner.send_all(kConsumer, consumer.begin_init(net::wall_clock_ns()));
  if (!runner.pump_until([&] { return consumer.initialized(); }, 2000)) {
    std::fprintf(stderr, "client init timed out\n");
    return 1;
  }
  std::printf("[2] consumer initialized with server (csk + token)\n");
  runner.send_all(kConsumer, consumer.begin_rereg(net::wall_clock_ns()));
  if (!runner.pump_until([&] { return consumer.reregistered(); }, 2000)) {
    std::fprintf(stderr, "client rereg timed out\n");
    return 1;
  }
  std::printf("[3] consumer reregistered with edge (cek established)\n");

  // 3. Producer contributes real kernel entropy.
  entropy::DevUrandomSource source(64);
  util::Xoshiro256 unused(0);
  for (int i = 0; i < 40; ++i) {
    runner.send_all(kProducer,
                    producer.upload_entropy(source.harvest(unused),
                                            net::wall_clock_ns()));
    runner.poll_once(5);
  }
  runner.pump_until([&] { return server.stats().bytes_mixed > 0; }, 2000);
  std::printf("[4] producer uploaded /dev/urandom entropy: server mixed "
              "%llu bytes (edge accepted %llu uploads)\n",
              static_cast<unsigned long long>(server.stats().bytes_mixed),
              static_cast<unsigned long long>(
                  edge.stats().uploads_accepted));

  // 4. Consumer pulls entropy — delivered sealed under cek.
  bool delivered = false;
  std::size_t delivered_bytes = 0;
  runner.send_all(kConsumer,
                  consumer.request_entropy(
                      512, net::wall_clock_ns(),
                      [&](util::BytesView data, util::SimTime) {
                        delivered = true;
                        delivered_bytes = data.size();
                      }));
  if (!runner.pump_until([&] { return delivered; }, 2000)) {
    std::fprintf(stderr, "entropy request timed out\n");
    return 1;
  }
  std::printf("[5] consumer received %zu bytes of encrypted entropy; local "
              "pool credit: %zu bits\n",
              delivered_bytes, consumer.pool().available_bits());

  std::printf("\nAll five stages completed over real sockets "
              "(%llu datagrams).\n",
              static_cast<unsigned long long>(runner.datagrams_handled()));

  if (serve_ms > 0) {
    std::printf("serving admin endpoint for %d ms...\n", serve_ms);
    const util::SimTime t_stop =
        net::wall_clock_ns() + static_cast<util::SimTime>(serve_ms) * 1000000;
    while (net::wall_clock_ns() < t_stop) {
      runner.poll_once(50);  // keeps the SLO engine ticking
    }
    std::printf("admin: served %llu request(s)\n",
                static_cast<unsigned long long>(admin.requests_served()));
  }
  admin.stop();
  return 0;
}
