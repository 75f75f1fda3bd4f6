// Golden observability schema: one metric and trace vocabulary on every
// path. Three deployments — a traced World, a traced ScaleWorld with wire
// loss, flooders and bad uploaders, and the one-server / one-edge /
// one-client UdpRunner deployment — export metric families and trace
// events, checked against the inline lists below. A name that is not
// listed, a family exported with two kinds, or a fact behind
// cadet_report's join rows or the default SLO rules that World and
// ScaleWorld do not both emit fails the test. Renaming or adding a family
// or event is a deliberate edit of these lists.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cadet/cadet.h"
#include "net/faulty_transport.h"
#include "net/udp_runner.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "testbed/scale.h"
#include "testbed/topology.h"
#include "testbed/workload.h"
#include "util/rng.h"
#include "util/time.h"

namespace cadet {
namespace {

using Event = std::pair<std::string, std::string>;  // (tier, name)

/// Every metric family any path exports, with its Prometheus type.
const std::map<std::string, std::string> kGoldenFamilies = {
    {"cadet_boundary_batch_events", "histogram"},
    {"cadet_boundary_crossing_seconds", "histogram"},
    {"cadet_client_bytes_received", "counter"},
    {"cadet_client_dupes_dropped", "counter"},
    {"cadet_client_local_serves", "counter"},
    {"cadet_client_requests_expired", "counter"},
    {"cadet_client_requests_fallback", "counter"},
    {"cadet_client_requests_fulfilled", "counter"},
    {"cadet_client_requests_retried", "counter"},
    {"cadet_client_requests_sent", "counter"},
    {"cadet_client_uploads_sent", "counter"},
    {"cadet_edge_blacklisted_clients", "gauge"},
    {"cadet_edge_bulk_uploads_sent", "counter"},
    {"cadet_edge_bytes_delivered", "counter"},
    {"cadet_edge_cache_bytes", "gauge"},
    {"cadet_edge_cache_gen_newest", "gauge"},
    {"cadet_edge_cache_gen_oldest", "gauge"},
    {"cadet_edge_cache_hits", "counter"},
    {"cadet_edge_cache_misses", "counter"},
    {"cadet_edge_dupes_dropped", "counter"},
    {"cadet_edge_e2e_forwarded", "counter"},
    {"cadet_edge_heavy_rejections", "counter"},
    {"cadet_edge_refill_retries", "counter"},
    {"cadet_edge_refills_completed", "counter"},
    {"cadet_edge_refills_requested", "counter"},
    {"cadet_edge_requests_received", "counter"},
    {"cadet_edge_reregistrations", "counter"},
    {"cadet_edge_timing_bytes_injected", "counter"},
    {"cadet_edge_uploads_accepted", "counter"},
    {"cadet_edge_uploads_dropped_penalty", "counter"},
    {"cadet_edge_uploads_received", "counter"},
    {"cadet_edge_uploads_rejected_sanity", "counter"},
    {"cadet_fault_corrupted", "counter"},
    {"cadet_fault_crashed", "counter"},
    {"cadet_fault_dropped", "counter"},
    {"cadet_fault_duplicated", "counter"},
    {"cadet_fault_partitioned", "counter"},
    {"cadet_fault_reordered", "counter"},
    {"cadet_fulfillment_inflight", "gauge"},
    {"cadet_fulfillment_seconds", "histogram"},
    {"cadet_mixer_folds", "counter"},
    {"cadet_mixer_hash_ops", "counter"},
    {"cadet_net_bytes", "counter"},
    {"cadet_net_dropped", "counter"},
    {"cadet_net_handler_seconds", "histogram"},
    {"cadet_net_latency_seconds", "histogram"},
    {"cadet_net_packets", "counter"},
    {"cadet_pool_available_bits", "gauge"},
    {"cadet_pool_bytes", "gauge"},
    {"cadet_pool_starved_bytes", "counter"},
    {"cadet_scale_boundary_pending", "gauge"},
    {"cadet_scale_trace_events_folded", "counter"},
    {"cadet_scale_watermark_ms", "gauge"},
    {"cadet_server_bytes_mixed", "counter"},
    {"cadet_server_bytes_served", "counter"},
    {"cadet_server_dupes_dropped", "counter"},
    {"cadet_server_pool_exchanges", "counter"},
    {"cadet_server_pool_gen_newest", "gauge"},
    {"cadet_server_pool_gen_oldest", "gauge"},
    {"cadet_server_quality_checks_failed", "counter"},
    {"cadet_server_quality_checks_run", "counter"},
    {"cadet_server_requests_served", "counter"},
    {"cadet_server_requests_short", "counter"},
    {"cadet_server_uploads_dropped_penalty", "counter"},
    {"cadet_server_uploads_received", "counter"},
    {"cadet_server_uploads_rejected_sanity", "counter"},
    {"cadet_shard_events", "counter"},
    {"cadet_shard_lookahead_violations", "counter"},
    {"cadet_sim_events", "counter"},
    {"cadet_sim_queue_depth", "gauge"},
};

/// Every (tier, event) pair any path can trace (a run need not hit all).
const std::set<Event> kGoldenEvents = {
    {"client", "dupe_drop"},     {"client", "fallback"},
    {"client", "init_retry"},    {"client", "reply"},
    {"client", "request"},       {"client", "request_expired"},
    {"client", "request_retry"}, {"client", "rereg_retry"},
    {"client", "upload"},        {"edge", "bulk_upload"},
    {"edge", "cache_hit"},       {"edge", "cache_miss"},
    {"edge", "delivery"},        {"edge", "dupe_drop"},
    {"edge", "e2e_forward"},     {"edge", "heavy_deny"},
    {"edge", "heavy_scan"},      {"edge", "penalty_drop"},
    {"edge", "refill"},          {"edge", "refill_bad_data"},
    {"edge", "refill_data"},     {"edge", "refill_empty"},
    {"edge", "refill_lost"},     {"edge", "refill_retry"},
    {"edge", "reg_retry"},       {"edge", "relay"},
    {"edge", "request"},         {"edge", "reregister"},
    {"edge", "sanity_reject"},   {"edge", "upload_rx"},
    {"health", "slo_alert"},     {"health", "slo_clear"},
    {"net", "cross_refill_data"}, {"net", "cross_refill_req"},
    {"net", "cross_upload"},     {"net", "fault_corrupt"},
    {"net", "fault_drop"},       {"net", "fault_duplicate"},
    {"net", "fault_partition"},  {"net", "fault_reorder"},
    {"net", "packet_drop"},      {"server", "dupe_drop"},
    {"server", "mix"},           {"server", "request"},
    {"server", "upload_rx"},
};

/// cadet_report's join rows (kJoinRows in tools/cadet_report.cpp): each
/// trace event and the counter family that counts the same fact.
const std::vector<std::pair<Event, std::string>> kJoinRows = {
    {{"client", "request"}, "cadet_client_requests_sent"},
    {{"client", "reply"}, "cadet_client_requests_fulfilled"},
    {{"edge", "request"}, "cadet_edge_requests_received"},
    {{"edge", "cache_hit"}, "cadet_edge_cache_hits"},
    {{"edge", "cache_miss"}, "cadet_edge_cache_misses"},
    {{"edge", "e2e_forward"}, "cadet_edge_e2e_forwarded"},
};

struct Exports {
  std::map<std::string, std::set<std::string>> families;  // name -> kinds
  std::set<Event> events;
};

const char* kind_name(obs::Registry::Kind kind) {
  switch (kind) {
    case obs::Registry::Kind::kCounter: return "counter";
    case obs::Registry::Kind::kGauge: return "gauge";
    case obs::Registry::Kind::kHdr: return "histogram";
  }
  return "?";
}

void collect(const obs::Registry& registry,
             const std::vector<obs::TraceEvent>& events, Exports& out) {
  for (const obs::Registry::Entry& entry : registry.entries()) {
    out.families[entry.name].insert(kind_name(entry.kind));
  }
  for (const obs::TraceEvent& event : events) {
    out.events.insert({event.tier, event.name});
  }
}

/// Routes the process-global tracer (and span ids) into a memory sink for
/// the lifetime of the object, as cadet_sim --trace-out does.
class GlobalTrace {
 public:
  GlobalTrace() {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.set_sink(&sink_);
    tracer.enable();
    obs::SpanTracker::global().reset();
    obs::SpanTracker::global().enable();
  }
  ~GlobalTrace() {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.enable(false);
    tracer.set_sink(nullptr);
    tracer.clear();
    obs::SpanTracker::global().enable(false);
    obs::SpanTracker::global().reset();
  }
  GlobalTrace(const GlobalTrace&) = delete;
  GlobalTrace& operator=(const GlobalTrace&) = delete;

  const std::vector<obs::TraceEvent>& events() {
    return sink_.events();
  }

 private:
  obs::MemorySink sink_;
};

Exports world_exports() {
  testbed::TestbedConfig config;
  config.seed = 7;
  config.num_networks = 2;
  config.clients_per_network = 4;
  net::FaultPlan faults;
  faults.default_rule.drop = 0.02;
  config.fault_plan = faults;
  testbed::World world(config);
  GlobalTrace trace;
  world.register_edges();
  testbed::WorkloadDriver driver(world, 8);
  const util::SimTime t_end = util::from_seconds(60.0);
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    driver.drive(
        i, testbed::ClientBehavior::for_profile(world.profile_of(i)), 0,
        t_end);
  }
  world.simulator().run_until(t_end);
  Exports out;
  collect(world.metrics(), trace.events(), out);
  return out;
}

Exports scale_exports() {
  testbed::ScaleConfig config;
  config.seed = 42;
  config.num_clients = 4000;
  config.clients_per_edge = 500;
  config.duration_s = 4.0;
  config.drop_prob = 0.02;
  config.flooder_fraction = 0.01;
  config.bad_uploader_fraction = 0.2;
  config.initial_cache_fill = 0.0;  // misses until the first refill lands
  obs::MemorySink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.enable();
  testbed::ScaleWorld world(config);
  world.set_tracer(&tracer);
  world.enable_tracing(true);
  world.run();
  obs::Registry registry;
  world.publish_metrics(registry);
  Exports out;
  collect(registry, sink.events(), out);
  return out;
}

/// The deployment of tests/test_udp_runner.cpp, wired to one registry.
Exports udp_exports() {
  obs::Registry registry;
  ServerNode::Config sc;
  sc.id = 1;
  sc.seed = 777;
  sc.metrics = &registry;
  ServerNode server(sc);
  util::Xoshiro256 rng(7);
  server.seed_pool(rng.bytes(4096));
  EdgeNode::Config ec;
  ec.id = 100;
  ec.server = 1;
  ec.seed = 778;
  ec.num_clients = 1;
  ec.metrics = &registry;
  EdgeNode edge(ec);
  ClientNode::Config cc;
  cc.id = 1000;
  cc.edge = 100;
  cc.server = 1;
  cc.seed = 779;
  cc.metrics = &registry;
  ClientNode client(cc);

  net::UdpRunner runner;
  runner.bind_metrics(registry);
  runner.add_node(1, [&](net::NodeId f, util::BytesView d, util::SimTime t) {
    return server.on_packet(f, d, t);
  });
  runner.add_node(100, [&](net::NodeId f, util::BytesView d,
                           util::SimTime t) {
    return edge.on_packet(f, d, t);
  });
  runner.add_node(1000, [&](net::NodeId f, util::BytesView d,
                            util::SimTime t) {
    return client.on_packet(f, d, t);
  });

  GlobalTrace trace;
  runner.send_all(100, edge.begin_edge_reg(net::wall_clock_ns()));
  EXPECT_TRUE(runner.pump_until([&] { return edge.registered(); }, 3000));
  runner.send_all(1000, client.begin_init(net::wall_clock_ns()));
  EXPECT_TRUE(runner.pump_until([&] { return client.initialized(); }, 3000));
  runner.send_all(1000, client.begin_rereg(net::wall_clock_ns()));
  EXPECT_TRUE(
      runner.pump_until([&] { return client.reregistered(); }, 3000));
  for (const bool end_to_end : {false, true}) {
    bool delivered = false;
    runner.send_all(1000, client.request_entropy(
                              256, net::wall_clock_ns(),
                              [&](util::BytesView, util::SimTime) {
                                delivered = true;
                              },
                              end_to_end));
    EXPECT_TRUE(runner.pump_until([&] { return delivered; }, 3000));
  }
  runner.send_all(1000,
                  client.upload_entropy(rng.bytes(64), net::wall_clock_ns()));
  runner.pump_until([&] { return edge.stats().uploads_received > 0; }, 3000);
  Exports out;
  collect(registry, trace.events(), out);
  return out;
}

struct Paths {
  Exports world = world_exports();
  Exports scale = scale_exports();
  Exports udp = udp_exports();
};

const Paths& paths() {
  static const Paths runs;
  return runs;
}

TEST(ObsSchema, MetricFamiliesMatchTheGolden) {
  std::map<std::string, std::set<std::string>> all;
  for (const Exports* path : {&paths().world, &paths().scale, &paths().udp}) {
    for (const auto& [name, kinds] : path->families) {
      all[name].insert(kinds.begin(), kinds.end());
    }
  }
  std::string dump;
  for (const auto& [name, kinds] : all) {
    EXPECT_EQ(kinds.size(), 1u) << name << " is exported with two kinds";
    const auto golden = kGoldenFamilies.find(name);
    EXPECT_TRUE(golden != kGoldenFamilies.end() &&
                golden->second == *kinds.begin())
        << name << " (" << *kinds.begin() << ") is not in the golden list";
    dump += "    {\"" + name + "\", \"" + *kinds.begin() + "\"},\n";
  }
  for (const auto& [name, kind] : kGoldenFamilies) {
    EXPECT_TRUE(all.count(name) == 1)
        << name << " is in the golden list but no path exports it";
  }
  if (HasFailure()) ADD_FAILURE() << "exported families:\n" << dump;
}

TEST(ObsSchema, WorldAndScaleWorldExportTheJoinAndSloFamilies) {
  std::vector<std::string> shared;
  for (const auto& row : kJoinRows) shared.push_back(row.second);
  for (const obs::SloRule& rule : obs::default_slo_rules()) {
    shared.push_back(rule.metric);
    if (!rule.denom.empty()) shared.push_back(rule.denom);
  }
  for (const std::string& family : shared) {
    EXPECT_EQ(paths().world.families.count(family), 1u)
        << "World does not export " << family;
    EXPECT_EQ(paths().scale.families.count(family), 1u)
        << "ScaleWorld does not export " << family;
  }
}

TEST(ObsSchema, TraceEventsAreInTheGolden) {
  std::string dump;
  for (const Exports* path : {&paths().world, &paths().scale, &paths().udp}) {
    for (const Event& event : path->events) {
      EXPECT_EQ(kGoldenEvents.count(event), 1u)
          << "(" << event.first << ", " << event.second
          << ") is not in the golden list";
      dump += "    {\"" + event.first + "\", \"" + event.second + "\"},\n";
    }
  }
  if (HasFailure()) ADD_FAILURE() << "traced events:\n" << dump;
}

TEST(ObsSchema, WorldAndScaleWorldTraceTheJoinEvents) {
  for (const auto& [event, family] : kJoinRows) {
    // ScaleWorld has no end-to-end mode; its e2e row agrees at zero.
    if (event.second == "e2e_forward") continue;
    EXPECT_EQ(paths().world.events.count(event), 1u)
        << "World does not trace " << event.second << " on " << event.first;
    EXPECT_EQ(paths().scale.events.count(event), 1u)
        << "ScaleWorld does not trace " << event.second << " on "
        << event.first;
  }
}

}  // namespace
}  // namespace cadet
