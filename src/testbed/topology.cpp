#include "testbed/topology.h"

#include <stdexcept>

#include "util/rng.h"

namespace cadet::testbed {

World::World(const TestbedConfig& config) : config_(config) {
  if (config_.profiles.size() < config_.num_networks) {
    throw std::invalid_argument("World: profiles.size() < num_networks");
  }
  if (config_.num_servers == 0) {
    throw std::invalid_argument("World: need at least one server");
  }
  metrics_ = std::make_shared<obs::Registry>();
  sim_.bind_metrics(*metrics_);
  transport_ = std::make_unique<net::SimTransport>(sim_, config_.seed ^ 0x7a);
  {
    const std::size_t nodes =
        config_.num_servers + config_.num_networks +
        config_.num_networks * config_.clients_per_network;
    // Link overrides: backbone edges<->servers plus the server mesh.
    const std::size_t links =
        2 * (config_.num_networks + config_.num_servers * config_.num_servers);
    transport_->reserve(nodes, links);
    sim_.reserve(16 * nodes);  // steady-state pending-event high-water mark
  }
  transport_->set_default_profile(config_.client_link);
  transport_->bind_metrics(*metrics_);
  if (config_.fault_plan) {
    faulty_ = std::make_unique<net::FaultyTransport>(*transport_, sim_,
                                                     *config_.fault_plan);
    faulty_->bind_metrics(*metrics_);
  }
  // Every node sends/binds through the fault layer when one exists.
  net::Transport& wire =
      faulty_ ? static_cast<net::Transport&>(*faulty_) : *transport_;

  // ---- server tier ----
  for (std::size_t j = 0; j < config_.num_servers; ++j) {
    ServerNode::Config server_config;
    server_config.id = server_id(j);
    server_config.seed = config_.seed * 2654435761u + 1 + 17 * j;
    server_config.penalty = config_.penalty;
    server_config.metrics = metrics_.get();
    for (std::size_t peer = 0; peer < config_.num_servers; ++peer) {
      if (peer != j) server_config.peers.push_back(server_id(peer));
    }
    auto server = std::make_unique<ServerNode>(server_config);
    auto sim_node = std::make_unique<SimNode>(
        sim_, wire, sim::kServerCpu, server_config.id, server->cost(),
        "server");
    ServerNode* raw = server.get();
    sim_node->bind([raw](net::NodeId from, util::BytesView data,
                         util::SimTime now) {
      return raw->on_packet(from, data, now);
    });
    if (config_.server_seed_bytes > 0) {
      util::Xoshiro256 seeder(config_.seed ^ 0x5eedULL ^ (j * 977));
      server->seed_pool(seeder.bytes(config_.server_seed_bytes));
    }
    // Server<->server links ride the backbone.
    for (std::size_t peer = 0; peer < j; ++peer) {
      transport_->set_link_profile(server_id(j), server_id(peer),
                                   config_.backbone_link);
      transport_->set_link_profile(server_id(peer), server_id(j),
                                   config_.backbone_link);
    }
    servers_.push_back(std::move(server));
    server_sims_.push_back(std::move(sim_node));
  }

  const std::size_t total_clients =
      config_.num_networks * config_.clients_per_network;

  // ---- edges ----
  if (config_.use_edge) {
    for (std::size_t k = 0; k < config_.num_networks; ++k) {
      const net::NodeId home_server = server_id(k % config_.num_servers);
      EdgeNode::Config edge_config;
      edge_config.id = edge_id(k);
      edge_config.server = home_server;
      edge_config.seed = config_.seed * 40503u + 7 * k + 3;
      edge_config.num_clients = config_.clients_per_network;
      edge_config.penalty = config_.penalty;
      edge_config.upload_forward_bytes = config_.upload_forward_bytes;
      edge_config.refill_policy = config_.refill_policy;
      edge_config.inject_timing_entropy = config_.inject_timing_entropy;
      edge_config.min_contributors = config_.min_contributors;
      edge_config.heavy_denial_enabled = config_.heavy_denial_enabled;
      edge_config.metrics = metrics_.get();
      // Timer work is routed through the node's own CPU queue so retries
      // pay processing cost like any other engine action.
      edge_config.timer = [this, k](util::SimTime delay, EngineWork work) {
        sim_.schedule(delay, [this, k, work = std::move(work)]() {
          edge_sims_[k]->post(work);
        });
      };
      auto edge = std::make_unique<EdgeNode>(edge_config);
      auto sim_node = std::make_unique<SimNode>(
          sim_, wire, sim::kEdgeCpu, edge_config.id, edge->cost(), "edge");
      EdgeNode* raw = edge.get();
      sim_node->bind([raw](net::NodeId from, util::BytesView data,
                           util::SimTime now) {
        return raw->on_packet(from, data, now);
      });
      // Edge <-> server rides the backbone profile.
      transport_->set_link_profile(edge_config.id, home_server,
                                   config_.backbone_link);
      transport_->set_link_profile(home_server, edge_config.id,
                                   config_.backbone_link);
      edges_.push_back(std::move(edge));
      edge_sims_.push_back(std::move(sim_node));
    }
  }

  // ---- clients ----
  for (std::size_t i = 0; i < total_clients; ++i) {
    const std::size_t network = i / config_.clients_per_network;
    const net::NodeId home_server =
        server_id(network % config_.num_servers);
    ClientNode::Config client_config;
    client_config.id = client_id(i);
    client_config.server = home_server;
    client_config.edge =
        config_.use_edge ? edge_id(network) : home_server;
    client_config.seed = config_.seed * 69069u + 13 * i + 5;
    client_config.metrics = metrics_.get();
    client_config.timer = [this, i](util::SimTime delay, EngineWork work) {
      sim_.schedule(delay, [this, i, work = std::move(work)]() {
        client_sims_[i]->post(work);
      });
    };
    auto client = std::make_unique<ClientNode>(client_config);
    auto sim_node = std::make_unique<SimNode>(
        sim_, wire, sim::kClientCpu, client_config.id, client->cost(),
        "client");
    ClientNode* raw = client.get();
    sim_node->bind([raw](net::NodeId from, util::BytesView data,
                         util::SimTime now) {
      return raw->on_packet(from, data, now);
    });
    // Client <-> server traffic crosses LAN + backbone whether or not a
    // CADET edge exists (registration goes direct; in no-edge mode data
    // does too — the IP gateway still forwards it).
    sim::LatencyProfile direct = config_.backbone_link;
    direct.base += config_.client_link.base;
    transport_->set_link_profile(client_config.id, home_server, direct);
    transport_->set_link_profile(home_server, client_config.id, direct);
    clients_.push_back(std::move(client));
    client_sims_.push_back(std::move(sim_node));
  }

}

void World::start_pool_exchange(double period_s, std::size_t bytes,
                                double until_s) {
  if (servers_.size() < 2) return;
  schedule_pool_exchange(period_s, bytes, until_s);
}

void World::schedule_pool_exchange(double period_s, std::size_t bytes,
                                   double until_s) {
  // Ring exchange: every period, each server ships a chunk of its oldest
  // pool bytes to the next server (Fig. 2 steps 10-11), mixing data from
  // distant client populations together.
  const util::SimTime next = sim_.now() + util::from_seconds(period_s);
  if (util::to_seconds(next) > until_s) return;
  sim_.schedule_at(next, [this, period_s, bytes, until_s]() {
    for (std::size_t j = 0; j < servers_.size(); ++j) {
      ServerNode* server = servers_[j].get();
      const net::NodeId peer = server_id((j + 1) % servers_.size());
      server_sims_[j]->post([server, peer, bytes](util::SimTime) {
        return server->begin_pool_exchange(peer, bytes);
      });
    }
    schedule_pool_exchange(period_s, bytes, until_s);
  });
}

void World::register_edges() {
  if (!config_.use_edge) return;
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    EdgeNode* edge = edges_[k].get();
    edge_sims_[k]->post(
        [edge](util::SimTime now) { return edge->begin_edge_reg(now); });
  }
  sim_.run();
  for (const auto& edge : edges_) {
    if (!edge->registered()) {
      throw std::runtime_error("World: edge registration failed");
    }
  }
}

void World::register_clients() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ClientNode* client = clients_[i].get();
    client_sims_[i]->post(
        [client](util::SimTime now) { return client->begin_init(now); });
  }
  sim_.run();
  if (config_.use_edge) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      ClientNode* client = clients_[i].get();
      client_sims_[i]->post(
          [client](util::SimTime now) { return client->begin_rereg(now); });
    }
    sim_.run();
  }
  for (const auto& client : clients_) {
    if (!client->initialized()) {
      throw std::runtime_error("World: client initialization failed");
    }
    if (config_.use_edge && !client->reregistered()) {
      throw std::runtime_error("World: client reregistration failed");
    }
  }
}

}  // namespace cadet::testbed
