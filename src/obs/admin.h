// Minimal blocking HTTP/1.0 admin listener: the live scrape/health surface.
//
//   GET /metrics   Prometheus exposition of the wired Registry
//   GET /healthz   SLO engine state as JSON (503 while any rule fires)
//   GET <path>     whatever add_source registered, e.g. /flight (the
//                  global tracer's ring as JSONL) or /shards
//
// One acceptor thread, one request per connection, Connection: close —
// deliberately the dumbest server that a curl/Prometheus scraper is happy
// with. Each accepted connection gets a 1 s receive and send timeout, so a
// peer that connects and sends nothing holds the acceptor (the scrapes
// queued behind it, and stop()) for about a second, not until it leaves.
// It binds 127.0.0.1 by default and speaks plaintext with no
// authentication: NEVER expose the port beyond the host (see
// docs/OBSERVABILITY.md for the security caveats). Off unless explicitly
// started, so deterministic sim tests never see it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace cadet::obs {

class SloEngine;

class AdminServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    int port = 0;  // 0 = ephemeral (port() reports the bound one)
  };

  /// `slo` may be null; /healthz then reports 404.
  AdminServer(Registry* registry, SloEngine* slo)
      : registry_(registry), slo_(slo) {}
  ~AdminServer();
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Register an extra GET endpoint (e.g. "/flight" or "/shards").
  /// The callback runs on the acceptor thread per request, so it must be
  /// thread-safe with respect to whatever it snapshots. Register before
  /// start(); the path must begin with '/'.
  void add_source(std::string path, std::string content_type,
                  std::function<std::string()> render) {
    sources_.push_back({std::move(path), std::move(content_type),
                        std::move(render)});
  }

  /// Bind + listen + spawn the acceptor thread. False on socket errors
  /// (message on stderr).
  bool start(const Options& options);
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  int port() const noexcept { return port_; }
  std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Source {
    std::string path;
    std::string content_type;
    std::function<std::string()> render;
  };

  void serve_loop();
  void handle_connection(int client_fd);

  std::vector<Source> sources_;
  Registry* registry_;
  SloEngine* slo_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace cadet::obs
