// AdminServer: ephemeral bind, the endpoints (status codes + body shape),
// 404/405 handling, null-wiring behavior, scrapers that hang up or go
// idle, and clean stop().
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>

#include "obs/admin.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace cadet::obs {
namespace {

// Connected loopback socket with `request` sent, or -1.
int send_request(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  return fd;
}

// Blocking one-shot HTTP exchange against 127.0.0.1:port. Returns the full
// response (headers + body); empty string on connect failure. Each recv
// gives up after `timeout_s` when it is set.
std::string http_request(int port, const std::string& request,
                         int timeout_s = 0) {
  const int fd = send_request(port, request);
  if (fd < 0) return "";
  if (timeout_s > 0) {
    const timeval timeout{timeout_s, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(int port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

struct AdminFixture {
  Registry registry;
  SloEngine slo{&registry};
  AdminServer server{&registry, &slo};

  bool start() { return server.start(AdminServer::Options{}); }
};

TEST(AdminServer, BindsEphemeralPort) {
  AdminFixture f;
  ASSERT_TRUE(f.start());
  EXPECT_TRUE(f.server.running());
  EXPECT_GT(f.server.port(), 0);
  f.server.stop();
  EXPECT_FALSE(f.server.running());
}

TEST(AdminServer, ServesPrometheusMetrics) {
  AdminFixture f;
  f.registry.counter("cadet_demo_hits").inc(3);
  f.registry.counter("cadet_demo_packets").inc(7);
  ASSERT_TRUE(f.start());
  const std::string response = http_get(f.server.port(), "/metrics");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_NE(response.find("cadet_demo_hits_total 3"), std::string::npos);
  EXPECT_NE(response.find("cadet_demo_packets_total 7"), std::string::npos);
  EXPECT_GE(f.server.requests_served(), 1u);
  f.server.stop();
}

TEST(AdminServer, HealthzFlips503WhileFiring) {
  AdminFixture f;
  Gauge& g = f.registry.gauge("queue");
  f.slo.add_rule(*parse_slo_rule("gauge:stall:queue:0:10:1"));
  ASSERT_TRUE(f.start());

  g.set(0);
  f.slo.tick(1.0);
  std::string response = http_get(f.server.port(), "/healthz");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);

  g.set(100);
  f.slo.tick(2.0);
  response = http_get(f.server.port(), "/healthz");
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"alerting\""), std::string::npos);
  f.server.stop();
}

// /flight as cadet_sim and udp_live wire it: a source serving a tracer's
// ring of the newest events.
TEST(AdminServer, FlightEndpointReturnsJsonl) {
  AdminFixture f;
  Tracer tracer;
  tracer.enable();
  TraceEvent e;
  e.ts = 1000;
  e.name = "boot";
  e.tier = "test";
  e.node = 9;
  tracer.record(e);
  f.server.add_source("/flight", "application/x-ndjson",
                      [&tracer] { return tracer.recent_jsonl(); });
  ASSERT_TRUE(f.start());
  const std::string response = http_get(f.server.port(), "/flight");
  EXPECT_NE(response.find("200"), std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  const std::size_t eol = body.find('\n');
  const auto parsed =
      parse_json_line(eol == std::string::npos ? body : body.substr(0, eol));
  ASSERT_TRUE(parsed.has_value()) << body;
  EXPECT_EQ(parsed->name, "boot");
  EXPECT_EQ(parsed->node, 9u);
  f.server.stop();
}

TEST(AdminServer, UnknownPathIs404AndNonGetIs405) {
  AdminFixture f;
  ASSERT_TRUE(f.start());
  EXPECT_NE(http_get(f.server.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(http_request(f.server.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("405"),
            std::string::npos);
  f.server.stop();
}

TEST(AdminServer, NullWiringReports404) {
  Registry registry;
  AdminServer server(&registry, nullptr);
  ASSERT_TRUE(server.start(AdminServer::Options{}));
  EXPECT_NE(http_get(server.port(), "/healthz").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/flight").find("404"),
            std::string::npos);
  // /metrics still works: the Registry is wired.
  EXPECT_NE(http_get(server.port(), "/metrics").find("200"),
            std::string::npos);
  server.stop();
}

TEST(AdminServer, CustomSourceServesRenderedContent) {
  AdminFixture f;
  int calls = 0;
  f.server.add_source("/shards", "application/json", [&calls] {
    ++calls;
    return std::string("{\"shards\":[1,2,3]}");
  });
  ASSERT_TRUE(f.start());
  const std::string response = http_get(f.server.port(), "/shards");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("{\"shards\":[1,2,3]}"), std::string::npos);
  EXPECT_EQ(calls, 1);
  // The 404 listing advertises the registered path.
  EXPECT_NE(http_get(f.server.port(), "/nope").find("/shards"),
            std::string::npos);
  f.server.stop();
}

// A scraper that resets its connection while the server prepares a
// multi-megabyte body must cost that request, not the process: without
// MSG_NOSIGNAL the send after the reset raises SIGPIPE and kills it.
TEST(AdminServer, ScraperResetDoesNotKillTheProcess) {
  AdminFixture f;
  std::atomic<int> rendering{0};
  std::atomic<int> reset{0};
  f.server.add_source("/big", "text/plain", [&rendering, &reset] {
    const int request = rendering.fetch_add(1) + 1;
    while (reset.load() < request) std::this_thread::yield();
    return std::string(std::size_t{4} << 20, 'x');
  });
  ASSERT_TRUE(f.start());
  for (int i = 1; i <= 10; ++i) {
    const int fd = send_request(f.server.port(), "GET /big HTTP/1.0\r\n\r\n");
    ASSERT_GE(fd, 0);
    while (rendering.load() < i) std::this_thread::yield();
    const linger abort_on_close{1, 0};  // close() sends RST
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
                 sizeof abort_on_close);
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reset.store(i);
  }
  EXPECT_NE(http_get(f.server.port(), "/metrics").find("200 OK"),
            std::string::npos);
  f.server.stop();
}

// A peer that connects and sends nothing (a port scanner, a half-open
// load-balancer probe) must not hold the one acceptor thread: a scrape
// behind it is answered, and stop() returns, each within 2 s. The client
// timeout and the async stop() turn a server that waits on the idle peer
// forever into a failure instead of a hung test.
TEST(AdminServer, IdlePeerDoesNotStallScrapes) {
  AdminFixture f;
  f.registry.counter("cadet_demo_hits").inc(3);
  ASSERT_TRUE(f.start());
  const int idle = send_request(f.server.port(), "");
  ASSERT_GE(idle, 0);

  const auto scrape_start = std::chrono::steady_clock::now();
  const std::string response = http_request(
      f.server.port(), "GET /metrics HTTP/1.0\r\n\r\n", /*timeout_s=*/2);
  const auto scrape_time = std::chrono::steady_clock::now() - scrape_start;
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("cadet_demo_hits_total 3"), std::string::npos);
  EXPECT_LT(scrape_time, std::chrono::seconds(2));

  // A second idle peer, taken by the acceptor before stop() is called.
  const int idle_at_stop = send_request(f.server.port(), "");
  ASSERT_GE(idle_at_stop, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto stopped = std::async(std::launch::async, [&f] { f.server.stop(); });
  const bool stopped_in_time =
      stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  ::close(idle);
  ::close(idle_at_stop);  // lets a stuck acceptor thread join
  stopped.wait();
  EXPECT_TRUE(stopped_in_time);
}

TEST(AdminServer, StopIsIdempotentAndRestartable) {
  AdminFixture f;
  ASSERT_TRUE(f.start());
  const int first_port = f.server.port();
  f.server.stop();
  f.server.stop();  // no-op
  ASSERT_TRUE(f.start());
  EXPECT_GT(f.server.port(), 0);
  (void)first_port;
  f.server.stop();
}

}  // namespace
}  // namespace cadet::obs
