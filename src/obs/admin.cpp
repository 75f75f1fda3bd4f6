#include "obs/admin.h"

#include <cstdio>
#include <cstring>

#include "obs/export.h"
#include "obs/slo.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace cadet::obs {

#ifndef _WIN32

namespace {

// Longest a connection may stall one recv or send. The one acceptor thread
// serves connections in turn, so a peer that connects and sends nothing
// (a port scanner, a half-open probe) would otherwise hold every later
// scrape, and stop()'s join, for as long as it stays connected.
constexpr timeval kConnectionTimeout{1, 0};

// MSG_NOSIGNAL: a scraper that resets the connection mid-response must
// cost this request an EPIPE, not the whole process a SIGPIPE.
void send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void send_response(int fd, const char* status, const char* content_type,
                   const std::string& body) {
  char header[256];
  const int n = std::snprintf(
      header, sizeof(header),
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      status, content_type, body.size());
  send_all(fd, header, static_cast<std::size_t>(n));
  send_all(fd, body.data(), body.size());
}

}  // namespace

AdminServer::~AdminServer() { stop(); }

bool AdminServer::start(const Options& options) {
  if (running()) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::perror("admin: socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    std::fprintf(stderr, "admin: bad bind address %s\n",
                 options.bind_address.c_str());
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 8) < 0) {
    std::perror("admin: bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void AdminServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Shutting the listen socket down unblocks the accept() in serve_loop.
  // The fd must stay valid (and listen_fd_ unwritten) until the acceptor
  // thread has joined: closing it here would race the accept() read and
  // could hand a recycled fd number to the loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AdminServer::serve_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      continue;
    }
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &kConnectionTimeout,
                 sizeof(kConnectionTimeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &kConnectionTimeout,
                 sizeof(kConnectionTimeout));
    handle_connection(client);
    ::close(client);
  }
}

void AdminServer::handle_connection(int client_fd) {
  char request[1024];
  const ssize_t n = ::recv(client_fd, request, sizeof(request) - 1, 0);
  if (n <= 0) return;
  request[n] = '\0';
  requests_.fetch_add(1, std::memory_order_relaxed);

  // "GET <path> HTTP/1.x" — we only care about the path.
  char method[8] = {};
  char path[256] = {};
  if (std::sscanf(request, "%7s %255s", method, path) != 2 ||
      std::strcmp(method, "GET") != 0) {
    send_response(client_fd, "405 Method Not Allowed", "text/plain",
                  "only GET is supported\n");
    return;
  }

  if (std::strcmp(path, "/metrics") == 0) {
    send_response(client_fd, "200 OK", "text/plain; version=0.0.4",
                  to_prometheus(*registry_));
  } else if (std::strcmp(path, "/healthz") == 0) {
    if (slo_ == nullptr) {
      send_response(client_fd, "404 Not Found", "text/plain",
                    "no SLO engine wired\n");
      return;
    }
    send_response(client_fd,
                  slo_->any_firing() ? "503 Service Unavailable" : "200 OK",
                  "application/json", slo_->healthz_json());
  } else {
    for (const Source& source : sources_) {
      if (source.path == path) {
        send_response(client_fd, "200 OK", source.content_type.c_str(),
                      source.render ? source.render() : std::string());
        return;
      }
    }
    std::string paths = "paths: /metrics /healthz";
    for (const Source& source : sources_) {
      paths += ' ';
      paths += source.path;
    }
    paths += '\n';
    send_response(client_fd, "404 Not Found", "text/plain", paths);
  }
}

#else  // _WIN32: the admin plane is POSIX-only; start() reports failure.

AdminServer::~AdminServer() { stop(); }
bool AdminServer::start(const Options&) {
  std::fprintf(stderr, "admin: not supported on this platform\n");
  return false;
}
void AdminServer::stop() {}
void AdminServer::serve_loop() {}
void AdminServer::handle_connection(int) {}

#endif

}  // namespace cadet::obs
