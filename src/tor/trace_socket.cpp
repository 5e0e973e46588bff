#include "src/tor/trace_socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/util/check.h"

namespace tormet::tor {

namespace {

[[nodiscard]] sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

void send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw precondition_error{"event socket: send failed"};
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Connects to host:port, retrying until the deadline (feeder and receiver
/// may start in either order).
[[nodiscard]] int connect_with_retry(const std::string& host,
                                     std::uint16_t port, int timeout_ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::milliseconds{timeout_ms};
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    expects(fd >= 0, "event socket: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw precondition_error{"event socket: bad host " + host};
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      return fd;
    }
    ::close(fd);
    if (clock::now() >= deadline) {
      throw precondition_error{"event socket: connect to " + host + ":" +
                               std::to_string(port) + " timed out"};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }
}

}  // namespace

event_socket_source::event_socket_source(std::uint16_t port, int timeout_ms)
    : port_{port}, timeout_ms_{timeout_ms} {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  expects(listen_fd_ >= 0, "event socket: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 1) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw precondition_error{"event socket: cannot listen on port " +
                             std::to_string(port)};
  }
}

event_socket_source::~event_socket_source() {
  if (conn_fd_ >= 0) ::close(conn_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::optional<event> event_socket_source::next() {
  if (event ev; next(ev)) return ev;
  return std::nullopt;
}

bool event_socket_source::next(event& out) {
  if (conn_fd_ < 0) {
    if (timeout_ms_ > 0) {
      pollfd waiter{listen_fd_, POLLIN, 0};
      const int ready = ::poll(&waiter, 1, timeout_ms_);
      if (ready <= 0) {
        throw precondition_error{
            "event socket: no feeder connected to port " +
            std::to_string(port_) + " within " + std::to_string(timeout_ms_) +
            " ms"};
      }
    }
    conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    expects(conn_fd_ >= 0, "event socket: accept failed");
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (timeout_ms_ > 0) {
      timeval tv{};
      tv.tv_sec = timeout_ms_ / 1000;
      tv.tv_usec = (timeout_ms_ % 1000) * 1000;
      ::setsockopt(conn_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
  }
  for (;;) {
    if (decoder_.next(out)) return true;
    if (eof_) {
      if (!decoder_.at_record_boundary()) {
        throw net::wire_error{"event socket: stream ended mid-record"};
      }
      return false;
    }
    std::uint8_t chunk[k_chunk_bytes];
    const ssize_t n = ::recv(conn_fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw net::wire_error{"event socket: feeder stalled beyond " +
                              std::to_string(timeout_ms_) + " ms"};
      }
      throw net::wire_error{"event socket: recv failed"};
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    decoder_.feed(byte_view{chunk, static_cast<std::size_t>(n)});
  }
}

std::size_t stream_events_to_socket(const std::string& host, std::uint16_t port,
                                    std::span<const event> events,
                                    int connect_timeout_ms) {
  const int fd = connect_with_retry(host, port, connect_timeout_ms);
  try {
    byte_buffer buf;
    append_trace_header(buf);
    for (const event& ev : events) {
      append_event_record(buf, ev);
      if (buf.size() >= (256 << 10)) {
        send_all(fd, buf.data(), buf.size());
        buf.clear();
      }
    }
    send_all(fd, buf.data(), buf.size());
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return events.size();
}

std::size_t stream_trace_to_socket(const std::string& host, std::uint16_t port,
                                   const std::string& trace_path,
                                   int connect_timeout_ms) {
  trace_reader reader{trace_path};
  const int fd = connect_with_retry(host, port, connect_timeout_ms);
  std::size_t sent = 0;
  try {
    byte_buffer buf;
    append_trace_header(buf);
    while (const std::optional<event> ev = reader.next()) {
      append_event_record(buf, *ev);
      ++sent;
      if (buf.size() >= (256 << 10)) {
        send_all(fd, buf.data(), buf.size());
        buf.clear();
      }
    }
    send_all(fd, buf.data(), buf.size());
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return sent;
}

}  // namespace tormet::tor
