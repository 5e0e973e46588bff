// Event streaming over TCP: the same trace stream (header + records) a
// trace file holds, carried over a socket so a data collector can ingest
// live events from a separate feeder process. The receiving side listens,
// accepts exactly one feeder, and decodes incrementally with the bounded
// event_decoder; the feeding side connects (with retry, so start order
// does not matter) and streams a trace file or an in-memory event batch.
// End of stream is the feeder closing its side at a record boundary.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "src/tor/event_codec.h"
#include "src/tor/trace_file.h"

namespace tormet::tor {

/// Receiving side of one event socket. Bind/listen happens in the
/// constructor (so a feeder's connect retry can land even before the first
/// next() call); accept happens lazily on the first next().
class event_socket_source {
 public:
  /// Listens on 127.0.0.1:`port`. Throws net::transport-style
  /// precondition_error when the port cannot be bound. `timeout_ms` bounds
  /// the wait for the feeder to connect and for each recv (0 = wait
  /// forever); on expiry next() throws, so an ingesting node honors its
  /// round deadline instead of hanging when no feeder ever shows up.
  explicit event_socket_source(std::uint16_t port, int timeout_ms = 0);
  ~event_socket_source();
  event_socket_source(const event_socket_source&) = delete;
  event_socket_source& operator=(const event_socket_source&) = delete;

  /// Decodes the next event into `out` in place (see tor::decode_event)
  /// and returns true, or returns false once the feeder closed the stream
  /// cleanly. Throws net::wire_error on corrupt input, a stream that ends
  /// mid-record, a recv failure or a stall past the timeout; `out` must
  /// then not be delivered.
  [[nodiscard]] bool next(event& out);
  /// Next event, or nullopt once the feeder closed the stream cleanly
  /// (wraps the in-place form).
  [[nodiscard]] std::optional<event> next();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  static constexpr std::size_t k_chunk_bytes = 64 << 10;

  int listen_fd_ = -1;
  int conn_fd_ = -1;
  std::uint16_t port_ = 0;
  int timeout_ms_ = 0;
  event_decoder decoder_;
  bool eof_ = false;
};

/// Feeder: connects to host:port (retrying until `connect_timeout_ms`
/// elapses) and streams `events` as one trace stream, then closes. Returns
/// the number of events sent. Throws on connect timeout or send failure.
std::size_t stream_events_to_socket(const std::string& host, std::uint16_t port,
                                    std::span<const event> events,
                                    int connect_timeout_ms = 10'000);

/// Feeder from a trace file: streams the file's events over the socket
/// (re-encoding through the codec, which also validates the file).
std::size_t stream_trace_to_socket(const std::string& host, std::uint16_t port,
                                   const std::string& trace_path,
                                   int connect_timeout_ms = 10'000);

}  // namespace tormet::tor
