// Event-trace files: streaming reader/writer over the event_codec record
// format. A trace file is one trace stream (header + records) whose events
// are non-decreasing in sim time — the writer enforces the ordering, the
// reader validates it, and replay_events() can pace delivery against the
// timestamps (sim-time pacing). Reading is incremental with a bounded
// buffer (fixed-size file chunks feeding an event_decoder), so multi-GB
// traces never need to fit in memory.
#pragma once

#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "src/tor/event_codec.h"

namespace tormet::tor {

/// Canonical per-DC trace file name inside a trace directory: the
/// orchestration layer maps DC index k to "<dir>/dc-<k>.trace".
[[nodiscard]] std::string trace_file_name(std::size_t dc_index);

class trace_writer {
 public:
  /// Opens `path` (truncating) and writes the stream header. Throws
  /// precondition_error when the file cannot be created.
  explicit trace_writer(const std::string& path);
  ~trace_writer();
  trace_writer(const trace_writer&) = delete;
  trace_writer& operator=(const trace_writer&) = delete;

  /// Appends one record. Events must arrive in non-decreasing sim time
  /// (throws precondition_error otherwise — trace order is part of the
  /// format contract).
  void write(const event& ev);

  /// Flushes and closes; throws precondition_error on a short write. The
  /// destructor closes silently for the unwind path.
  void close();

  [[nodiscard]] std::size_t events_written() const noexcept { return count_; }

 private:
  void flush_buffer();

  std::FILE* file_ = nullptr;
  std::string path_;
  byte_buffer buf_;
  std::size_t count_ = 0;
  std::int64_t last_seconds_ = 0;
};

class trace_reader {
 public:
  /// Opens `path`. Throws precondition_error when the file cannot be read.
  explicit trace_reader(const std::string& path);
  ~trace_reader();
  trace_reader(const trace_reader&) = delete;
  trace_reader& operator=(const trace_reader&) = delete;

  /// Decodes the next event into `out` in place (see tor::decode_event)
  /// and returns true, or returns false at clean end of stream. Throws
  /// net::wire_error on corrupt records, a timestamp regression, a file
  /// that ends inside a record (truncation), or a read error; `out` must
  /// then not be delivered.
  [[nodiscard]] bool next(event& out);
  /// Next event, or nullopt at clean end of stream (wraps the in-place
  /// form).
  [[nodiscard]] std::optional<event> next();

  [[nodiscard]] std::size_t events_read() const noexcept { return count_; }

 private:
  static constexpr std::size_t k_chunk_bytes = 64 << 10;

  std::FILE* file_ = nullptr;
  event_decoder decoder_;
  bool eof_ = false;
  std::size_t count_ = 0;
  bool saw_event_ = false;
  std::int64_t last_seconds_ = 0;
};

/// Sim-time pacing for replay: `pace` is wall-clock seconds slept per
/// simulated second (0 = replay as fast as possible). Pacing follows the
/// gap to the trace's first event, so a trace starting at hour 12 does not
/// stall for 12 simulated hours.
struct replay_options {
  double pace = 0.0;
};

/// Streams every event of `reader` into `sink`, pacing per `options`.
/// Returns the number of events delivered.
std::size_t replay_events(trace_reader& reader,
                          const std::function<void(const event&)>& sink,
                          const replay_options& options = {});

}  // namespace tormet::tor
