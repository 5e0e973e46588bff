// Write-ahead op-log + periodic checkpoint for crash-recoverable rounds
// (the PRISM OpLog shape): a bounded append-only file of CRC-framed records
// beside an atomically-replaced checkpoint snapshot. A process appends one
// record per durable state transition; on restart it replays
// checkpoint + suffix records to its pre-crash state and resumes the
// schedule. Payloads are opaque bytes — the protocol layer owns their
// encoding; this module owns framing, integrity, and atomicity.
//
// On-disk layout under the store directory:
//
//   oplog       "tormet-oplog-v1\n" then records of [u32 len][u32 crc][payload]
//   checkpoint  "tormet-ckpt-v1\n" then one [u32 len][u32 crc][payload] record
//
// Framing and the checkpoint's tmp-file + rename replacement come from
// src/util/framed_file.h. A checkpoint write is fsync'd and truncates
// the op-log back to its header, which is what keeps the log bounded.
// Loading is strict: any truncated, oversized, or CRC-mismatched input
// throws op_log_error — corrupt durable state must fail loudly, never
// silently misrecover.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/framed_file.h"

namespace tormet::util {

/// Structured recovery failure: the op-log or checkpoint on disk is
/// truncated, corrupted, or otherwise unreadable.
class op_log_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The recovered durable state: the last checkpoint snapshot (empty if no
/// checkpoint was ever written) plus every op-log record appended after it,
/// in append order.
struct durable_state {
  bool has_checkpoint = false;
  byte_buffer checkpoint;
  std::vector<byte_buffer> records;
};

class durable_store {
 public:
  /// Opens (creating the directory if needed) and replays the store at
  /// `dir`. Throws op_log_error on any malformed on-disk state.
  explicit durable_store(std::string dir);
  ~durable_store();
  durable_store(const durable_store&) = delete;
  durable_store& operator=(const durable_store&) = delete;

  /// State recovered at open time (checkpoint + replayed records).
  [[nodiscard]] const durable_state& recovered() const noexcept {
    return recovered_;
  }

  /// Appends one CRC-framed record and flushes it to the OS, so the record
  /// survives a process crash (_Exit / SIGKILL).
  void append(byte_view record);

  /// Atomically replaces the checkpoint with `snapshot` and truncates the
  /// op-log back to its header.
  void write_checkpoint(byte_view snapshot);

  /// Records appended since the last checkpoint (replayed + live).
  [[nodiscard]] std::size_t log_records() const noexcept {
    return log_records_;
  }

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  void open_log_for_append(bool truncate);

  std::string dir_;
  durable_state recovered_;
  std::size_t log_records_ = 0;
  int log_fd_ = -1;
};

}  // namespace tormet::util
