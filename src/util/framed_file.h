// CRC-framed records and atomic file replacement: the two on-disk
// primitives shared by the durable op-log (src/util/op_log.h), the relay
// `.pub` window publishes (src/relay/publish.h) and the TS tally files.
//
// A frame is [u32 len][u32 crc32(payload)][payload], both integers little
// endian. The decoder reports failure instead of throwing, so each format
// raises its own error type (op_log_error, publish_error).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace tormet::util {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `data`. Exposed so tests
/// can frame valid records and fuzzers can target the checksum.
[[nodiscard]] std::uint32_t crc32(byte_view data);

/// Appends one [len][crc][payload] frame to `out`.
void append_frame(byte_buffer& out, byte_view payload);

/// Decodes the frame starting at `pos`: on success sets `payload` (a view
/// into `data`), advances `pos` past the frame and returns nullptr. On a
/// truncated, oversized (over 64 MiB) or CRC-mismatched frame returns a
/// description of the fault and leaves `pos` and `payload` untouched.
[[nodiscard]] const char* read_frame(byte_view data, std::size_t& pos,
                                     byte_view& payload);

/// Replaces `path` with `content` atomically (write `path`.tmp, then rename
/// it over `path`): a reader sees the old file or the new one, never a
/// torn mix. With `sync` the temp file's bytes are fsync'd before the
/// rename (the directory entry is not). Throws std::system_error on any
/// I/O failure.
void write_file_atomic(const std::string& path, byte_view content,
                       bool sync = false);

}  // namespace tormet::util
