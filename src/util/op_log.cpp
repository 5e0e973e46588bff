#include "src/util/op_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "src/util/logging.h"

namespace tormet::util {
namespace {

constexpr std::string_view k_log_magic = "tormet-oplog-v1\n";
constexpr std::string_view k_ckpt_magic = "tormet-ckpt-v1\n";

[[nodiscard]] std::string log_path(const std::string& dir) {
  return dir + "/oplog";
}
[[nodiscard]] std::string ckpt_path(const std::string& dir) {
  return dir + "/checkpoint";
}

/// Reads the whole file, or nullopt when it does not exist. Other I/O
/// failures throw op_log_error.
[[nodiscard]] std::optional<byte_buffer> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in.is_open()) {
    if (!std::filesystem::exists(path)) return std::nullopt;
    throw op_log_error{"cannot open " + path};
  }
  byte_buffer data{std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{}};
  if (in.bad()) throw op_log_error{"read failed for " + path};
  return data;
}

/// Parses one frame at `off`, advancing it. Strict: a partial frame,
/// oversized length, or checksum mismatch throws.
[[nodiscard]] byte_buffer parse_record(const byte_buffer& data, std::size_t& off,
                                       const std::string& path) {
  byte_view payload;
  if (const char* fault = read_frame(data, off, payload)) {
    throw op_log_error{std::string{fault} + " in " + path + " at offset " +
                       std::to_string(off)};
  }
  return byte_buffer{payload.begin(), payload.end()};
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw op_log_error{"write failed for " + path + ": " +
                         std::strerror(errno)};
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

durable_store::durable_store(std::string dir) : dir_{std::move(dir)} {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) throw op_log_error{"cannot create durable dir " + dir_};

  if (const auto ckpt = read_file(ckpt_path(dir_))) {
    const byte_buffer& data = *ckpt;
    if (data.size() < k_ckpt_magic.size() ||
        !std::equal(k_ckpt_magic.begin(), k_ckpt_magic.end(), data.begin())) {
      throw op_log_error{"bad checkpoint magic in " + ckpt_path(dir_)};
    }
    std::size_t off = k_ckpt_magic.size();
    recovered_.checkpoint = parse_record(data, off, ckpt_path(dir_));
    if (off != data.size()) {
      throw op_log_error{"trailing bytes after checkpoint in " + ckpt_path(dir_)};
    }
    recovered_.has_checkpoint = true;
  }

  if (const auto log = read_file(log_path(dir_))) {
    const byte_buffer& data = *log;
    if (data.size() < k_log_magic.size() ||
        !std::equal(k_log_magic.begin(), k_log_magic.end(), data.begin())) {
      throw op_log_error{"bad op-log magic in " + log_path(dir_)};
    }
    std::size_t off = k_log_magic.size();
    while (off < data.size()) {
      recovered_.records.push_back(parse_record(data, off, log_path(dir_)));
    }
    log_records_ = recovered_.records.size();
    open_log_for_append(/*truncate=*/false);
  } else {
    open_log_for_append(/*truncate=*/true);
  }
}

durable_store::~durable_store() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

void durable_store::open_log_for_append(bool truncate) {
  if (log_fd_ >= 0) ::close(log_fd_);
  const std::string path = log_path(dir_);
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  log_fd_ = ::open(path.c_str(), flags, 0644);
  if (log_fd_ < 0) {
    throw op_log_error{"cannot open " + path + ": " + std::strerror(errno)};
  }
  if (truncate) {
    write_all(log_fd_, reinterpret_cast<const std::uint8_t*>(k_log_magic.data()),
              k_log_magic.size(), path);
    log_records_ = 0;
  }
}

void durable_store::append(byte_view record) {
  byte_buffer frame;
  frame.reserve(8 + record.size());
  append_frame(frame, record);
  // One write() call per record: the frame reaches the OS atomically enough
  // for the process-crash model (_Exit / SIGKILL keep kernel buffers).
  write_all(log_fd_, frame.data(), frame.size(), log_path(dir_));
  ++log_records_;
}

void durable_store::write_checkpoint(byte_view snapshot) {
  byte_buffer file{k_ckpt_magic.begin(), k_ckpt_magic.end()};
  append_frame(file, snapshot);
  write_file_atomic(ckpt_path(dir_), file, /*sync=*/true);
  // The snapshot supersedes every logged record: truncate the log back to
  // its header so the store stays bounded.
  open_log_for_append(/*truncate=*/true);
}

}  // namespace tormet::util
