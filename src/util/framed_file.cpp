#include "src/util/framed_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <system_error>

namespace tormet::util {
namespace {

// A frame far larger than any record is corruption, not data; bounding it
// keeps a flipped length byte from allocating gigabytes.
constexpr std::uint32_t k_max_frame = 64u * 1024 * 1024;

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void put_u32(byte_buffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

[[nodiscard]] std::uint32_t get_u32(byte_view data, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 4; i-- > 0;) v = (v << 8) | data[at + i];
  return v;
}

[[noreturn]] void io_fail(const std::string& what) {
  throw std::system_error{errno, std::generic_category(), what};
}

}  // namespace

std::uint32_t crc32(byte_view data) {
  static constexpr std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void append_frame(byte_buffer& out, byte_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

const char* read_frame(byte_view data, std::size_t& pos, byte_view& payload) {
  if (data.size() - pos < 8) return "truncated record header";
  const std::uint32_t len = get_u32(data, pos);
  if (len > k_max_frame) return "oversized record";
  if (data.size() - pos - 8 < len) return "truncated record payload";
  const byte_view body = data.subspan(pos + 8, len);
  if (crc32(body) != get_u32(data, pos + 4)) return "record checksum mismatch";
  payload = body;
  pos += 8 + len;
  return nullptr;
}

void write_file_atomic(const std::string& path, byte_view content,
                       bool sync) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) io_fail("cannot open " + tmp);
  std::size_t done = 0;
  while (done < content.size()) {
    const ssize_t n = ::write(fd, content.data() + done, content.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      io_fail("write failed for " + tmp);
    }
    done += static_cast<std::size_t>(n);
  }
  if (sync) (void)::fsync(fd);
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    io_fail("cannot rename " + tmp + " to " + path);
  }
}

}  // namespace tormet::util
