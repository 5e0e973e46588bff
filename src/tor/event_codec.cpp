#include "src/tor/event_codec.h"

#include <algorithm>
#include <array>
#include <limits>
#include <type_traits>

namespace tormet::tor {

namespace {

constexpr std::array<std::uint8_t, 7> k_magic = {'T', 'M', 'T', 'R',
                                                 'A', 'C', 'E'};
static_assert(k_magic.size() + 1 == k_trace_header_bytes);

/// Body tags are the variant indices of tor::event_body — the variant order
/// in events.h is part of the wire format.
enum class body_tag : std::uint8_t {
  entry_connection = 0,
  entry_circuit = 1,
  entry_data = 2,
  exit_stream = 3,
  exit_data = 4,
  hsdir_publish = 5,
  hsdir_fetch = 6,
  rend_circuit = 7,
};
constexpr std::uint8_t k_max_body_tag = 7;

// encode_event writes ev.body.index() while decode_event switches on the
// tags above — pin the mapping so reordering the variant in events.h is a
// compile error, not silent wire corruption.
template <body_tag Tag, typename Body>
inline constexpr bool tag_matches =
    std::is_same_v<std::variant_alternative_t<static_cast<std::size_t>(Tag),
                                              event_body>,
                   Body>;
static_assert(tag_matches<body_tag::entry_connection, entry_connection_event>);
static_assert(tag_matches<body_tag::entry_circuit, entry_circuit_event>);
static_assert(tag_matches<body_tag::entry_data, entry_data_event>);
static_assert(tag_matches<body_tag::exit_stream, exit_stream_event>);
static_assert(tag_matches<body_tag::exit_data, exit_data_event>);
static_assert(tag_matches<body_tag::hsdir_publish, hsdir_publish_event>);
static_assert(tag_matches<body_tag::hsdir_fetch, hsdir_fetch_event>);
static_assert(tag_matches<body_tag::rend_circuit, rend_circuit_event>);
static_assert(std::variant_size_v<event_body> == k_max_body_tag + 1,
              "new event variants need a codec tag, body encoding, and a "
              "docs/EVENTS.md row");

[[nodiscard]] std::uint8_t checked_enum(net::wire_reader& in,
                                        std::uint8_t max_value,
                                        const char* what) {
  const std::uint8_t v = in.read_u8();
  if (v > max_value) {
    throw net::wire_error{std::string{"event decode: out-of-range "} + what};
  }
  return v;
}

/// The slot's body as alternative T: reused (string capacity included)
/// when the slot already holds a T, freshly emplaced otherwise.
template <typename T>
[[nodiscard]] T& body_slot(event& slot) {
  if (T* body = std::get_if<T>(&slot.body)) return *body;
  return slot.body.emplace<T>();
}

}  // namespace

void append_trace_header(byte_buffer& out) {
  out.insert(out.end(), k_magic.begin(), k_magic.end());
  out.push_back(k_trace_version);
}

void encode_event(net::wire_writer& out, const event& ev) {
  out.write_varint(ev.observer);
  out.write_i64(ev.at.seconds);
  out.write_u8(static_cast<std::uint8_t>(ev.body.index()));
  std::visit(
      [&out](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, entry_connection_event>) {
          out.write_u32(body.client_ip);
        } else if constexpr (std::is_same_v<T, entry_circuit_event>) {
          out.write_u32(body.client_ip);
          out.write_u8(static_cast<std::uint8_t>(body.kind));
        } else if constexpr (std::is_same_v<T, entry_data_event>) {
          out.write_u32(body.client_ip);
          out.write_varint(body.bytes);
        } else if constexpr (std::is_same_v<T, exit_stream_event>) {
          out.write_u8(static_cast<std::uint8_t>(body.kind));
          out.write_u8(body.is_initial ? 1 : 0);
          out.write_u16(body.port);
          out.write_string(body.target);
        } else if constexpr (std::is_same_v<T, exit_data_event>) {
          out.write_varint(body.bytes);
        } else if constexpr (std::is_same_v<T, hsdir_publish_event>) {
          out.write_string(body.address.value);
        } else if constexpr (std::is_same_v<T, hsdir_fetch_event>) {
          out.write_string(body.address.value);
          out.write_u8(static_cast<std::uint8_t>(body.outcome));
        } else if constexpr (std::is_same_v<T, rend_circuit_event>) {
          out.write_u8(static_cast<std::uint8_t>(body.outcome));
          out.write_varint(body.payload_cells);
        }
      },
      ev.body);
}

void decode_event(net::wire_reader& in, event& out) {
  const std::uint64_t observer = in.read_varint();
  if (observer > std::numeric_limits<relay_id>::max()) {
    throw net::wire_error{"event decode: observer id out of range"};
  }
  out.observer = static_cast<relay_id>(observer);
  out.at.seconds = in.read_i64();
  const std::uint8_t tag = checked_enum(in, k_max_body_tag, "body tag");
  // Every case writes every field of its body, so a reused alternative
  // carries nothing over from the slot's previous event.
  switch (static_cast<body_tag>(tag)) {
    case body_tag::entry_connection: {
      auto& b = body_slot<entry_connection_event>(out);
      b.client_ip = in.read_u32();
      break;
    }
    case body_tag::entry_circuit: {
      auto& b = body_slot<entry_circuit_event>(out);
      b.client_ip = in.read_u32();
      b.kind = static_cast<circuit_kind>(checked_enum(
          in, static_cast<std::uint8_t>(circuit_kind::rendezvous),
          "circuit kind"));
      break;
    }
    case body_tag::entry_data: {
      auto& b = body_slot<entry_data_event>(out);
      b.client_ip = in.read_u32();
      b.bytes = in.read_varint();
      break;
    }
    case body_tag::exit_stream: {
      auto& b = body_slot<exit_stream_event>(out);
      b.kind = static_cast<address_kind>(checked_enum(
          in, static_cast<std::uint8_t>(address_kind::ipv6), "address kind"));
      b.is_initial = checked_enum(in, 1, "is_initial flag") == 1;
      b.port = in.read_u16();
      b.target.assign(in.read_string_view());
      break;
    }
    case body_tag::exit_data: {
      auto& b = body_slot<exit_data_event>(out);
      b.bytes = in.read_varint();
      break;
    }
    case body_tag::hsdir_publish: {
      auto& b = body_slot<hsdir_publish_event>(out);
      b.address.value.assign(in.read_string_view());
      break;
    }
    case body_tag::hsdir_fetch: {
      auto& b = body_slot<hsdir_fetch_event>(out);
      b.address.value.assign(in.read_string_view());
      b.outcome = static_cast<fetch_outcome>(checked_enum(
          in, static_cast<std::uint8_t>(fetch_outcome::malformed),
          "fetch outcome"));
      break;
    }
    case body_tag::rend_circuit: {
      auto& b = body_slot<rend_circuit_event>(out);
      b.outcome = static_cast<rend_outcome>(checked_enum(
          in, static_cast<std::uint8_t>(rend_outcome::failed_expired),
          "rend outcome"));
      b.payload_cells = in.read_varint();
      break;
    }
  }
  in.expect_end();
}

event decode_event(net::wire_reader& in) {
  event ev;
  decode_event(in, ev);
  return ev;
}

void append_event_record(byte_buffer& out, const event& ev) {
  net::wire_writer payload;
  encode_event(payload, ev);
  net::wire_writer prefix;
  prefix.write_varint(payload.data().size());
  out.insert(out.end(), prefix.data().begin(), prefix.data().end());
  out.insert(out.end(), payload.data().begin(), payload.data().end());
}

void event_decoder::feed(byte_view chunk) {
  // Compact before growing: everything before pos_ has been consumed.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64 << 10)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
}

std::optional<event> event_decoder::next() {
  if (event ev; next(ev)) return ev;
  return std::nullopt;
}

bool event_decoder::next(event& out) {
  if (!saw_header_) {
    if (buf_.size() - pos_ < k_trace_header_bytes) return false;
    if (!std::equal(k_magic.begin(), k_magic.end(), buf_.begin() + pos_)) {
      throw net::wire_error{"trace stream: bad magic"};
    }
    const std::uint8_t version = buf_[pos_ + k_magic.size()];
    if (version != k_trace_version) {
      throw net::wire_error{"trace stream: unsupported version " +
                            std::to_string(version)};
    }
    pos_ += k_trace_header_bytes;
    saw_header_ = true;
  }

  // Peek the varint length prefix without committing the position.
  const byte_view avail{buf_.data() + pos_, buf_.size() - pos_};
  std::uint64_t len = 0;
  std::size_t prefix_bytes = 0;
  {
    // Mirrors wire_reader::read_varint, but returns "need more bytes"
    // instead of throwing on truncation.
    int shift = 0;
    for (;;) {
      if (prefix_bytes >= avail.size()) return false;  // need more
      const std::uint8_t byte = avail[prefix_bytes++];
      if (shift >= 63 && (byte & 0x7f) > 1) {
        throw net::wire_error{"trace stream: varint length overflow"};
      }
      len |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift > 63) {
        throw net::wire_error{"trace stream: varint length too long"};
      }
    }
  }
  if (len > k_max_event_record_bytes) {
    throw net::wire_error{"trace stream: record length " + std::to_string(len) +
                          " exceeds cap"};
  }
  if (avail.size() - prefix_bytes < len) return false;  // need more

  net::wire_reader payload{
      byte_view{avail.data() + prefix_bytes, static_cast<std::size_t>(len)}};
  decode_event(payload, out);
  pos_ += prefix_bytes + static_cast<std::size_t>(len);
  return true;
}

}  // namespace tormet::tor
