// Parallel-ingest tests: the differential matrices the event_sink contract
// promises — a DC's report bytes are a function of the event stream alone,
// never of how the stream was split into spans or which pool workers
// executed it. Both protocols run {workers} x {span splits}: PrivCount
// splits each span contiguously across the parties into per-party slab
// rows; PSC dedupes each span by bin (plus the dedupe edge cases: one
// repeated item, items colliding in one bin, consecutive calls). The
// baseline for every combination is the strictest one: observe() per
// event through the polymorphic core::event_sink surface, serial. Also
// pins the between-rounds-only reconfiguration guard in both protocols and
// soaks the threaded path (the ASan/TSan CI legs run this binary).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/event_sink.h"
#include "src/core/instruments.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/crypto/secure_rng.h"
#include "src/net/inproc.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/messages.h"
#include "src/psc/data_collector.h"
#include "src/psc/messages.h"
#include "src/psc/oblivious_set.h"
#include "src/tor/trace_socket.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"
#include "src/workload/scenario.h"
#include "src/workload/trace_gen.h"

namespace tormet {
namespace {

[[nodiscard]] std::vector<tor::event> zipf_events(std::uint64_t n,
                                                  std::uint64_t seed) {
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = n;
  params.seed = seed;
  return workload::generate_trace_events(params).front();
}

// -- PrivCount ---------------------------------------------------------------

/// The configure message for every registered instrument's default
/// counters.
[[nodiscard]] privcount::configure_msg privcount_configure() {
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& instrument : core::instrument_names()) {
    for (const auto& spec : core::default_specs_for(instrument)) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(1.5);
    }
  }
  cfg.noise_weight = 1.0;
  return cfg;
}

void add_privcount_instruments(privcount::data_collector& dc) {
  for (const auto& name : core::instrument_names()) {
    dc.add_instrument(core::instrument_by_name(name)());
  }
}

/// Events that reach every registered instrument's branches: exit streams
/// and entry events (mixed) plus HSDir and rendezvous activity (onion),
/// topped up with zipf streams to `min_events`.
[[nodiscard]] std::vector<tor::event> all_instrument_events(
    std::size_t min_events, std::uint64_t seed) {
  std::vector<tor::event> out;
  for (const char* model : {"mixed", "onion"}) {
    workload::trace_gen_params params;
    params.model = model;
    params.dcs = 1;
    params.seed = seed;
    const auto events = workload::generate_trace_events(params).front();
    out.insert(out.end(), events.begin(), events.end());
  }
  if (out.size() < min_events) {
    const auto zipf = zipf_events(min_events - out.size(), seed);
    out.insert(out.end(), zipf.begin(), zipf.end());
  }
  return out;
}

/// Runs one PrivCount collection round over `events` and returns the
/// blinded report's wire payload. `workers` == 0 attaches no pool;
/// `before_start` (if set) runs between configure and start_collection.
/// `chunk` == 0 feeds through observe() per event via the core::event_sink
/// interface; any other value feeds ingest() spans of that size. A fixed
/// rng seed makes noise + blinding identical across calls, so the payloads
/// are comparable byte for byte.
[[nodiscard]] std::vector<std::uint8_t> privcount_report_bytes(
    const std::vector<tor::event>& events, std::size_t workers,
    std::size_t chunk,
    const std::function<void(privcount::data_collector&)>& before_start =
        nullptr) {
  net::inproc_net bus;
  std::vector<std::uint8_t> report;
  bus.register_node(0, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(privcount::msg_type::dc_report)) {
      report = m.payload;
    }
  });
  crypto::deterministic_rng rng{4242};
  privcount::data_collector dc{1, 0, bus, rng};
  add_privcount_instruments(dc);
  if (workers > 0) {
    dc.set_thread_pool(std::make_shared<util::thread_pool>(workers));
  }
  dc.handle_message(privcount::encode_configure(0, 1, privcount_configure()));
  if (before_start != nullptr) before_start(dc);
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));

  core::event_sink& sink = dc;
  if (chunk == 0) {
    for (const tor::event& ev : events) sink.observe(ev);
  } else {
    for (std::size_t i = 0; i < events.size(); i += chunk) {
      sink.ingest(events.data() + i, std::min(chunk, events.size() - i));
    }
  }
  EXPECT_EQ(sink.events_observed(), events.size());

  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::stop_collection, 1));
  bus.run_until_quiescent();
  EXPECT_FALSE(report.empty());
  return report;
}

TEST(ParallelIngestTest, PrivcountWorkerSplitMatrixIsByteIdentical) {
  // Every registered instrument, over events reaching all of their
  // branches.
  const std::vector<tor::event> events = all_instrument_events(20'000, 17);
  // Strictest baseline: per-event observe() through the event_sink
  // interface, no pool.
  const std::vector<std::uint8_t> reference =
      privcount_report_bytes(events, 0, 0);
  // Spans of 1 and 7 stay on the caller; 8191 and the whole stream split
  // across the parties at chunk edges that fall anywhere.
  for (const std::size_t workers : {0, 1, 2, 4}) {
    for (const std::size_t split : {std::size_t{1}, std::size_t{7},
                                    std::size_t{8191}, events.size()}) {
      EXPECT_EQ(privcount_report_bytes(events, workers, split), reference)
          << "report diverged at " << workers << " workers, span " << split;
    }
  }
}

TEST(ParallelIngestTest, PrivcountPoolChangeBetweenConfigureAndStartIsSafe) {
  // configure sizes the slabs to one row per party; a pool attached,
  // replaced or removed before start_collection must re-size them, or
  // chunks would index rows that do not exist (or leave rows unmerged).
  const std::vector<tor::event> events = zipf_events(20'000, 23);
  const std::vector<std::uint8_t> reference =
      privcount_report_bytes(events, 0, 0);
  for (const std::size_t before : {0, 1, 4}) {
    for (const std::size_t after : {0, 2, 4}) {
      if (before == after) continue;
      const auto change = [after](privcount::data_collector& dc) {
        dc.set_thread_pool(after == 0
                               ? nullptr
                               : std::make_shared<util::thread_pool>(after));
      };
      EXPECT_EQ(privcount_report_bytes(events, before, events.size(), change),
                reference)
          << "pool " << before << " -> " << after << " workers";
    }
  }
}

TEST(ParallelIngestTest, PrivcountRejectsIngestPlaneChangesWhileCollecting) {
  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});
  crypto::deterministic_rng rng{7};
  privcount::data_collector dc{1, 0, bus, rng};
  dc.add_instrument(core::instrument_by_name("stream_taxonomy")());
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
    cfg.counter_names.push_back(spec.name);
    cfg.sigmas.push_back(0.0);
  }
  dc.handle_message(privcount::encode_configure(0, 1, cfg));
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));
  ASSERT_TRUE(dc.collecting());
  EXPECT_THROW(dc.set_shards(4), precondition_error);
  EXPECT_THROW(dc.set_thread_pool(std::make_shared<util::thread_pool>(2)),
               precondition_error);
  // Between rounds the knobs open up again.
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::stop_collection, 1));
  EXPECT_FALSE(dc.collecting());
  dc.set_shards(4);
  dc.set_thread_pool(nullptr);
  EXPECT_EQ(dc.shards(), 4u);
  EXPECT_THROW(dc.set_shards(0), precondition_error);
}

// -- PSC ---------------------------------------------------------------------

/// Runs one PSC collection over `events` and returns the encrypted table's
/// wire payload. Same comparability argument as the PrivCount helper: a
/// fixed rng seed pins table-init and insert randomness, so any divergence
/// is the span split or the worker count leaking into the bytes. `chunk`
/// == 0 feeds observe() per event; any other value feeds ingest() spans of
/// that size.
[[nodiscard]] std::vector<std::uint8_t> psc_table_bytes(
    crypto::group_backend backend, const std::vector<tor::event>& events,
    std::uint64_t bins, std::size_t workers, std::size_t chunk,
    psc::data_collector::extractor extract =
        core::extractor_by_name("primary_sld")) {
  net::inproc_net bus;
  std::vector<std::uint8_t> table;
  bus.register_node(0, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(psc::msg_type::dc_vector)) {
      table = m.payload;
    }
  });
  crypto::deterministic_rng rng{999};
  psc::data_collector dc{1, 0, bus, rng};
  dc.set_extractor(std::move(extract));
  if (workers > 0) {
    dc.set_thread_pool(std::make_shared<util::thread_pool>(workers));
  }

  const std::shared_ptr<const crypto::group> group = crypto::make_group(backend);
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng key_rng{5};
  const crypto::elgamal_keypair kp = scheme.generate_keypair(key_rng);
  psc::dc_configure_msg cfg;
  cfg.round_id = 1;
  cfg.bins = bins;
  cfg.group = static_cast<std::uint8_t>(backend);
  cfg.joint_pk = group->encode(kp.pub);
  dc.handle_message(psc::encode_dc_configure(0, 1, cfg));

  core::event_sink& sink = dc;
  if (chunk == 0) {
    for (const tor::event& ev : events) sink.observe(ev);
  } else {
    for (std::size_t i = 0; i < events.size(); i += chunk) {
      sink.ingest(events.data() + i, std::min(chunk, events.size() - i));
    }
  }
  EXPECT_EQ(sink.events_observed(), events.size());

  dc.handle_message(psc::encode_report_request(0, 1, 1));
  bus.run_until_quiescent();
  EXPECT_FALSE(table.empty());
  return table;
}

/// Worker counts for the PSC matrix; 0 is the no-pool serial dedupe path.
[[nodiscard]] std::vector<std::size_t> psc_worker_matrix() { return {0, 2, 4}; }

/// Asserts ingest() over every {worker} x {span split} combination yields
/// the bytes of per-event observe(). Split 0 means the whole stream as one
/// span; the odd sizes put span edges everywhere relative to bin repeats.
void expect_psc_matrix_matches_observe(
    crypto::group_backend backend, const std::vector<tor::event>& events,
    std::uint64_t bins, const std::vector<std::size_t>& chunks,
    const psc::data_collector::extractor& extract) {
  const std::vector<std::uint8_t> reference =
      psc_table_bytes(backend, events, bins, 0, 0, extract);
  for (const std::size_t workers : psc_worker_matrix()) {
    for (const std::size_t chunk : chunks) {
      const std::size_t span = chunk == 0 ? events.size() : chunk;
      EXPECT_EQ(psc_table_bytes(backend, events, bins, workers, span, extract),
                reference)
          << "table diverged at " << workers << " workers, span " << span;
    }
  }
}

TEST(ParallelIngestTest, PscToyWorkerSplitMatrixIsByteIdentical) {
  const std::vector<tor::event> events = zipf_events(4'000, 29);
  expect_psc_matrix_matches_observe(crypto::group_backend::toy, events, 256,
                                    {1, 7, 333, 0},
                                    core::extractor_by_name("primary_sld"));
}

TEST(ParallelIngestTest, PscP256WorkerSplitMatrixIsByteIdentical) {
  // The production backend: deduped, pooled seeded inserts must be
  // byte-stable on real EC ciphertexts (thread_local scratch, comb
  // tables), not just the toy group. Smaller stream — every insert of the
  // observe() reference is a real encryption.
  const std::vector<tor::event> events = zipf_events(600, 31);
  expect_psc_matrix_matches_observe(crypto::group_backend::p256, events, 64,
                                    {7, 256, 0},
                                    core::extractor_by_name("primary_sld"));
}

TEST(ParallelIngestTest, PscDedupeOfOneRepeatedItemIsByteIdentical) {
  // Every event extracts the same item: a whole span collapses to one
  // encryption, which must carry the span's last seed.
  const std::vector<tor::event> events = zipf_events(2'000, 41);
  expect_psc_matrix_matches_observe(
      crypto::group_backend::toy, events, 128, {1, 7, 333, 0},
      [](const tor::event&) -> std::optional<std::string> {
        return std::string{"the-only-item"};
      });
}

TEST(ParallelIngestTest, PscDedupeOfItemsCollidingInOneBinIsByteIdentical) {
  // Distinct items that hash to one bin: dedupe is by bin, not by item,
  // so the bin's last seed wins whichever item drew it.
  constexpr std::uint64_t k_bins = 64;
  const std::shared_ptr<const crypto::group> group =
      crypto::make_group(crypto::group_backend::toy);
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng rng{3};
  const psc::oblivious_set probe{scheme, scheme.generate_keypair(rng).pub,
                                 k_bins, rng};
  std::vector<std::string> colliding;
  for (int i = 0; colliding.size() < 5; ++i) {
    std::string item = "item-" + std::to_string(i);
    if (probe.bin_of(as_bytes(item)) == probe.bin_of(as_bytes("item-0"))) {
      colliding.push_back(std::move(item));
    }
  }
  const std::vector<tor::event> events = zipf_events(2'000, 43);
  // Every third event hits the shared bin through one of the colliding
  // items; the rest take their own primary_sld bins. Both feed paths hand
  // the extractor references into `events`, so its index picks the item.
  const auto sld = core::extractor_by_name("primary_sld");
  expect_psc_matrix_matches_observe(
      crypto::group_backend::toy, events, k_bins, {1, 7, 333, 0},
      [&](const tor::event& ev) -> std::optional<std::string> {
        const auto i = static_cast<std::size_t>(&ev - events.data());
        if (i % 3 == 0) return colliding[(i / 3) % colliding.size()];
        return sld(ev);
      });
}

TEST(ParallelIngestTest, PscConsecutiveIngestCallsMatchObserveOverBoth) {
  // ingest(A) then ingest(B) equals observe() over A+B: the dedupe scope
  // is one call, and a bin touched in both spans keeps B's seed.
  const std::vector<tor::event> events = zipf_events(3'000, 47);
  const std::vector<std::uint8_t> reference =
      psc_table_bytes(crypto::group_backend::toy, events, 128, 0, 0);
  const std::size_t split = events.size() / 3 + 1;
  for (const std::size_t workers : psc_worker_matrix()) {
    EXPECT_EQ(psc_table_bytes(crypto::group_backend::toy, events, 128, workers,
                              split),
              reference)
        << "two-call ingest diverged at " << workers << " workers";
  }
}

TEST(ParallelIngestTest, PscRejectsIngestPlaneChangesWhileTableIsLive) {
  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});
  crypto::deterministic_rng rng{11};
  psc::data_collector dc{1, 0, bus, rng};
  dc.set_extractor(core::extractor_by_name("primary_sld"));
  dc.set_shards(2);  // open before configure

  const auto group = crypto::make_group(crypto::group_backend::toy);
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng key_rng{5};
  const crypto::elgamal_keypair kp = scheme.generate_keypair(key_rng);
  psc::dc_configure_msg cfg;
  cfg.round_id = 1;
  cfg.bins = 64;
  cfg.group = static_cast<std::uint8_t>(crypto::group_backend::toy);
  cfg.joint_pk = group->encode(kp.pub);
  dc.handle_message(psc::encode_dc_configure(0, 1, cfg));
  ASSERT_TRUE(dc.configured());
  EXPECT_THROW(dc.set_shards(4), precondition_error);
  EXPECT_THROW(dc.set_thread_pool(std::make_shared<util::thread_pool>(2)),
               precondition_error);
  // Shipping the table closes the round; the knobs open up again.
  dc.handle_message(psc::encode_report_request(0, 1, 1));
  bus.run_until_quiescent();
  EXPECT_FALSE(dc.configured());
  dc.set_shards(4);
  dc.set_thread_pool(nullptr);
  EXPECT_EQ(dc.shards(), 4u);
}

// -- threaded soak -----------------------------------------------------------

TEST(ParallelIngestTest, ThreadedIngestSoakStaysConsistentAcrossRounds) {
  // Multi-round churn over the parallel path with maximum hardware
  // parallelism — the sanitizer CI legs (ASan and TSan) run this binary,
  // so any cross-worker race in chunk splits, slab writes, or seeded inserts
  // surfaces here.
  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const std::vector<tor::event> events = zipf_events(60'000, 37);
  std::vector<std::uint8_t> first;
  for (int round = 0; round < 3; ++round) {
    const std::vector<std::uint8_t> report = privcount_report_bytes(
        events, hw, 12'289);
    if (first.empty()) {
      first = report;
    } else {
      EXPECT_EQ(report, first) << "soak round " << round << " diverged";
    }
  }
  const std::vector<std::uint8_t> psc_first =
      psc_table_bytes(crypto::group_backend::toy, events, 512, hw, 913);
  EXPECT_EQ(psc_table_bytes(crypto::group_backend::toy, events, 512, 2, 4096),
            psc_first);
}

// -- flash-crowd socket-feeder stress ----------------------------------------

/// A loopback port that is free right now (bind 0, read it back, release).
[[nodiscard]] std::uint16_t free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  expects(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  expects(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
          "bind() failed");
  socklen_t len = sizeof addr;
  expects(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
          "getsockname() failed");
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(ParallelIngestTest, FlashCrowdSurgeThroughSocketFeederLosesNothing) {
  // A full flash-crowd surge day streamed live through the trace socket
  // into a threaded DC. The stream is far larger than the
  // receiver's 64 KiB recv chunk and any default kernel socket buffer, so
  // the feeder's sends block on the receiver's ingest pace (the bounded
  // send queue engaging) — and despite that backpressure churn, every
  // single event must arrive and the report bytes must equal the serial
  // direct-ingest baseline.
  workload::scenario_params params;
  params.name = "flash_crowd";
  params.dcs = 1;
  params.scale = 1.0;
  params.events = 4'000;
  params.seed = 13;
  params.days = 1;
  const std::vector<tor::event> events =
      workload::generate_scenario_events(params).front();
  ASSERT_GT(events.size(), 30'000u);  // surge volume dwarfs socket buffers

  const std::vector<std::uint8_t> reference =
      privcount_report_bytes(events, 0, 0);

  const std::uint16_t port = free_loopback_port();
  tor::event_socket_source source{port, 30'000};
  std::size_t sent = 0;
  std::thread feeder{[&] {
    sent = tor::stream_events_to_socket("127.0.0.1", port, events);
  }};

  // Receiving DC: same round wiring as privcount_report_bytes, but fed
  // from the live socket in spans, concurrently with the feeder.
  net::inproc_net bus;
  std::vector<std::uint8_t> report;
  bus.register_node(0, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(privcount::msg_type::dc_report)) {
      report = m.payload;
    }
  });
  crypto::deterministic_rng rng{4242};
  privcount::data_collector dc{1, 0, bus, rng};
  add_privcount_instruments(dc);
  dc.set_thread_pool(std::make_shared<util::thread_pool>(4));
  dc.handle_message(privcount::encode_configure(0, 1, privcount_configure()));
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));

  core::event_sink& sink = dc;
  std::vector<tor::event> block;
  constexpr std::size_t k_block = 8'192;
  block.reserve(k_block);
  std::size_t received = 0;
  for (;;) {
    std::optional<tor::event> ev = source.next();
    if (ev.has_value()) {
      block.push_back(*std::move(ev));
      ++received;
    }
    if (block.size() == k_block || (!ev.has_value() && !block.empty())) {
      sink.ingest(block.data(), block.size());
      block.clear();
    }
    if (!ev.has_value()) break;
  }
  feeder.join();

  EXPECT_EQ(sent, events.size());
  EXPECT_EQ(received, events.size()) << "events lost in the surge";
  EXPECT_EQ(sink.events_observed(), events.size());

  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::stop_collection, 1));
  bus.run_until_quiescent();
  EXPECT_EQ(report, reference)
      << "socket-fed threaded report diverged from direct serial ingest";
}

}  // namespace
}  // namespace tormet
