// PrivCount data collector (DC): runs beside one instrumented Tor relay.
// On configure it samples its Gaussian noise share and one blinding value
// per (counter, share keeper); the blinded base values start at
// noise − Σ blinds (mod 2^64), so a seized DC reveals nothing (every proper
// subset of {DC value, blinds} is uniformly random). Events increment flat
// counter slabs during collection: ingest splits each span into contiguous
// chunks, one per party (the ingest pool's workers plus the caller), and
// each chunk runs every instrument into its own slab row. The final report
// merges base + rows by mod-2^64 addition, so its bytes never depend on
// the worker count or on where spans were split.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/event_sink.h"
#include "src/crypto/secure_rng.h"
#include "src/net/transport.h"
#include "src/privcount/counter_slab.h"
#include "src/privcount/messages.h"
#include "src/tor/events.h"
#include "src/util/thread_pool.h"

namespace tormet::privcount {

class data_collector final : public core::event_sink {
 public:
  data_collector(net::node_id self, net::node_id tally_server,
                 net::transport& transport, crypto::secure_rng& rng);

  /// Registers an instrument (before or between rounds); configure binds
  /// it to each round's counter slots.
  void add_instrument(std::unique_ptr<batch_instrument> ins);

  /// Validated (>= 1, rejected while a round is collecting) and stored,
  /// but ignored: ingest splits spans contiguously and has no shards. Kept
  /// only for the core::event_sink interface and the dc_shards plan key.
  void set_shards(std::size_t n) override;
  [[nodiscard]] std::size_t shards() const noexcept override { return shards_; }

  /// Worker pool that shares each ingest span (nullptr = calling thread
  /// only). The slabs hold one row per party, re-sized (all zero) here
  /// when the DC is configured. Report bytes are identical for every pool
  /// size. Rejected while a round is collecting.
  void set_thread_pool(std::shared_ptr<util::thread_pool> pool) override;

  /// Transport handler (register with the transport for `self`).
  void handle_message(const net::message& msg);

  /// Feeds one observed event (only counted while a round is collecting).
  void observe(const tor::event& ev) override;

  /// Feeds a contiguous batch of observed events: splits it into one
  /// contiguous chunk per party, each at least k_min_chunk_events long
  /// (shorter spans stay whole on the caller), and runs every instrument
  /// over each chunk into that party's slab row. Equivalent to observe()
  /// per event, at a fraction of the cost.
  void ingest(const tor::event* evs, std::size_t n) override;

  [[nodiscard]] net::node_id id() const noexcept { return self_; }
  [[nodiscard]] bool collecting() const noexcept { return collecting_; }
  /// Events counted while collecting, across all rounds — observability
  /// for trace-replay deployments (only the total is kept; the blinded
  /// counters reveal nothing per-event).
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return events_observed_;
  }

 private:
  /// Smallest chunk a span is split into: below it the pool hand-off
  /// costs more than the chunk's ingest saves.
  static constexpr std::size_t k_min_chunk_events = 2048;
  /// Zero slots between slab rows, so two parties' rows never share a
  /// cache line.
  static constexpr std::size_t k_row_padding = 8;

  void on_configure(const configure_msg& m);
  /// True when `msg` (a start/stop control) names the round the last
  /// handled configure set up; otherwise logs `what` and returns false.
  [[nodiscard]] bool configured_for(const net::message& msg,
                                    const char* what) const;
  /// Slab rows: one per party (pool workers + the caller).
  [[nodiscard]] std::size_t rows() const noexcept;
  /// Slots per row: the counters, the trash slot, then the padding.
  [[nodiscard]] std::size_t stride() const noexcept;
  /// Zeroes the slabs at rows() x stride().
  void size_slabs();

  net::node_id self_;
  net::node_id tally_server_;
  net::transport& transport_;
  crypto::secure_rng& rng_;
  std::vector<std::unique_ptr<batch_instrument>> instruments_;

  std::uint32_t round_id_ = 0;
  std::vector<std::string> counter_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::vector<std::uint64_t> base_;   // blinded start values (noise − blinds)
  std::vector<std::uint64_t> slabs_;  // rows() rows of stride() slots
  std::size_t shards_ = 1;           // validated, otherwise unused
  std::shared_ptr<util::thread_pool> pool_;  // ingest workers (may be null)
  bool configured_ = false;  // a configure has been handled
  bool collecting_ = false;
  std::uint64_t events_observed_ = 0;
};

}  // namespace tormet::privcount
