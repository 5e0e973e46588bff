#include "src/privcount/data_collector.h"

#include <algorithm>
#include <cmath>

#include "src/crypto/secret_sharing.h"
#include "src/dp/noise.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace tormet::privcount {

data_collector::data_collector(net::node_id self, net::node_id tally_server,
                               net::transport& transport,
                               crypto::secure_rng& rng)
    : self_{self}, tally_server_{tally_server}, transport_{transport}, rng_{rng} {}

void data_collector::add_instrument(std::unique_ptr<batch_instrument> ins) {
  expects(ins != nullptr, "instrument must be callable");
  instruments_.push_back(std::move(ins));
}

void data_collector::set_shards(std::size_t n) {
  expects(n >= 1, "a DC needs at least one ingest shard");
  expects(!collecting_, "shard count is fixed while a round is collecting");
  shards_ = n;
}

void data_collector::set_thread_pool(std::shared_ptr<util::thread_pool> pool) {
  expects(!collecting_, "ingest pool is fixed while a round is collecting");
  pool_ = std::move(pool);
  // Keep one slab row per party. Between rounds the slabs are all zero
  // (configure zeroes them, stop_collection wipes them), so re-sizing here
  // loses nothing; it only keeps the layout right when the pool changes
  // between configure and start.
  if (!counter_names_.empty()) size_slabs();
}

std::size_t data_collector::rows() const noexcept {
  return pool_ == nullptr ? 1 : pool_->size() + 1;
}

std::size_t data_collector::stride() const noexcept {
  return counter_names_.size() + 1 + k_row_padding;
}

void data_collector::size_slabs() { slabs_.assign(rows() * stride(), 0); }

void data_collector::on_configure(const configure_msg& m) {
  expects(m.sigmas.size() == m.counter_names.size(),
          "configure message must carry one sigma per counter");
  round_id_ = m.round_id;
  counter_names_ = m.counter_names;
  counter_index_.clear();
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    counter_index_[counter_names_[i]] = i;
  }
  base_.assign(counter_names_.size(), 0);
  size_slabs();
  collecting_ = false;
  configured_ = true;

  // Compile every instrument against this round's slot layout (unknown
  // names land in the trash slot and never reach the report).
  const slot_resolver slot_of = [this](const std::string& name) -> std::size_t {
    const auto it = counter_index_.find(name);
    return it == counter_index_.end() ? counter_names_.size() : it->second;
  };
  for (const auto& ins : instruments_) ins->bind(slot_of);

  // Per-counter: noise share + blinding. This DC adds Gaussian noise with
  // variance noise_weight * sigma^2 so the DC noises sum to sigma^2 total.
  // Blinds are drawn straight into the per-SK vectors — the whole counter
  // batch needs no per-counter share allocation. Each SK's blind is uniform
  // and the DC keeps their negated sum, so base + Σ sk_blinds == noise
  // (mod 2^64), exactly additive_shares(0, n_sk + 1) without the temp
  // vector.
  std::vector<std::vector<std::uint64_t>> per_sk_shares(
      m.share_keepers.size(),
      std::vector<std::uint64_t>(counter_names_.size(), 0));
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    const double sigma_share = m.sigmas[i] * std::sqrt(m.noise_weight);
    const std::int64_t noise = dp::sample_gaussian_integer(sigma_share, rng_);
    std::uint64_t blind_sum = 0;
    for (std::size_t s = 0; s < m.share_keepers.size(); ++s) {
      const std::uint64_t blind = rng_.next_u64();
      per_sk_shares[s][i] = blind;
      blind_sum += blind;
    }
    base_[i] = static_cast<std::uint64_t>(noise) - blind_sum;
  }
  for (std::size_t s = 0; s < m.share_keepers.size(); ++s) {
    blinding_share_msg share;
    share.round_id = round_id_;
    share.shares = std::move(per_sk_shares[s]);
    transport_.send(
        encode_blinding_share(self_, m.share_keepers[s], share));
  }
  transport_.send(encode_simple(self_, tally_server_, msg_type::dc_ready, round_id_));
}

bool data_collector::configured_for(const net::message& msg,
                                    const char* what) const {
  // A round-id mismatch is a stale control from a previous round attempt
  // reaching a restarted DC (the writer resends its queued suffix on
  // reconnect). Crash recovery makes that a drop, not a protocol
  // violation: the TS re-drives the round from configure. A control before
  // any configure is dropped too: there are no bound slabs to collect into
  // or report from.
  if (!configured_ || decode_round_id(msg) != round_id_) {
    log_line{log_level::warn} << "DC " << self_ << ": " << what
                              << " for a stale or unconfigured round; dropping";
    return false;
  }
  return true;
}

void data_collector::handle_message(const net::message& msg) {
  switch (static_cast<msg_type>(msg.type)) {
    case msg_type::configure:
      on_configure(decode_configure(msg));
      return;
    case msg_type::start_collection:
      if (!configured_for(msg, "start_collection")) return;
      collecting_ = true;
      return;
    case msg_type::stop_collection: {
      if (!configured_for(msg, "stop_collection")) return;
      collecting_ = false;
      dc_report_msg report;
      report.round_id = round_id_;
      merge_slabs(slabs_, rows(), counter_names_.size(), base_, report.values);
      transport_.send(encode_dc_report(self_, tally_server_, report));
      // Forget the round's state: the report is blinded; keeping the base
      // and increments would weaken the "nothing to seize" property.
      base_.assign(base_.size(), 0);
      slabs_.assign(slabs_.size(), 0);
      return;
    }
    default:
      log_line{log_level::warn} << "DC " << self_ << ": unexpected message type "
                                << msg.type;
  }
}

void data_collector::observe(const tor::event& ev) { ingest(&ev, 1); }

void data_collector::ingest(const tor::event* evs, std::size_t n) {
  if (!collecting_ || n == 0) return;
  events_observed_ += n;
  const auto run = [&](std::size_t begin, std::size_t end, std::uint64_t* row) {
    for (const auto& ins : instruments_) {
      ins->ingest_span(evs + begin, end - begin, row);
    }
  };
  // One contiguous chunk per party (pool workers + the caller), each into
  // its own slab row. Counters are mod-2^64 sums, so every split merges to
  // the bytes of one serial pass; spans too short to pay for the hand-off
  // stay on the caller.
  const std::size_t chunks = std::min(rows(), n / k_min_chunk_events);
  if (chunks <= 1) {
    run(0, n, slabs_.data());
    return;
  }
  const std::size_t grain = (n + chunks - 1) / chunks;
  const std::size_t row_slots = stride();
  pool_->parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    run(begin, end, slabs_.data() + begin / grain * row_slots);
  });
}

}  // namespace tormet::privcount
