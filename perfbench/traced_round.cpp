#include "perfbench/traced_round.h"

#include <fstream>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/clock.h"
#include "src/cli/node_runner.h"
#include "src/cli/workload_source.h"
#include "src/core/instruments.h"
#include "src/net/inproc.h"
#include "src/privcount/deployment.h"
#include "src/psc/deployment.h"
#include "src/relay/relay_plane.h"
#include "src/relay/stats_agent.h"
#include "src/util/check.h"

namespace perfbench {

namespace {

using namespace tormet;

/// Metric name of a handler span: `<protocol>.<role>.<message label>_s`.
std::string handler_metric(const cli::deployment_plan& plan, net::node_id to,
                           std::uint16_t type) {
  static const std::map<std::uint16_t, std::string> psc_labels{
      {32, "configure"}, {33, "keys"},    {34, "configure"}, {35, "report"},
      {36, "combine"},   {37, "mix"},     {38, "decrypt"},   {39, "final"}};
  static const std::map<std::uint16_t, std::string> privcount_labels{
      {1, "configure"}, {2, "blinding"},  {3, "ready"},  {4, "start"},
      {5, "stop"},      {6, "dc_report"}, {7, "reveal"}, {8, "sk_report"}};
  const auto& labels = plan.protocol == "psc" ? psc_labels : privcount_labels;
  const auto it = labels.find(type);
  const std::string label =
      it != labels.end() ? it->second : "msg" + std::to_string(type);
  std::string role;
  switch (plan.node(to).role) {
    case cli::node_role::psc_ts:
    case cli::node_role::privcount_ts: role = "ts"; break;
    case cli::node_role::psc_cp: role = "cp"; break;
    case cli::node_role::privcount_sk: role = "sk"; break;
    case cli::node_role::psc_dc:
    case cli::node_role::privcount_dc: role = "dc"; break;
  }
  return plan.protocol + "." + role + "." + label + "_s";
}

/// DCs and SKs each run in their own process, in parallel; the TS and the
/// CP chain (each CP waits for the previous one's pass) are sequential.
bool runs_in_parallel(cli::node_role role) {
  return role == cli::node_role::psc_dc || role == cli::node_role::privcount_dc ||
         role == cli::node_role::privcount_sk;
}

/// Forwards to the in-process bus, timing every handler by (metric, node)
/// and counting messages and payload bytes.
class timed_transport final : public net::transport {
 public:
  explicit timed_transport(const cli::deployment_plan& plan) : plan_{plan} {}

  void register_node(net::node_id id, net::message_handler handler) override {
    bus_.register_node(id, [this, id, h = std::move(handler)](
                               const net::message& m) {
      const clock_type::time_point t0 = clock_type::now();
      h(m);
      busy_[{handler_metric(plan_, id, m.type), id}] += seconds_since(t0);
    });
  }
  void send(net::message msg) override {
    ++messages_;
    bytes_ += msg.payload.size();
    bus_.send(std::move(msg));
  }
  std::size_t run_until_quiescent() override {
    return bus_.run_until_quiescent();
  }

  [[nodiscard]] std::map<std::string, double> critical_path() const {
    std::map<std::string, double> out;
    for (const auto& [key, seconds] : busy_) {
      double& slot = out[key.first];
      slot = runs_in_parallel(plan_.node(key.second).role)
                 ? std::max(slot, seconds)
                 : slot + seconds;
    }
    return out;
  }
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  const cli::deployment_plan& plan_;
  net::inproc_net bus_;
  std::map<std::pair<std::string, net::node_id>, double> busy_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Times a DC's ingest. For PSC it also counts distinct extracted items
/// per window, outside the timed span.
class timed_sink final : public core::event_sink {
 public:
  timed_sink(core::event_sink& dc, psc::data_collector::extractor extract)
      : dc_{dc}, extract_{std::move(extract)} {}

  void observe(const tor::event& ev) override { ingest(&ev, 1); }
  void ingest(const tor::event* evs, std::size_t n) override {
    const clock_type::time_point t0 = clock_type::now();
    dc_.ingest(evs, n);
    seconds_ += seconds_since(t0);
    events_ += n;
    if (!extract_) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::optional<std::string> item = extract_(evs[i])) {
        window_items_.insert(std::move(*item));
      }
    }
    window_extracted_ += n;
  }
  void set_shards(std::size_t n) override { dc_.set_shards(n); }
  [[nodiscard]] std::size_t shards() const noexcept override {
    return dc_.shards();
  }
  void set_thread_pool(std::shared_ptr<util::thread_pool> pool) override {
    dc_.set_thread_pool(std::move(pool));
  }
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return dc_.events_observed();
  }

  /// Ingest seconds since the last call.
  double take_seconds() { return std::exchange(seconds_, 0.0); }
  /// Ends a DC-window: folds its distinct-item count into the totals.
  void end_window(traced_result& out) {
    out.distinct_items += window_items_.size();
    out.extracted_events += window_extracted_;
    window_items_.clear();
    window_extracted_ = 0;
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  core::event_sink& dc_;
  psc::data_collector::extractor extract_;
  double seconds_ = 0;
  std::uint64_t events_ = 0;
  std::unordered_set<std::string> window_items_;
  std::uint64_t window_extracted_ = 0;
};

/// Bytes this process has passed to write(2) so far (/proc/self/io wchar),
/// or 0 where the counter is unavailable.
std::uint64_t written_bytes() {
  std::ifstream io{"/proc/self/io"};
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

/// One DC's share of a round's collection feed.
struct dc_feed {
  double cursor_s = 0;
  double route_s = 0;
  double close_window_s = 0;
  double ingest_s = 0;
  [[nodiscard]] double total() const {
    return cursor_s + route_s + close_window_s + ingest_s;
  }
};

}  // namespace

traced_result run_traced_round(const cli::deployment_plan& plan,
                               const std::string& workdir) {
  tormet::expects(cli::is_event_workload(plan) &&
                      plan.workload.kind != cli::workload_kind::scenario &&
                      plan.workload.kind != cli::workload_kind::socket,
                  "the traced run replays trace, generate or relays workloads");
  const clock_type::time_point start = clock_type::now();
  traced_result out;
  out.rounds = std::max<std::uint32_t>(1, plan.schedule_rounds);
  const core::measurement_schedule sched = cli::round_schedule_of(plan);
  const bool relays = plan.workload.kind == cli::workload_kind::relays;
  const std::size_t dcs =
      plan.ids_with(plan.protocol == "psc" ? cli::node_role::psc_dc
                                           : cli::node_role::privcount_dc)
          .size();

  const clock_type::time_point gen_start = clock_type::now();
  const auto generated = cli::materialize_plan_events(plan);
  if (generated != nullptr) out.generate_s = seconds_since(gen_start);
  std::vector<cli::workload_cursor> cursors;
  std::vector<std::optional<relay::relay_plane>> planes(dcs);
  for (std::size_t i = 0; i < dcs; ++i) {
    cursors.emplace_back(plan, i, generated);
    if (relays) {
      planes[i].emplace(plan.workload.relay_count / dcs, plan.sample_prob,
                        relay::sampling_seed_of(plan.rng_seed),
                        workdir + "/traced.pub.d/dc-" + std::to_string(i));
    }
  }
  const std::shared_ptr<util::thread_pool> pool = cli::make_ingest_pool(plan);
  std::vector<timed_sink> sinks;
  sinks.reserve(dcs);

  // One DC's collection window, spans taken around each layer call.
  const auto feed_dc = [&](std::size_t i, std::uint32_t round_id) {
    const cli::round_window w = cli::round_window_for(plan, sched, round_id - 1);
    timed_sink& sink = sinks[i];
    dc_feed f;
    double child_s = 0;
    clock_type::time_point t0 = clock_type::now();
    if (relays) {
      out.cursor_events += cursors[i].stream_window(
          w.start, w.end, [&](const tor::event* evs, std::size_t n) {
            const clock_type::time_point r0 = clock_type::now();
            planes[i]->route(evs, n);
            child_s += seconds_since(r0);
          });
      f.route_s = child_s;
      f.cursor_s = seconds_since(t0) - child_s;
      const std::uint64_t written = written_bytes();
      t0 = clock_type::now();
      planes[i]->close_window(round_id - 1, sink);
      const double close_s = seconds_since(t0);
      out.pub_bytes += written_bytes() - written;
      f.ingest_s = sink.take_seconds();
      f.close_window_s = close_s - f.ingest_s;
      out.publishes += planes[i]->relays();
    } else {
      out.cursor_events += cursors[i].stream_window(
          w.start, w.end,
          [&](const tor::event* evs, std::size_t n) { sink.ingest(evs, n); });
      f.cursor_s = seconds_since(t0);
      f.ingest_s = sink.take_seconds();
      f.cursor_s -= f.ingest_s;
    }
    ++out.windows;
    out.ingest_busy_s += f.ingest_s;
    sink.end_window(out);
    return f;
  };
  const auto feed_round = [&](std::uint32_t round_id) {
    dc_feed slowest;
    for (std::size_t i = 0; i < dcs; ++i) {
      const dc_feed f = feed_dc(i, round_id);
      if (f.total() > slowest.total()) slowest = f;
    }
    out.cursor_s += slowest.cursor_s;
    out.route_s += slowest.route_s;
    out.close_window_s += slowest.close_window_s;
    out.ingest_s += slowest.ingest_s;
  };

  timed_transport bus{plan};
  std::vector<std::string> tallies;
  if (plan.protocol == "psc") {
    psc::deployment_config cfg;
    cfg.num_computation_parties = plan.ids_with(cli::node_role::psc_cp).size();
    cfg.measured_relays.resize(dcs);
    for (std::size_t i = 0; i < dcs; ++i) {
      cfg.measured_relays[i] = static_cast<tor::relay_id>(i);
    }
    cfg.round = plan.round;
    cfg.rng_seed = plan.rng_seed;
    psc::deployment dep{bus, cfg};
    const auto extract = core::extractor_by_name(plan.psc_extractor);
    dep.set_extractor(extract);
    for (std::size_t i = 0; i < dcs; ++i) {
      cli::configure_dc_ingest(plan, dep.dc_at(i), pool);
      sinks.emplace_back(dep.dc_at(i), extract);
    }
    for (std::uint32_t r = 1; r <= out.rounds; ++r) {
      const psc::round_outcome res = dep.run_round([&] { feed_round(r); });
      tallies.push_back(
          cli::serialize_psc_tally(res.raw_count, res.bins, res.total_noise_bits));
    }
  } else {
    tormet::expects(plan.protocol == "privcount", "unknown protocol in plan");
    privcount::deployment_config cfg;
    cfg.num_share_keepers = plan.ids_with(cli::node_role::privcount_sk).size();
    cfg.measured_relays.resize(dcs);
    for (std::size_t i = 0; i < dcs; ++i) {
      cfg.measured_relays[i] = static_cast<tor::relay_id>(i);
    }
    cfg.privacy = plan.privacy;
    cfg.noise_enabled = plan.privcount_noise_enabled;
    cfg.rng_seed = plan.rng_seed;
    privcount::deployment dep{bus, cfg};
    for (const auto& name : plan.instruments) {
      dep.add_instrument(core::instrument_by_name(name));
    }
    for (std::size_t i = 0; i < dcs; ++i) {
      cli::configure_dc_ingest(plan, dep.dc_at(i), pool);
      sinks.emplace_back(dep.dc_at(i), nullptr);
    }
    for (std::uint32_t r = 1; r <= out.rounds; ++r) {
      tallies.push_back(cli::serialize_privcount_tally(
          dep.run_round(plan.counters, [&] { feed_round(r); })));
    }
  }
  out.tally = cli::serialize_multiround_tally(tallies);

  for (const timed_sink& s : sinks) out.ingest_events += s.events();
  for (const auto& p : planes) {
    if (p.has_value()) out.accepted_windows += p->totals().windows_ingested;
  }
  out.handler_s = bus.critical_path();
  out.messages = bus.messages();
  out.message_bytes = bus.bytes();
  out.wall_s = seconds_since(start);
  return out;
}

}  // namespace perfbench
