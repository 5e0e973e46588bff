#include "src/cli/node_runner.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "src/cli/workload_source.h"
#include "src/core/instruments.h"
#include "src/crypto/secure_rng.h"
#include "src/relay/relay_plane.h"
#include "src/relay/stats_agent.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/share_keeper.h"
#include "src/privcount/tally_server.h"
#include "src/psc/computation_party.h"
#include "src/psc/data_collector.h"
#include "src/psc/estimator.h"
#include "src/psc/tally_server.h"
#include "src/util/check.h"
#include "src/util/framed_file.h"
#include "src/util/logging.h"
#include "src/util/op_log.h"
#include "src/util/thread_pool.h"

namespace tormet::cli {

namespace {

using clock = std::chrono::steady_clock;

/// Attempts a durable TS makes per round before falling back to the
/// classic grace-and-exclude path on the final one. A crashed peer's
/// supervisor restart typically lands within the first retry.
constexpr std::uint32_t k_ts_max_attempts = 3;
/// Fabric drain between round attempts: lets the failed attempt's
/// in-flight messages land while the round guards still recognize them.
constexpr int k_retry_drain_ms = 200;
/// Upper bound on the round-boundary wait for rejoin answers from
/// queried (dropped) peers.
constexpr int k_rejoin_wait_ms = 750;
/// Exit code of an injected crash; the orchestrator's supervisor restarts
/// children that die with it (durable deployments only).
constexpr int k_crash_exit_code = 42;

/// Per-process fault injection for the multi-round test harness. Reads
/// TORMET_FAULT, a ';'-separated list of clauses
/// "<node_id> exit_after_round <k>", "<node_id> delay_round <k> <ms>",
/// "<node_id> crash_in_round <k>", "<node_id> crash_after_round <k>"
/// (k 0-based; "action:k" also parses) and merges the clauses naming this
/// process's node. Crash clauses ACCUMULATE into round sets — repeating
/// crash_in_round for one node schedules a crash in every listed round
/// (the old scalar fields silently kept only the last clause).
struct fault_spec {
  bool exit_after = false;
  std::size_t exit_round = 0;
  bool delay = false;
  std::size_t delay_round = 0;
  int delay_ms = 0;
  std::set<std::size_t> crash_in_rounds;
  std::set<std::size_t> crash_after_rounds;

  /// True when a crash_in_round clause names protocol round `round_id`
  /// (1-based, as the control messages carry it).
  [[nodiscard]] bool crash_in(std::uint32_t round_id) const {
    return round_id >= 1 && crash_in_rounds.contains(round_id - 1);
  }
  [[nodiscard]] bool crash_after(std::uint32_t round_id) const {
    return round_id >= 1 && crash_after_rounds.contains(round_id - 1);
  }
};

[[nodiscard]] fault_spec fault_for(net::node_id self) {
  fault_spec f;
  const char* env = std::getenv("TORMET_FAULT");
  if (env == nullptr) return f;
  std::istringstream clauses{env};
  std::string clause;
  while (std::getline(clauses, clause, ';')) {
    std::replace(clause.begin(), clause.end(), ':', ' ');
    std::istringstream in{clause};
    net::node_id id = 0;
    std::string action;
    in >> id >> action;
    if (in.fail() || id != self) continue;
    if (action == "exit_after_round") {
      in >> f.exit_round;
      f.exit_after = !in.fail();
    } else if (action == "delay_round") {
      in >> f.delay_round >> f.delay_ms;
      f.delay = !in.fail();
    } else if (action == "crash_in_round") {
      std::size_t round = 0;
      in >> round;
      if (!in.fail()) f.crash_in_rounds.insert(round);
    } else if (action == "crash_after_round") {
      std::size_t round = 0;
      in >> round;
      if (!in.fail()) f.crash_after_rounds.insert(round);
    }
  }
  return f;
}

/// Fires an injected crash via _Exit(42): no flushes, no destructors — the
/// op-log write()s already issued are all that survive, exactly like a real
/// kill. In a durable deployment the crash fires at most once per
/// (action, round): a marker file under durable_dir outlives the restart.
void maybe_crash(const deployment_plan& plan, net::node_id self,
                 const char* action, std::size_t round_index) {
  if (plan.durable()) {
    const std::string marker = plan.durable_dir + "/crashed-" +
                               std::to_string(self) + "-" + action + "-" +
                               std::to_string(round_index);
    const int fd =
        ::open(marker.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) return;  // already fired in a previous incarnation
    ::close(fd);
  }
  log_line{log_level::warn} << "node " << self << ": injected crash (" << action
                            << " " << round_index << ")";
  std::_Exit(k_crash_exit_code);
}

// -- durable state -----------------------------------------------------------

/// Per-DC participation counters for the privacy-safe round summary: they
/// count protocol outcomes (reports present/absent, exclusions, rejoins),
/// never measurement data.
struct dc_counters {
  std::uint64_t reported = 0;
  std::uint64_t missed = 0;
  std::uint64_t excluded = 0;
  std::uint64_t rejoined = 0;
};

/// TS round state in the one line format op-log round records and
/// checkpoints share: "<magic>\n<round key> <n>\nretries <n>\ndropped
/// <ids>\n", one "dc <id> <reported> <missed> <excluded> <rejoined>" line
/// per DC, then "tally <len>\n<len raw bytes>" per tally. A round record
/// holds one committed round: its id, retries, the full dropped set at its
/// end, its 0/1 participation deltas and its tally. The cumulative state
/// (and its checkpoint) holds the first round still owed, the summed
/// counters and every committed tally.
struct ts_round_state {
  std::uint32_t round = 0;
  std::uint64_t retries = 0;
  std::set<net::node_id> dropped;
  std::map<net::node_id, dc_counters> counters;
  std::vector<std::string> tallies;
};

struct ts_format {
  std::string_view magic;
  std::string_view round_key;
};
constexpr ts_format k_round_record{"tormet-ts-round-v1", "round"};
constexpr ts_format k_ts_checkpoint{"tormet-ts-ckpt-v1", "next_round"};

/// Cumulative TS state: what op-log replay reconstructs after a restart.
struct ts_state : ts_round_state {
  std::unique_ptr<util::durable_store> store;  // null: classic deployment
};

[[noreturn]] void record_fail(const char* what) {
  throw util::op_log_error{std::string{"TS durable record: "} + what};
}

[[nodiscard]] std::string encode_ts(const ts_round_state& s,
                                    const ts_format& f) {
  std::ostringstream out;
  out << f.magic << "\n" << f.round_key << " " << s.round << "\n";
  out << "retries " << s.retries << "\n";
  out << "dropped";
  for (const auto id : s.dropped) out << " " << id;
  out << "\n";
  for (const auto& [id, c] : s.counters) {
    out << "dc " << id << " " << c.reported << " " << c.missed << " "
        << c.excluded << " " << c.rejoined << "\n";
  }
  for (const auto& t : s.tallies) out << "tally " << t.size() << "\n" << t;
  return out.str();
}

[[nodiscard]] ts_round_state decode_ts(byte_view payload, const ts_format& f) {
  std::istringstream in{std::string{payload.begin(), payload.end()}};
  std::string line;
  if (!std::getline(in, line) || line != f.magic) record_fail("bad magic");
  ts_round_state s;
  while (std::getline(in, line)) {
    std::istringstream ls{line};
    std::string key;
    ls >> key;
    if (key == f.round_key) {
      if (!(ls >> s.round)) record_fail("bad round line");
    } else if (key == "retries") {
      if (!(ls >> s.retries)) record_fail("bad retries line");
    } else if (key == "dropped") {
      net::node_id id = 0;
      while (ls >> id) s.dropped.insert(id);
    } else if (key == "dc") {
      net::node_id id = 0;
      dc_counters c;
      if (!(ls >> id >> c.reported >> c.missed >> c.excluded >> c.rejoined)) {
        record_fail("bad dc line");
      }
      s.counters[id] = c;
    } else if (key == "tally") {
      std::uint64_t len = 0;
      if (!(ls >> len) || len > (64u << 20)) record_fail("bad tally length");
      std::string tally(static_cast<std::size_t>(len), '\0');
      in.read(tally.data(), static_cast<std::streamsize>(len));
      if (static_cast<std::uint64_t>(in.gcount()) != len) {
        record_fail("truncated tally bytes");
      }
      s.tallies.push_back(std::move(tally));
    } else {
      record_fail("unknown key");
    }
  }
  return s;
}

/// Folds one committed round into the cumulative state — the single code
/// path shared by live commits and crash-recovery replay, so a restarted
/// TS reconstructs exactly what the previous incarnation held.
void apply_round_record(ts_state& s, const ts_round_state& r) {
  if (r.round != s.round) record_fail("round gap in op-log");
  if (r.tallies.size() != 1) record_fail("round record without one tally");
  s.tallies.push_back(r.tallies.front());
  s.dropped = r.dropped;
  for (const auto& [id, c] : r.counters) {
    s.counters[id].reported += c.reported;
    s.counters[id].missed += c.missed;
    s.counters[id].excluded += c.excluded;
    s.counters[id].rejoined += c.rejoined;
  }
  s.retries += r.retries;
  s.round = r.round + 1;
}

[[nodiscard]] ts_state load_ts_state(const deployment_plan& plan,
                                     net::node_id self) {
  ts_state s;
  s.round = 1;  // nothing committed yet: round 1 is owed
  if (!plan.durable()) return s;
  s.store = std::make_unique<util::durable_store>(
      plan.durable_dir + "/node-" + std::to_string(self));
  const util::durable_state& rec = s.store->recovered();
  if (rec.has_checkpoint) {
    static_cast<ts_round_state&>(s) =
        decode_ts(rec.checkpoint, k_ts_checkpoint);
    if (s.tallies.size() + 1 != s.round) {
      record_fail("checkpoint tally count does not match next_round");
    }
  }
  for (const auto& r : rec.records) {
    apply_round_record(s, decode_ts(r, k_round_record));
  }
  if (s.round > 1) {
    log_line{log_level::info}
        << "TS: recovered " << s.tallies.size()
        << " committed round(s) from the op-log; resuming at round "
        << s.round;
  }
  return s;
}

/// Rewrites the privacy-safe .summary sidecar: round/retry totals and
/// per-DC participation counters, then the DCs' own accounting lines
/// (`dc_stats <id> <line>` per payload line). Kept OUT of the tally bytes
/// so observability never perturbs the byte-identity gate. A map keyed by
/// node id keeps the line order deterministic.
void write_summary(const ts_state& s, const deployment_plan& plan,
                   const std::string& protocol,
                   const std::map<net::node_id, std::string>& dc_stats = {}) {
  std::ostringstream out;
  out << "tormet-summary-v1\n";
  out << "protocol " << protocol << "\n";
  out << "rounds " << (s.round - 1) << "\n";
  out << "round_retries " << s.retries << "\n";
  out << "excluded_now";
  for (const auto id : s.dropped) out << " " << id;
  out << "\n";
  for (const auto& [id, c] : s.counters) {
    out << "dc " << id << " reported " << c.reported << " missed " << c.missed
        << " excluded " << c.excluded << " rejoined " << c.rejoined << "\n";
  }
  for (const auto& [id, text] : dc_stats) {
    std::istringstream in{text};
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) out << "dc_stats " << id << " " << line << "\n";
    }
  }
  util::write_file_atomic(plan.tally_path + ".summary", as_bytes(out.str()));
}

/// Commits one round: folds it into the cumulative state, appends the
/// op-log record (checkpointing on the plan's cadence), and rewrites the
/// tally file plus its .summary sidecar atomically.
void commit_round(ts_state& s, const deployment_plan& plan,
                  const ts_round_state& rec, const std::string& protocol) {
  apply_round_record(s, rec);
  if (s.store != nullptr) {
    s.store->append(as_bytes(encode_ts(rec, k_round_record)));
    if (plan.checkpoint_every > 0 && rec.round % plan.checkpoint_every == 0) {
      s.store->write_checkpoint(as_bytes(encode_ts(s, k_ts_checkpoint)));
    }
  }
  util::write_file_atomic(plan.tally_path,
                          as_bytes(serialize_multiround_tally(s.tallies)));
  write_summary(s, plan, protocol);
}

// -- non-TS durable position -------------------------------------------------

/// A non-TS role's durable schedule position: the 1-based round id the
/// store last saw (0 for a fresh start). Non-TS roles persist only this —
/// every other bit of per-round state is re-derived byte-identically from
/// (plan seed, node id, round id) when the TS re-drives the round.
class node_position {
 public:
  node_position(const deployment_plan& plan, net::node_id self)
      : checkpoint_every_{plan.checkpoint_every} {
    if (!plan.durable()) return;
    store_ = std::make_unique<util::durable_store>(
        plan.durable_dir + "/node-" + std::to_string(self));
    const util::durable_state& rec = store_->recovered();
    if (rec.has_checkpoint) recorded_ = parse(rec.checkpoint);
    for (const auto& r : rec.records) recorded_ = parse(r);
    if (recorded_ > 0) {
      log_line{log_level::info} << "node " << self
                                << ": recovered durable position at round "
                                << recorded_;
    }
  }

  /// Persists `round` when it is past the recorded position (no-op for a
  /// classic deployment).
  void record(std::uint32_t round) {
    if (store_ == nullptr || round <= recorded_) return;
    const std::string rec = "round " + std::to_string(round);
    store_->append(as_bytes(rec));
    if (checkpoint_every_ > 0 && round % checkpoint_every_ == 0) {
      store_->write_checkpoint(as_bytes(rec));
    }
    recorded_ = round;
  }

 private:
  [[nodiscard]] static std::uint32_t parse(byte_view payload) {
    std::istringstream in{std::string{payload.begin(), payload.end()}};
    std::string key;
    std::uint32_t r = 0;
    if (!(in >> key >> r) || key != "round") {
      throw util::op_log_error{"node round record malformed"};
    }
    return r;
  }

  std::unique_ptr<util::durable_store> store_;  // null: classic deployment
  std::uint32_t recorded_ = 0;
  std::uint32_t checkpoint_every_;
};

// -- transport helpers -------------------------------------------------------

/// Transport decorator for the tally-server role: a send to an unreachable
/// peer is logged and dropped instead of failing the whole deployment — a
/// dead DC must not take the TS (and every later round) down with it.
/// Missing peers still surface, as completion-predicate timeouts or as
/// grace-based exclusion.
class tolerant_transport final : public net::transport {
 public:
  explicit tolerant_transport(net::transport& inner) : inner_{inner} {}

  void register_node(net::node_id id, net::message_handler handler) override {
    inner_.register_node(id, std::move(handler));
  }
  void send(net::message msg) override {
    const net::node_id to = msg.to;
    try {
      inner_.send(std::move(msg));
    } catch (const net::transport_error& e) {
      log_line{log_level::warn}
          << "TS: send to node " << to << " failed (" << e.what()
          << "); dropping";
    }
  }
  std::size_t run_until_quiescent() override {
    return inner_.run_until_quiescent();
  }
  void run_until(const std::function<bool()>& done, int deadline_ms) override {
    inner_.run_until(done, deadline_ms);
  }

 private:
  net::transport& inner_;
};

/// Runs the fabric until `done` holds or `grace_ms` elapses, whichever is
/// first; returns done(). The straggler-tolerance primitive of the live
/// pipeline: the caller decides what to do about peers that missed the
/// window.
[[nodiscard]] bool run_with_grace(net::transport& net,
                                  const std::function<bool()>& done,
                                  int grace_ms) {
  const auto grace_end = clock::now() + std::chrono::milliseconds{grace_ms};
  // The predicate flips at the grace, so the outer deadline is pure slack;
  // widen the sum in case a hand-built plan carries an enormous grace.
  const int deadline = static_cast<int>(
      std::min<std::int64_t>(static_cast<std::int64_t>(grace_ms) + 60'000,
                             std::numeric_limits<int>::max()));
  net.run_until([&] { return done() || clock::now() >= grace_end; }, deadline);
  return done();
}

/// The serve deadline for a non-TS node: the whole schedule runs in one
/// process lifetime, and per round the TS may spend a full phase deadline
/// plus up to two grace windows waiting out stragglers before this peer
/// sees the next message — budget all of it (times the retry bound when
/// the deployment is durable), plus one final deadline for the completion
/// handshake.
[[nodiscard]] int serve_deadline_ms(const deployment_plan& plan) {
  const std::int64_t attempts = plan.durable() ? k_ts_max_attempts : 1;
  const std::int64_t per_round =
      attempts * (static_cast<std::int64_t>(plan.round_deadline_ms) +
                  2 * static_cast<std::int64_t>(std::max(0, plan.dc_grace_ms)) +
                  k_retry_drain_ms + k_rejoin_wait_ms);
  const std::int64_t total =
      per_round * std::max<std::uint32_t>(1, plan.schedule_rounds) +
      plan.round_deadline_ms;
  return static_cast<int>(
      std::min<std::int64_t>(total, std::numeric_limits<int>::max()));
}

/// Serves a non-TS role until the TS's ROUND_DONE arrives (or `quit_early`
/// fires — the fault-injection exit), then acks. `handle` processes
/// protocol messages; rejoin control traffic is answered here. When
/// `final_stats` is set, its text rides a DC_STATS message sent BEFORE the
/// ack on the same channel — per-channel FIFO guarantees the TS folds the
/// stats into the .summary sidecar before it stops waiting.
void serve_until_done(net::transport& net, const deployment_plan& plan,
                      net::node_id self,
                      const std::function<void(const net::message&)>& handle,
                      const std::function<bool()>& quit_early = nullptr,
                      const std::function<std::string()>& final_stats = nullptr) {
  const net::node_id ts_id = plan.tally_server_id();
  // Control replies to the TS; a send into a channel the TS already closed
  // (it excluded this node) must not fail the node.
  const auto reply = [&](ctl_msg type, byte_buffer payload = {}) {
    try {
      net.send(net::message{self, ts_id, static_cast<std::uint16_t>(type),
                            std::move(payload)});
    } catch (const net::transport_error&) {
    }
  };
  bool done = false;
  net.register_node(self, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(ctl_msg::round_done)) {
      if (final_stats != nullptr) {
        const std::string stats = final_stats();
        reply(ctl_msg::dc_stats, byte_buffer{stats.begin(), stats.end()});
      }
      reply(ctl_msg::round_ack);
      done = true;
      return;
    }
    if (m.type == static_cast<std::uint16_t>(ctl_msg::rejoin_ack)) return;
    if (m.type == static_cast<std::uint16_t>(ctl_msg::rejoin_query)) {
      // The TS probes dropped peers at round boundaries; answering
      // re-admits this node from the next round.
      reply(ctl_msg::rejoin_request);
      return;
    }
    handle(m);
  });
  // Announce presence: a restarted node re-admits itself; on a cold start
  // the TS's re-admission of an existing member is a no-op.
  if (plan.durable()) reply(ctl_msg::rejoin_request);
  net.run_until(
      [&] { return done || (quit_early != nullptr && quit_early()); },
      serve_deadline_ms(plan));
}

// -- DC window replay --------------------------------------------------------

/// Minimal event_sink adapter: forwards ingest spans to a callback. Used
/// to interpose the replay buffer between the relay aggregator and the
/// real DC sink (the aggregator only ever calls ingest()).
class callback_sink final : public core::event_sink {
 public:
  explicit callback_sink(
      std::function<void(const tor::event*, std::size_t)> fn)
      : fn_{std::move(fn)} {}

  void observe(const tor::event& ev) override { fn_(&ev, 1); }
  void ingest(const tor::event* evs, std::size_t n) override { fn_(evs, n); }
  void set_shards(std::size_t) override {}
  [[nodiscard]] std::size_t shards() const noexcept override { return 1; }
  void set_thread_pool(std::shared_ptr<util::thread_pool>) override {}
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return 0;
  }

 private:
  std::function<void(const tor::event*, std::size_t)> fn_;
};

/// Replays per-round collection windows with crash/retry support. The
/// cursor consumes its event stream monotonically, so a re-driven round
/// (durable TS retry) cannot re-pull its window from the source — the last
/// streamed window is buffered and replayed verbatim instead. A restarted
/// DC holds a rebuilt cursor: asking it for the current window auto-drops
/// the already-processed prefix (events outside the requested window are
/// counted-but-dropped), which re-positions the stream without any
/// bookkeeping.
///
/// With a relay plane attached (workload relays), the window detours
/// through the simulated fleet: cursor -> route() onto the per-relay
/// stats agents -> per-relay .pub publish -> aggregator merge -> sink.
/// The buffer then holds the POST-aggregation merged span, so a durable
/// retry re-ingests identical bytes without re-publishing.
class windowed_replay {
 public:
  explicit windowed_replay(bool buffering, relay::relay_plane* plane = nullptr)
      : buffering_{buffering}, plane_{plane} {}

  std::size_t replay(workload_cursor& cursor, const round_window& w,
                     std::size_t index, core::event_sink& sink) {
    if (buffering_ && index == last_index_) {
      if (!buffer_.empty()) sink.ingest(buffer_.data(), buffer_.size());
      return buffer_.size();
    }
    if (last_index_ != k_none && index <= last_index_) {
      log_line{log_level::warn}
          << "DC replay: window " << index
          << " already consumed and not buffered; skipping";
      return 0;
    }
    buffer_.clear();
    const auto feed = [&](const tor::event* evs, std::size_t k) {
      if (buffering_) buffer_.insert(buffer_.end(), evs, evs + k);
      sink.ingest(evs, k);
    };
    std::size_t n = 0;
    if (plane_ != nullptr) {
      cursor.stream_window(w.start, w.end,
                           [&](const tor::event* evs, std::size_t k) {
                             plane_->route(evs, k);
                           });
      callback_sink tee{feed};
      n = plane_->close_window(index, tee);
    } else {
      n = cursor.stream_window(w.start, w.end, feed);
    }
    last_index_ = index;
    return n;
  }

 private:
  static constexpr std::size_t k_none = static_cast<std::size_t>(-1);
  bool buffering_;
  relay::relay_plane* plane_;
  std::size_t last_index_ = k_none;
  std::vector<tor::event> buffer_;
};

/// The privacy-safe per-DC accounting a DC ships to the TS during the
/// completion handshake: `key value...` lines (never measurement data).
/// The TS prefixes each with `dc_stats <id> ` in the .summary sidecar —
/// this is where workload_cursor::dropped_outside_windows() finally
/// surfaces, and where a relay fleet's aggregation accounting lands.
[[nodiscard]] std::string dc_stats_payload(const workload_cursor& cursor,
                                           const relay::relay_plane* plane) {
  std::ostringstream out;
  out << "window_dropped " << cursor.dropped_outside_windows() << "\n";
  out << "stream_failed " << (cursor.stream_failed() ? 1 : 0) << "\n";
  if (plane != nullptr) {
    const relay::aggregate_stats& t = plane->totals();
    out << "relay_fleet " << plane->relays() << " windows "
        << t.windows_ingested << " events " << t.events_ingested
        << " observed " << t.observed << " sampled " << t.sampled
        << " missing " << t.missing << " duplicates " << t.duplicates
        << " late " << t.late << " late_dropped " << t.late_dropped
        << " rejected " << t.rejected << "\n";
  }
  return out.str();
}

// -- tally server -------------------------------------------------------------
//
// Both tally servers share the membership surface run_ts drives
// (exclude_dc / readmit_dc / resume_at_round / reporting_dcs /
// data_collectors); the protocol supplies only the steps in ts_protocol.

template <class Server>
[[nodiscard]] bool all_dcs_reported(const Server& ts) {
  return ts.reporting_dcs().size() >= ts.data_collectors().size();
}

/// Grace for the fail-fast recovery attempts: a plan without an explicit
/// grace still should not burn the whole (2-minute default) phase deadline
/// before retrying a crashed peer — the final attempt keeps the full one.
[[nodiscard]] int fail_fast_grace(const deployment_plan& plan) {
  return plan.dc_grace_ms > 0 ? plan.dc_grace_ms
                              : std::min(plan.round_deadline_ms, 10'000);
}

/// Final-attempt straggler handling: runs the fabric until `done` holds or
/// the plan's DC grace elapses. If the grace ran out, every current DC that
/// `missing` names is excluded (and added to `dropped`), keeping at least
/// one: with the whole DC population gone there is no degraded round to
/// salvage — the phase deadline then fails the round with a clear timeout
/// instead of an exclusion crash. Returns done() as of the grace.
template <class Server>
bool await_or_exclude(Server& ts, net::transport& net,
                      const deployment_plan& plan,
                      const std::function<bool()>& done,
                      const std::function<bool(net::node_id)>& missing,
                      std::set<net::node_id>& dropped) {
  if (run_with_grace(net, done, plan.dc_grace_ms)) return true;
  // A copy: exclude_dc() mutates the live DC list.
  const std::vector<net::node_id> current = ts.data_collectors();
  std::size_t remaining = current.size();
  for (const auto id : current) {
    if (!missing(id)) continue;
    if (remaining <= 1) {
      log_line{log_level::warn}
          << "TS: every remaining DC missed the grace; keeping DC " << id
          << " and waiting out the round deadline";
      break;
    }
    ts.exclude_dc(id);
    dropped.insert(id);
    --remaining;
  }
  return false;
}

/// Round-boundary rejoin admission (durable deployments only): queries
/// every currently-dropped peer, waits briefly for answers, then re-admits
/// every pending requester that was dropped. Restarted nodes announce
/// themselves unsolicited at startup, so the common case pays no wait.
template <class Server>
void admit_rejoiners(Server& ts, net::transport& net,
                     const deployment_plan& plan, net::node_id self,
                     std::set<net::node_id>& dropped,
                     std::set<net::node_id>& pending,
                     std::set<net::node_id>& rejoined_now) {
  if (!plan.durable()) return;  // classic deployments: exclusion is final
  if (!dropped.empty()) {
    for (const auto id : dropped) {
      if (pending.contains(id)) continue;
      net.send(net::message{
          self, id, static_cast<std::uint16_t>(ctl_msg::rejoin_query), {}});
    }
    const auto all_answered = [&] {
      return std::all_of(dropped.begin(), dropped.end(), [&](net::node_id id) {
        return pending.contains(id);
      });
    };
    int wait_ms = k_rejoin_wait_ms;
    if (plan.dc_grace_ms > 0) wait_ms = std::min(wait_ms, plan.dc_grace_ms);
    (void)run_with_grace(net, all_answered, wait_ms);
  }
  for (const auto id : pending) {
    if (dropped.erase(id) > 0) {
      ts.readmit_dc(id);
      rejoined_now.insert(id);
    }
  }
  pending.clear();
}

/// Sends ROUND_DONE to every peer and blocks until each *surviving* peer
/// replied ROUND_ACK (peers in `dropped` were excluded mid-deployment; an
/// ack from them anyway is harmless).
void finish_round_as_ts(net::transport& net, const deployment_plan& plan,
                        net::node_id self,
                        const std::set<net::node_id>& dropped,
                        std::size_t& acks) {
  std::size_t expected = 0;
  for (const auto& n : plan.nodes) {
    if (n.id == self) continue;
    if (!dropped.contains(n.id)) ++expected;
    net.send(net::message{self, n.id,
                          static_cast<std::uint16_t>(ctl_msg::round_done),
                          {}});
  }
  net.run_until([&] { return acks >= expected; }, plan.round_deadline_ms);
}

/// The per-protocol steps of the tally-server loop. Everything else —
/// scheduled churn, the retry/drain loop, rejoin admission, the
/// participation record, commit and completion — is run_ts's alone.
template <class Server>
struct ts_protocol {
  const char* name;  // the .summary sidecar's protocol line
  node_role dc_role;
  void (*begin_round)(Server&, const deployment_plan&);
  /// One attempt at the current round; true once its result is ready.
  /// Earlier attempts fail fast on any missing peer (the round is
  /// re-driven); the final one takes the classic grace-and-exclude path,
  /// adding exclusions to `dropped`.
  bool (*attempt)(Server&, net::transport&, const deployment_plan&,
                  bool final_attempt, std::set<net::node_id>& dropped);
  std::string (*tally)(const Server&);
};

template <class Server>
[[nodiscard]] node_result run_ts(net::transport& net,
                                 const deployment_plan& plan,
                                 net::node_id self, Server& ts,
                                 const ts_protocol<Server>& proto) {
  ts_state state = load_ts_state(plan, self);
  const fault_spec fault = fault_for(self);
  std::size_t acks = 0;
  std::set<net::node_id> rejoin_pending;
  std::map<net::node_id, std::string> dc_stats_payloads;
  net.register_node(self, [&](const net::message& m) {
    if (m.type == static_cast<std::uint16_t>(ctl_msg::round_ack)) {
      ++acks;
      return;
    }
    if (m.type == static_cast<std::uint16_t>(ctl_msg::dc_stats)) {
      dc_stats_payloads[m.from] =
          std::string{m.payload.begin(), m.payload.end()};
      return;
    }
    if (m.type == static_cast<std::uint16_t>(ctl_msg::rejoin_request)) {
      rejoin_pending.insert(m.from);
      net.send(net::message{
          self, m.from, static_cast<std::uint16_t>(ctl_msg::rejoin_ack), {}});
      return;
    }
    ts.handle_message(m);
  });

  const std::uint32_t rounds = std::max<std::uint32_t>(1, plan.schedule_rounds);
  const std::uint32_t max_attempts = plan.durable() ? k_ts_max_attempts : 1;
  // Scenario-scheduled churn: a DC whose dropout window covers a whole
  // round is excluded for it and re-admitted when the outage ends — the
  // rejoin machinery driven by the plan instead of by missed graces. Pure
  // plan function, so the reference round derives the identical schedule.
  // Seeded from the resume point so a restarted TS re-admits last round's
  // dark DCs exactly like an uninterrupted one.
  const std::vector<net::node_id> dc_ids = plan.ids_with(proto.dc_role);
  const auto dark_in = [&](std::uint32_t round) {
    std::set<net::node_id> dark;
    if (round >= 1) {
      for (const auto k : scheduled_dark_dcs(plan, round - 1)) {
        dark.insert(dc_ids[k]);
      }
    }
    return dark;
  };
  std::set<net::node_id> scheduled_dark = dark_in(state.round - 1);
  for (std::uint32_t r = state.round; r <= rounds; ++r) {
    const std::set<net::node_id> dropped_before = state.dropped;
    std::set<net::node_id> rejoined_now;
    std::set<net::node_id> sched_excluded_now;
    std::set<net::node_id> want_dark = dark_in(r);
    for (const auto id : scheduled_dark) {
      if (want_dark.contains(id)) continue;
      ts.readmit_dc(id);
      rejoined_now.insert(id);
    }
    for (const auto id : want_dark) {
      if (scheduled_dark.contains(id)) continue;
      ts.exclude_dc(id);
      sched_excluded_now.insert(id);
    }
    scheduled_dark = std::move(want_dark);

    std::uint32_t attempt = 0;
    bool done = false;
    for (; attempt < max_attempts && !done; ++attempt) {
      if (attempt > 0) {
        ++state.retries;
        log_line{log_level::warn}
            << "TS: round " << r << " attempt " << attempt
            << " failed; draining and retrying";
        // Quiesce: let the failed attempt's in-flight messages land now,
        // while the round guards still recognize (and drop or dedup) them,
        // instead of racing the retry.
        (void)run_with_grace(net, [] { return false; }, k_retry_drain_ms);
      }
      admit_rejoiners(ts, net, plan, self, state.dropped, rejoin_pending,
                      rejoined_now);
      ts.resume_at_round(r);
      proto.begin_round(ts, plan);
      if (fault.crash_in(r)) {
        maybe_crash(plan, self, "crash_in_round", r - 1);
      }
      done = proto.attempt(ts, net, plan, attempt + 1 == max_attempts,
                           state.dropped);
    }

    ts_round_state rec;
    rec.round = r;
    rec.retries = attempt - 1;
    rec.dropped = state.dropped;
    for (const auto id : dc_ids) {
      dc_counters c;
      (ts.reporting_dcs().contains(id) ? c.reported : c.missed) = 1;
      if ((state.dropped.contains(id) && !dropped_before.contains(id)) ||
          sched_excluded_now.contains(id)) {
        c.excluded = 1;
      }
      if (rejoined_now.contains(id)) c.rejoined = 1;
      rec.counters[id] = c;
    }
    // The tally step throws if the round never completed — the node then
    // exits nonzero and the orchestrator reports the failure.
    rec.tallies = {proto.tally(ts)};
    commit_round(state, plan, rec, proto.name);
    if (fault.crash_after(r)) {
      maybe_crash(plan, self, "crash_after_round", r - 1);
    }
  }

  node_result out;
  out.tally = serialize_multiround_tally(state.tallies);
  finish_round_as_ts(net, plan, self, state.dropped, acks);
  // Each DC's DC_STATS rides the same channel as its ROUND_ACK, so with
  // every surviving ack in, every surviving DC's stats are too.
  if (!dc_stats_payloads.empty()) {
    write_summary(state, plan, proto.name, dc_stats_payloads);
  }
  return out;
}

[[nodiscard]] bool psc_attempt(psc::tally_server& ts, net::transport& net,
                               const deployment_plan& plan, bool final_attempt,
                               std::set<net::node_id>& dropped) {
  const auto setup_complete = [&] { return ts.setup_complete(); };
  const auto all_reported = [&] { return all_dcs_reported(ts); };
  const auto result_ready = [&] { return ts.result_ready(); };
  if (!final_attempt) {
    // Recovery attempt: fail fast on any missing peer and re-drive the
    // whole round — per-round determinism makes the retry byte-identical,
    // so waiting out a restart beats excluding data.
    const int grace = fail_fast_grace(plan);
    if (!run_with_grace(net, setup_complete, grace)) return false;
    ts.request_reports();
    return run_with_grace(net, all_reported, grace) &&
           run_with_grace(net, result_ready, plan.round_deadline_ms);
  }
  net.run_until(setup_complete, plan.round_deadline_ms);
  // DCs replay their round window (or insert their plan-derived items)
  // immediately after handling dc_configure; per-channel FIFO guarantees
  // the report request below is processed only after that.
  ts.request_reports();
  // Stragglers past the grace are dropped from the deployment; the mix
  // starts on the tables that made it (the union just excludes the dead
  // DCs' observations).
  if (plan.dc_grace_ms > 0 &&
      !await_or_exclude(
          ts, net, plan, all_reported,
          [&](net::node_id id) { return !ts.reporting_dcs().contains(id); },
          dropped) &&
      !ts.reporting_dcs().empty()) {
    ts.force_mixing();
  }
  net.run_until(result_ready, plan.round_deadline_ms);
  return ts.result_ready();
}

[[nodiscard]] bool privcount_attempt(privcount::tally_server& ts,
                                     net::transport& net,
                                     const deployment_plan& plan,
                                     bool final_attempt,
                                     std::set<net::node_id>& dropped) {
  const auto all_ready = [&] { return ts.all_dcs_ready(); };
  const auto all_reported = [&] { return all_dcs_reported(ts); };
  const auto results_ready = [&] { return ts.results_ready(); };
  if (!final_attempt) {
    const int grace = fail_fast_grace(plan);
    if (!run_with_grace(net, all_ready, grace)) return false;
    ts.start_collection();
    ts.stop_collection();
    if (!run_with_grace(net, all_reported, grace)) return false;
    ts.request_reveal();
    return run_with_grace(net, results_ready, plan.round_deadline_ms);
  }
  if (plan.dc_grace_ms > 0) {
    (void)await_or_exclude(
        ts, net, plan, all_ready,
        [&](net::node_id id) { return !ts.ready_dcs().contains(id); },
        dropped);
  } else {
    net.run_until(all_ready, plan.round_deadline_ms);
  }
  ts.start_collection();
  // The TS can stop immediately after starting: both control messages ride
  // the same TS->DC channel, and each DC replays its round window inside
  // the start_collection handler (see serve_dc), so per-channel FIFO
  // guarantees the stop is processed only after the replay finished.
  ts.stop_collection();
  if (plan.dc_grace_ms > 0) {
    // The reveal names exactly the DCs that reported, so dropping the
    // stragglers keeps the blinds cancelling; they are excluded from later
    // rounds too.
    (void)await_or_exclude(
        ts, net, plan, all_reported,
        [&](net::node_id id) { return !ts.reporting_dcs().contains(id); },
        dropped);
    if (ts.reporting_dcs().empty()) {
      // Total DC outage on the grace path (only grace_ms has been spent):
      // nothing to degrade to — fail the round on the full deadline rather
      // than publishing an all-zero tally.
      net.run_until(all_reported, plan.round_deadline_ms);
    }
  } else {
    net.run_until(all_reported, plan.round_deadline_ms);
  }
  ts.request_reveal();
  net.run_until(results_ready, plan.round_deadline_ms);
  return ts.results_ready();
}

const ts_protocol<psc::tally_server> k_psc_ts{
    "psc", node_role::psc_dc,
    [](psc::tally_server& ts, const deployment_plan& plan) {
      ts.begin_round(plan.round);
    },
    psc_attempt,
    [](const psc::tally_server& ts) {
      return serialize_psc_tally(ts.raw_count(), ts.params().bins,
                                 ts.total_noise_bits());
    },
};

const ts_protocol<privcount::tally_server> k_privcount_ts{
    "privcount", node_role::privcount_dc,
    [](privcount::tally_server& ts, const deployment_plan& plan) {
      ts.begin_round(plan.counters, plan.privacy);
    },
    privcount_attempt,
    [](const privcount::tally_server& ts) {
      return serialize_privcount_tally(ts.results());
    },
};

// -- CPs, SKs and DCs --------------------------------------------------------

/// A control message a round hook keys on: its type and the decoder of the
/// 1-based round id it carries.
struct round_msg {
  std::uint16_t type;
  std::uint32_t (*round_of)(const net::message&);

  /// The round id `m` carries when it is this message, else 0.
  [[nodiscard]] std::uint32_t match(const net::message& m) const {
    return m.type == type ? round_of(m) : 0;
  }
};

/// The per-protocol hooks of a CP or SK.
struct peer_protocol {
  round_msg configure;  // reseed the RNG, crash_in, record the position
  round_msg finish;     // crash_after
};

template <class Role>
void serve_peer(net::transport& net, const deployment_plan& plan,
                net::node_id self, crypto::deterministic_rng& rng, Role& role,
                const peer_protocol& proto) {
  const fault_spec fault = fault_for(self);
  node_position position{plan, self};
  serve_until_done(net, plan, self, [&](const net::message& m) {
    if (const std::uint32_t round = proto.configure.match(m); round != 0) {
      // Per-round reseed BEFORE the role consumes the RNG: every
      // incarnation — and the in-process reference — derives the identical
      // stream for (seed, node, round), which is what makes crash re-runs
      // byte-identical.
      rng = crypto::make_node_round_rng(plan.rng_seed, self, round);
      if (fault.crash_in(round)) {
        maybe_crash(plan, self, "crash_in_round", round - 1);
      }
      position.record(round);
    }
    role.handle_message(m);
    if (const std::uint32_t round = proto.finish.match(m);
        fault.crash_after(round)) {
      maybe_crash(plan, self, "crash_after_round", round - 1);
    }
  });
}

const peer_protocol k_psc_cp{
    {static_cast<std::uint16_t>(psc::msg_type::cp_configure),
     [](const net::message& m) {
       return psc::decode_cp_configure(m).round_id;
     }},
    {static_cast<std::uint16_t>(psc::msg_type::decrypt_pass),
     [](const net::message& m) { return psc::decode_vector(m).round_id; }},
};

const peer_protocol k_privcount_sk{
    {static_cast<std::uint16_t>(privcount::msg_type::configure),
     [](const net::message& m) {
       return privcount::decode_configure(m).round_id;
     }},
    {static_cast<std::uint16_t>(privcount::msg_type::sk_reveal),
     [](const net::message& m) {
       return privcount::decode_sk_reveal(m).round_id;
     }},
};

/// The per-protocol table of a DC: the control messages its three round
/// hooks key on, and how the collector is prepared for the workload.
template <class Collector>
struct dc_protocol {
  const char* name;  // log prefix
  node_role role;
  round_msg configure;  // reseed the RNG, record the durable position
  round_msg collect;    // crash_in, delay, replay the window / insert items
  round_msg report;     // exit_after, crash_after
  /// Installs what an event workload needs (extractor or instruments).
  void (*install)(const deployment_plan&, Collector&);
  /// Collection for the synthetic item workload (null: none).
  void (*insert_items)(const deployment_plan&, net::node_id, Collector&);
};

template <class Collector>
void serve_dc(net::transport& net, const deployment_plan& plan,
              net::node_id self, crypto::deterministic_rng& rng,
              Collector& dc, const dc_protocol<Collector>& proto) {
  const fault_spec fault = fault_for(self);
  const core::measurement_schedule sched = round_schedule_of(plan);
  std::optional<workload_cursor> cursor;
  if (is_event_workload(plan)) {
    proto.install(plan, dc);
    configure_dc_ingest(plan, dc, make_ingest_pool(plan));
    cursor.emplace(plan, dc_index_of(plan, self));
  }
  std::optional<relay::relay_plane> rplane;
  if (plan.workload.kind == workload_kind::relays) {
    rplane.emplace(plan.workload.relay_count / plan.ids_with(proto.role).size(),
                   plan.sample_prob, relay::sampling_seed_of(plan.rng_seed),
                   plan.tally_path + ".pub.d/dc-" +
                       std::to_string(dc_index_of(plan, self)));
  }
  relay::relay_plane* const plane = rplane.has_value() ? &*rplane : nullptr;
  node_position position{plan, self};
  windowed_replay replay{plan.durable(), plane};
  std::uint32_t configured_round = 0;  // 1-based protocol round id
  bool quit = false;
  std::function<std::string()> final_stats;
  if (cursor.has_value()) {
    final_stats = [&] { return dc_stats_payload(*cursor, plane); };
  }

  // Collection phase, run inside the collect handler: the TS's next
  // control message (report request / stop) rides the same channel, so
  // per-channel FIFO guarantees it is processed only after the full window
  // landed in the DC. The workload is part of the plan, so every process —
  // and the in-process reference round — feeds the identical sequence.
  const auto collect = [&](std::uint32_t round) {
    const std::size_t index = round - 1;
    if (fault.delay && fault.delay_round == index) {
      std::this_thread::sleep_for(std::chrono::milliseconds{fault.delay_ms});
    }
    if (!cursor.has_value()) {
      if (proto.insert_items != nullptr) proto.insert_items(plan, self, dc);
      return;
    }
    const std::size_t replayed =
        replay.replay(*cursor, round_window_for(plan, sched, index), index, dc);
    if (round >= plan.schedule_rounds) {
      cursor->drain();  // trailing gap / feeder shutdown bytes
    }
    log_line{log_level::info}
        << proto.name << " DC " << self << " round " << round << ": replayed "
        << replayed << " events (" << dc.events_observed()
        << " observed to date, " << cursor->dropped_outside_windows()
        << " dropped outside windows)";
  };

  serve_until_done(
      net, plan, self,
      [&](const net::message& m) {
        const std::uint32_t configuring = proto.configure.match(m);
        const std::uint32_t collecting = proto.collect.match(m);
        if (configuring != 0) {
          rng = crypto::make_node_round_rng(plan.rng_seed, self, configuring);
        }
        if (fault.crash_in(collecting)) {
          maybe_crash(plan, self, "crash_in_round", collecting - 1);
        }
        position.record(configuring);
        dc.handle_message(m);
        if (configuring != 0) configured_round = configuring;
        // A collect or report for another round than the configured one is
        // stale control (a resent suffix after a restart).
        if (collecting != 0 && collecting == configured_round) {
          collect(collecting);
        }
        if (const std::uint32_t round = proto.report.match(m);
            round != 0 && round == configured_round) {
          if (fault.exit_after && round == fault.exit_round + 1) {
            quit = true;  // report for round k is out; exit between rounds
          }
          if (fault.crash_after(round)) {
            maybe_crash(plan, self, "crash_after_round", round - 1);
          }
        }
      },
      [&] { return quit; }, final_stats);
}

// dc_configure is both the configure and the collect message of a PSC DC.
const round_msg k_psc_dc_configure{
    static_cast<std::uint16_t>(psc::msg_type::dc_configure),
    [](const net::message& m) { return psc::decode_dc_configure(m).round_id; },
};

const dc_protocol<psc::data_collector> k_psc_dc{
    "PSC",
    node_role::psc_dc,
    k_psc_dc_configure,
    k_psc_dc_configure,
    {static_cast<std::uint16_t>(psc::msg_type::report_request),
     psc::decode_report_request},
    [](const deployment_plan& plan, psc::data_collector& dc) {
      dc.set_extractor(core::extractor_by_name(plan.psc_extractor));
    },
    [](const deployment_plan& plan, net::node_id self,
       psc::data_collector& dc) {
      for (const std::string& item : items_for_dc(plan, self)) {
        dc.insert_item(item);
      }
    },
};

const dc_protocol<privcount::data_collector> k_privcount_dc{
    "PrivCount",
    node_role::privcount_dc,
    {static_cast<std::uint16_t>(privcount::msg_type::configure),
     [](const net::message& m) {
       return privcount::decode_configure(m).round_id;
     }},
    {static_cast<std::uint16_t>(privcount::msg_type::start_collection),
     privcount::decode_round_id},
    {static_cast<std::uint16_t>(privcount::msg_type::stop_collection),
     privcount::decode_round_id},
    [](const deployment_plan& plan, privcount::data_collector& dc) {
      expects(!plan.instruments.empty(),
              "event workload needs at least one instrument");
      for (const auto& name : plan.instruments) {
        dc.add_instrument(core::instrument_by_name(name)());
      }
    },
    nullptr,
};

/// The crypto pool of a PSC TS or CP process. The CP chain is strictly
/// sequential (TS → CP1 → … → TS, for the mix and again for the decrypt),
/// so only one of these roles is busy at a time and each may use every
/// core. parallel_for also runs on the calling thread, hence one worker
/// fewer than the hardware threads; none at all on one core (a pool of 0
/// would mean "hardware concurrency"). The engine's bytes never depend on
/// the worker count.
[[nodiscard]] std::shared_ptr<util::thread_pool> make_psc_crypto_pool() {
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw <= 1) return nullptr;
  return std::make_shared<util::thread_pool>(hw - 1);
}

}  // namespace

node_result run_node(const deployment_plan& plan, net::node_id self) {
  net::tcp_options opts;
  if (plan.dc_grace_ms > 0) {
    // Fault-tolerant deployments give up on unreachable peers on the same
    // timescale they exclude stragglers — otherwise a dead DC's channel
    // would stall the final flush for the full (15 s) connect deadline.
    opts.connect_deadline_ms = static_cast<int>(std::clamp<std::int64_t>(
        2ll * plan.dc_grace_ms, 2'000, 60'000));
  }
  // Durable deployments expect peers to die and come back: a broken
  // channel re-arms on the next send instead of rejecting it forever.
  opts.repair_broken = plan.durable();
  if (plan.durable()) {
    std::filesystem::create_directories(plan.durable_dir);
  }
  net::tcp_net fabric{plan.endpoints(), opts};
  crypto::deterministic_rng rng = crypto::make_node_rng(plan.rng_seed, self);
  const net::node_id ts_id = plan.tally_server_id();

  const node_result result = [&]() -> node_result {
    switch (plan.node(self).role) {
      case node_role::psc_ts: {
        tolerant_transport net{fabric};
        psc::tally_server ts{self, net, plan.ids_with(node_role::psc_dc),
                             plan.ids_with(node_role::psc_cp)};
        ts.set_thread_pool(make_psc_crypto_pool());
        return run_ts(net, plan, self, ts, k_psc_ts);
      }
      case node_role::privcount_ts: {
        tolerant_transport net{fabric};
        privcount::tally_server ts{self, net,
                                   plan.ids_with(node_role::privcount_dc),
                                   plan.ids_with(node_role::privcount_sk)};
        ts.set_noise_enabled(plan.privcount_noise_enabled);
        return run_ts(net, plan, self, ts, k_privcount_ts);
      }
      case node_role::psc_cp: {
        psc::computation_party cp{self, ts_id, fabric, rng};
        cp.set_thread_pool(make_psc_crypto_pool());
        serve_peer(fabric, plan, self, rng, cp, k_psc_cp);
        return {};
      }
      case node_role::privcount_sk: {
        privcount::share_keeper sk{self, ts_id, fabric};
        serve_peer(fabric, plan, self, rng, sk, k_privcount_sk);
        return {};
      }
      case node_role::psc_dc: {
        psc::data_collector dc{self, ts_id, fabric, rng};
        serve_dc(fabric, plan, self, rng, dc, k_psc_dc);
        return {};
      }
      case node_role::privcount_dc: {
        privcount::data_collector dc{self, ts_id, fabric, rng};
        serve_dc(fabric, plan, self, rng, dc, k_privcount_dc);
        return {};
      }
    }
    throw invariant_error{"unhandled node role"};
  }();
  fabric.flush_sends();
  return result;
}

std::string serialize_psc_tally(std::uint64_t raw_count, std::uint64_t bins,
                                std::uint64_t total_noise_bits) {
  const psc::cardinality_estimate est =
      psc::estimate_cardinality(raw_count, bins, total_noise_bits);
  std::ostringstream out;
  out << "tormet-tally-v1\n";
  out << "protocol psc\n";
  out << "raw_count " << raw_count << "\n";
  out << "bins " << bins << "\n";
  out << "noise_bits " << total_noise_bits << "\n";
  out << "estimate " << format_double(est.cardinality) << "\n";
  return out.str();
}

std::string serialize_privcount_tally(
    const std::vector<privcount::counter_result>& results) {
  std::ostringstream out;
  out << "tormet-tally-v1\n";
  out << "protocol privcount\n";
  for (const auto& r : results) {
    out << "counter " << r.name << " " << r.value << " " << format_double(r.sigma)
        << "\n";
  }
  return out.str();
}

std::string serialize_multiround_tally(
    const std::vector<std::string>& round_tallies) {
  expects(!round_tallies.empty(), "no round tallies to serialize");
  if (round_tallies.size() == 1) return round_tallies.front();
  std::ostringstream out;
  out << "tormet-tally-multiround-v1\n";
  out << "rounds " << round_tallies.size() << "\n";
  for (std::size_t i = 0; i < round_tallies.size(); ++i) {
    out << "round " << (i + 1) << "\n" << round_tallies[i];
  }
  return out.str();
}

}  // namespace tormet::cli
