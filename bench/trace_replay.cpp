// Event-trace pipeline throughput: how fast measurement events move
// through the codec and replay path that feeds distributed data
// collectors. Stages measured over a generated mixed-model workload:
//   encode    — event -> length-prefixed records in memory
//   decode    — incremental event_decoder over the encoded stream
//   file I/O  — trace_writer out + trace_reader/replay_events back in
//   observe   — decode + full PrivCount instrument stack per event
// The paper's deployment handled ~2 B exit streams/day network-wide
// (~23 k events/s); per-DC ingestion has to beat its share comfortably.
// A parallel stage then measures the worker-pool ingest plane (serial vs
// 4 workers, PSC p256 and PrivCount) for the CI speedup gates. Every gated
// speedup is the median of 5 repetitions, reported with its min/max.
//
// With --days N the bench additionally measures the multi-round live
// pipeline's replay path: a generated N-day trace streamed through a
// cli::workload_cursor that partitions it into daily collection windows
// (the code path every DC runs across a multi-round schedule), reported as
// the median of 5 passes with its min/max (ungated).
//
// Usage: trace_replay [events] [--days N] [--json]
#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/cli/deployment_plan.h"
#include "src/cli/workload_source.h"
#include "src/core/instruments.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/group.h"
#include "src/net/inproc.h"
#include "src/privcount/data_collector.h"
#include "src/privcount/messages.h"
#include "src/psc/data_collector.h"
#include "src/psc/messages.h"
#include "src/tor/event_codec.h"
#include "src/tor/trace_file.h"
#include "src/util/thread_pool.h"
#include "src/workload/trace_gen.h"

namespace {

using namespace tormet;
using clock_type = std::chrono::steady_clock;

double secs_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Repetitions behind every gated speedup: one sample sits inside its own
/// noise near a bound, so the gates read the median of these.
constexpr int k_reps = 5;

struct spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

[[nodiscard]] spread spread_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return {xs[xs.size() / 2], xs.front(), xs.back()};
}

/// The stream taxonomy as a string callback, run behind
/// privcount::adapt_instrument: the per-event baseline of the
/// batched-ingest gate. It is deliberately not the compiled
/// core::instrument_stream_taxonomy(), so the gate's bound keeps comparing
/// per-increment name lookups against compiled slot ingest.
[[nodiscard]] privcount::legacy_instrument closure_stream_taxonomy() {
  return [](const tor::event& ev, const auto& incr) {
    const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
    if (s == nullptr) return;
    incr("streams/total", 1);
    if (!s->is_initial) return;
    incr("streams/initial", 1);
    switch (s->kind) {
      case tor::address_kind::hostname: {
        incr("streams/initial/hostname", 1);
        const bool web = s->port == 80 || s->port == 443;
        incr(web ? "streams/initial/hostname/web"
                 : "streams/initial/hostname/other",
             1);
        break;
      }
      case tor::address_kind::ipv4:
        incr("streams/initial/ipv4", 1);
        break;
      case tor::address_kind::ipv6:
        incr("streams/initial/ipv6", 1);
        break;
    }
  };
}

/// Multi-round replay throughput: one N-day trace streamed through the
/// workload_cursor's daily windows (the live pipeline's DC replay path),
/// repeated k_reps times; one pass takes only ~10 ms at 200k events, so a
/// single sample is mostly noise.
int run_multiround(std::uint64_t target_events, std::uint64_t days, bool json) {
  workload::trace_gen_params gen;
  gen.model = "zipf";
  gen.dcs = 1;
  gen.events = target_events;
  gen.days = days;
  gen.seed = 8;

  char tmpl[] = "/tmp/tormet-bench-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  const std::vector<std::size_t> counts = workload::write_trace_dir(gen, dir);
  const std::size_t n = counts.front();

  cli::deployment_plan plan = cli::make_privcount_plan(
      1, 1, core::default_specs_for("stream_taxonomy"));
  plan.workload.kind = cli::workload_kind::trace;
  plan.workload.trace_dir = dir;
  plan.instruments = {"stream_taxonomy"};
  plan.schedule_rounds = static_cast<std::uint32_t>(days);
  plan.round_duration_s = k_seconds_per_day;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9900 + i);
  }
  const core::measurement_schedule sched = cli::round_schedule_of(plan);

  std::vector<double> eps_reps;
  std::size_t replayed = n;
  for (int rep = 0; rep < k_reps && replayed == n; ++rep) {
    const auto t0 = clock_type::now();
    cli::workload_cursor cursor{plan, 0};
    replayed = 0;
    for (const auto& round : sched.rounds()) {
      replayed += cursor.stream_window(round.start, round.end(),
                                       [&](const tor::event*, std::size_t) {});
    }
    replayed += cursor.drain();
    eps_reps.push_back(static_cast<double>(n) / secs_since(t0));
  }

  const std::string path = std::string{dir} + "/" + tor::trace_file_name(0);
  std::remove(path.c_str());
  rmdir(dir);
  if (replayed != n) {
    std::fprintf(stderr, "multiround count mismatch: %zu of %zu\n", replayed, n);
    return 1;
  }
  const spread eps = spread_of(eps_reps);
  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay.multiround\",\"events\":%zu,\"days\":%llu,"
        "\"rounds\":%llu,\"reps\":%d,\"replay_eps\":%.0f,"
        "\"replay_eps_min\":%.0f,\"replay_eps_max\":%.0f}\n",
        n, static_cast<unsigned long long>(days),
        static_cast<unsigned long long>(days), k_reps, eps.median, eps.min,
        eps.max);
    return 0;
  }
  repro_table table{"Multi-round windowed replay (" + std::to_string(n) +
                    " events, " + std::to_string(days) +
                    " daily rounds, median of " + std::to_string(k_reps) + ")"};
  table.add("windowed file replay", "", format_count(eps.median) + " ev/s",
            "");
  table.print();
  return 0;
}

/// Batched-ingest throughput: the same generated stream pushed
/// through workload_cursor::stream_window into a DC's ingest() path
/// (compiled slot instruments + flat counter slabs), against the per-event
/// observe() baseline with the string-callback closure instrument behind
/// the adapter.
/// The CI gate pins the ratio, which is machine-independent.
int run_ingest(std::uint64_t target_events, bool json) {
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = target_events;
  params.seed = 8;
  const auto generated =
      std::make_shared<const std::vector<std::vector<tor::event>>>(
          workload::generate_trace_events(params));
  const std::vector<tor::event>& events = generated->front();
  const std::size_t n = events.size();

  cli::deployment_plan plan = cli::make_privcount_plan(
      1, 1, core::default_specs_for("stream_taxonomy"));
  plan.workload.kind = cli::workload_kind::generate;
  plan.workload.model = "zipf";
  plan.workload.events = target_events;
  plan.workload.gen_seed = 8;
  plan.instruments = {"stream_taxonomy"};

  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});  // absorb DC->TS sends
  crypto::deterministic_rng rng{1};
  const auto start_round = [](privcount::data_collector& dc) {
    privcount::configure_msg cfg;
    cfg.round_id = 1;
    for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(0.0);
    }
    dc.handle_message(privcount::encode_configure(0, 1, cfg));
    dc.handle_message(privcount::encode_simple(
        0, 1, privcount::msg_type::start_collection, 1));
  };
  constexpr sim_time k_begin{std::numeric_limits<std::int64_t>::min()};
  constexpr sim_time k_end{std::numeric_limits<std::int64_t>::max()};

  // -- scalar baseline: closure instrument, observe() per event -------------
  const auto measure_scalar = [&] {
    privcount::data_collector dc{1, 0, bus, rng};
    dc.add_instrument(privcount::adapt_instrument(closure_stream_taxonomy()));
    start_round(dc);
    std::size_t total = 0;
    const auto start = clock_type::now();
    do {
      for (const tor::event& ev : events) dc.observe(ev);
      total += n;
    } while (secs_since(start) < 0.2);
    const double s = secs_since(start);
    if (dc.events_observed() != total) {
      std::fprintf(stderr, "scalar count mismatch\n");
      std::exit(1);
    }
    return static_cast<double>(total) / s;
  };

  // -- batched ingest ---------------------------------------------------------
  const auto measure_ingest = [&] {
    privcount::data_collector dc{1, 0, bus, rng};
    dc.add_instrument(core::instrument_by_name("stream_taxonomy")());
    start_round(dc);
    std::size_t total = 0;
    const auto start = clock_type::now();
    do {
      cli::workload_cursor cursor{plan, 0, generated};
      cursor.stream_window(
          k_begin, k_end,
          [&dc](const tor::event* evs, std::size_t k) { dc.ingest(evs, k); });
      total += n;
    } while (secs_since(start) < 0.4);
    const double s = secs_since(start);
    if (dc.events_observed() != total) {
      std::fprintf(stderr, "ingest count mismatch\n");
      std::exit(1);
    }
    return static_cast<double>(total) / s;
  };

  std::vector<double> scalar_eps, ingest_eps, speedups;
  for (int rep = 0; rep < k_reps; ++rep) {
    scalar_eps.push_back(measure_scalar());
    ingest_eps.push_back(measure_ingest());
    speedups.push_back(ingest_eps.back() / scalar_eps.back());
  }
  const spread speedup = spread_of(speedups);
  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay.ingest\",\"events\":%zu,"
        "\"reps\":%d,\"ingest_eps\":%.0f,"
        "\"scalar_eps\":%.0f,\"speedup\":%.2f,\"speedup_min\":%.2f,"
        "\"speedup_max\":%.2f}\n",
        n, k_reps, spread_of(ingest_eps).median, spread_of(scalar_eps).median,
        speedup.median, speedup.min, speedup.max);
    return 0;
  }
  repro_table table{"Batched ingest (" + std::to_string(n) +
                    " events/pass, stream_taxonomy, median of " +
                    std::to_string(k_reps) + ")"};
  table.add("observe baseline", "",
            format_count(spread_of(scalar_eps).median) + " ev/s", "");
  table.add("batched ingest", "",
            format_count(spread_of(ingest_eps).median) + " ev/s",
            format_count(speedup.median) + "x");
  table.print();
  return 0;
}

/// Parallel-ingest speedup: serial single-thread ingest vs a 4-worker
/// pool, for both DC kinds, each span split contiguously across the
/// parties. PSC p256: each bin a span touches is one real EC encryption,
/// so it scales near-linearly and the CI gate pins the median 4-worker
/// speedup (>= 1.8x). PrivCount: each party runs the slab instruments over
/// its chunk into its own row; the CI gate pins the median at >= 1.0x (at
/// least as fast as serial). On machines with fewer than 4 cores the
/// speedups are meaningless; `skipped` tells the gates to stand down.
int run_parallel(bool json) {
  const std::size_t hw = std::thread::hardware_concurrency();
  const bool skipped = hw < 4;
  constexpr std::size_t k_workers = 4;

  // -- PSC p256: crypto-dominated seeded inserts ----------------------------
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = 2'000;
  params.seed = 8;
  const std::vector<tor::event> events =
      workload::generate_trace_events(params).front();

  const auto group = crypto::make_group(crypto::group_backend::p256);
  const crypto::elgamal scheme{group};
  crypto::deterministic_rng key_rng{5};
  const crypto::elgamal_keypair kp = scheme.generate_keypair(key_rng);

  const auto psc_eps = [&](std::shared_ptr<util::thread_pool> pool) {
    net::inproc_net bus;
    bus.register_node(0, [](const net::message&) {});
    crypto::deterministic_rng rng{1};
    psc::data_collector dc{1, 0, bus, rng};
    dc.set_extractor(core::extractor_by_name("primary_sld"));
    if (pool != nullptr) dc.set_thread_pool(std::move(pool));
    psc::dc_configure_msg cfg;
    cfg.round_id = 1;
    cfg.bins = 1024;
    cfg.group = static_cast<std::uint8_t>(crypto::group_backend::p256);
    cfg.joint_pk = group->encode(kp.pub);
    dc.handle_message(psc::encode_dc_configure(0, 1, cfg));
    std::size_t total = 0;
    const auto t0 = clock_type::now();
    do {
      dc.ingest(events.data(), events.size());
      total += events.size();
    } while (secs_since(t0) < 0.4);
    return static_cast<double>(total) / secs_since(t0);
  };

  // -- PrivCount: slab ingest split across the parties ----------------------
  params.events = 100'000;
  const std::vector<tor::event> pc_events =
      workload::generate_trace_events(params).front();
  const auto privcount_eps = [&](std::shared_ptr<util::thread_pool> pool) {
    net::inproc_net bus;
    bus.register_node(0, [](const net::message&) {});
    crypto::deterministic_rng rng{1};
    privcount::data_collector dc{1, 0, bus, rng};
    dc.add_instrument(core::instrument_by_name("stream_taxonomy")());
    if (pool != nullptr) dc.set_thread_pool(std::move(pool));
    privcount::configure_msg cfg;
    cfg.round_id = 1;
    for (const auto& spec : core::default_specs_for("stream_taxonomy")) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(0.0);
    }
    dc.handle_message(privcount::encode_configure(0, 1, cfg));
    dc.handle_message(privcount::encode_simple(
        0, 1, privcount::msg_type::start_collection, 1));
    std::size_t total = 0;
    const auto t0 = clock_type::now();
    do {
      dc.ingest(pc_events.data(), pc_events.size());
      total += pc_events.size();
    } while (secs_since(t0) < 0.4);
    return static_cast<double>(total) / secs_since(t0);
  };
  std::vector<double> psc_serial, psc_parallel, psc_speedups;
  std::vector<double> pc_serial, pc_parallel, pc_speedups;
  for (int rep = 0; rep < k_reps; ++rep) {
    psc_serial.push_back(psc_eps(nullptr));
    psc_parallel.push_back(
        psc_eps(std::make_shared<util::thread_pool>(k_workers)));
    psc_speedups.push_back(psc_parallel.back() / psc_serial.back());
    pc_serial.push_back(privcount_eps(nullptr));
    pc_parallel.push_back(
        privcount_eps(std::make_shared<util::thread_pool>(k_workers)));
    pc_speedups.push_back(pc_parallel.back() / pc_serial.back());
  }
  const spread psc_speedup = spread_of(psc_speedups);
  const spread pc_speedup = spread_of(pc_speedups);

  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay.parallel\",\"workers\":%zu,"
        "\"hw\":%zu,\"skipped\":%s,\"reps\":%d,\"psc_serial_eps\":%.0f,"
        "\"psc_parallel_eps\":%.0f,\"psc_speedup\":%.2f,"
        "\"psc_speedup_min\":%.2f,\"psc_speedup_max\":%.2f,"
        "\"privcount_serial_eps\":%.0f,\"privcount_parallel_eps\":%.0f,"
        "\"privcount_speedup\":%.2f,\"privcount_speedup_min\":%.2f,"
        "\"privcount_speedup_max\":%.2f}\n",
        k_workers, hw, skipped ? "true" : "false", k_reps,
        spread_of(psc_serial).median, spread_of(psc_parallel).median,
        psc_speedup.median, psc_speedup.min, psc_speedup.max,
        spread_of(pc_serial).median, spread_of(pc_parallel).median,
        pc_speedup.median, pc_speedup.min, pc_speedup.max);
    return 0;
  }
  repro_table table{"Parallel ingest on a 4-worker pool, median of " +
                    std::to_string(k_reps) + " (hw " + std::to_string(hw) +
                    (skipped ? ", gate skipped)" : ")")};
  table.add("PSC p256 serial", "",
            format_count(spread_of(psc_serial).median) + " ev/s", "");
  table.add("PSC p256 4 workers", "",
            format_count(spread_of(psc_parallel).median) + " ev/s",
            format_count(psc_speedup.median) + "x");
  table.add("PrivCount serial", "",
            format_count(spread_of(pc_serial).median) + " ev/s", "");
  table.add("PrivCount 4 workers", "",
            format_count(spread_of(pc_parallel).median) + " ev/s",
            format_count(pc_speedup.median) + "x");
  table.print();
  return 0;
}

/// Scenario replay throughput: the Mevade-shaped botnet_surge workload
/// (PR 9's heaviest scenario — day 1 doubles the event rate) materialized
/// from its plan spec and streamed through the daily-window cursor path
/// into a DC. This is exactly the code path the scenario
/// acceptance gate drives; the CI artifact tracks its events/s.
int run_scenario(bool json) {
  cli::deployment_plan plan = cli::make_privcount_plan(
      1, 1, core::default_specs_for("entry_totals"));
  plan.workload.kind = cli::workload_kind::scenario;
  plan.workload.model = "botnet_surge";
  plan.workload.scale = 1.0;
  plan.workload.events = 50'000;
  plan.workload.gen_seed = 8;
  plan.workload.gen_days = 2;
  plan.instruments = {"entry_totals"};
  plan.schedule_rounds = 2;
  plan.round_duration_s = k_seconds_per_day;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    plan.nodes[i].port = static_cast<std::uint16_t>(9800 + i);
  }

  const auto gen_t0 = clock_type::now();
  const auto generated = cli::materialize_plan_events(plan);
  const double generate_s = secs_since(gen_t0);
  const std::size_t n = generated->front().size();
  const core::measurement_schedule sched = cli::round_schedule_of(plan);

  net::inproc_net bus;
  bus.register_node(0, [](const net::message&) {});
  crypto::deterministic_rng rng{1};
  privcount::data_collector dc{1, 0, bus, rng};
  dc.add_instrument(core::instrument_by_name("entry_totals")());
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& spec : core::default_specs_for("entry_totals")) {
    cfg.counter_names.push_back(spec.name);
    cfg.sigmas.push_back(0.0);
  }
  dc.handle_message(privcount::encode_configure(0, 1, cfg));
  dc.handle_message(
      privcount::encode_simple(0, 1, privcount::msg_type::start_collection, 1));

  std::size_t total = 0;
  const auto t0 = clock_type::now();
  do {
    cli::workload_cursor cursor{plan, 0, generated};
    std::size_t replayed = 0;
    for (const auto& round : sched.rounds()) {
      replayed += cursor.stream_window(
          round.start, round.end(),
          [&dc](const tor::event* evs, std::size_t k) { dc.ingest(evs, k); });
    }
    replayed += cursor.drain();
    if (replayed != n) {
      std::fprintf(stderr, "scenario replay mismatch: %zu of %zu\n", replayed,
                   n);
      return 1;
    }
    total += n;
  } while (secs_since(t0) < 0.4);
  const double eps = static_cast<double>(total) / secs_since(t0);

  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay.scenario\",\"scenario\":\"botnet_surge\","
        "\"events\":%zu,\"rounds\":2,\"generate_s\":%.3f,\"replay_eps\":%.0f}"
        "\n",
        n, generate_s, eps);
    return 0;
  }
  repro_table table{"Scenario replay, botnet_surge (" + std::to_string(n) +
                    " events, 2 daily rounds)"};
  table.add("materialize from plan", "",
            format_count(static_cast<double>(n) / generate_s) + " ev/s", "");
  table.add("windowed replay + ingest", "", format_count(eps) + " ev/s", "");
  table.print();
  return 0;
}

int run(std::uint64_t target_events, bool json) {
  workload::trace_gen_params params;
  params.model = "zipf";
  params.dcs = 1;
  params.events = target_events;
  params.seed = 8;
  const std::vector<tor::event> events =
      workload::generate_trace_events(params).front();
  const std::size_t n = events.size();

  // -- encode ---------------------------------------------------------------
  auto t0 = clock_type::now();
  byte_buffer stream;
  tor::append_trace_header(stream);
  for (const tor::event& ev : events) tor::append_event_record(stream, ev);
  const double encode_s = secs_since(t0);
  const double mib = static_cast<double>(stream.size()) / (1 << 20);

  // -- decode ---------------------------------------------------------------
  t0 = clock_type::now();
  tor::event_decoder decoder;
  decoder.feed(stream);
  std::size_t decoded = 0;
  while (decoder.next().has_value()) ++decoded;
  const double decode_s = secs_since(t0);

  // -- file round trip ------------------------------------------------------
  char tmpl[] = "/tmp/tormet-bench-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  const std::string path = std::string{dir} + "/bench.trace";
  t0 = clock_type::now();
  {
    tor::trace_writer writer{path};
    for (const tor::event& ev : events) writer.write(ev);
    writer.close();
  }
  const double write_s = secs_since(t0);
  t0 = clock_type::now();
  tor::trace_reader reader{path};
  std::size_t replayed = 0;
  tor::replay_events(reader, [&replayed](const tor::event&) { ++replayed; });
  const double read_s = secs_since(t0);
  std::remove(path.c_str());
  rmdir(dir);

  // -- observe through the full instrument stack ----------------------------
  net::inproc_net bus;
  crypto::deterministic_rng rng{1};
  privcount::data_collector dc{1, 0, bus, rng};
  for (const auto& name : core::instrument_names()) {
    dc.add_instrument(core::instrument_by_name(name)());
  }
  // Drive the DC into collecting state through a minimal configure+start.
  privcount::configure_msg cfg;
  cfg.round_id = 1;
  for (const auto& name : core::instrument_names()) {
    for (const auto& spec : core::default_specs_for(name)) {
      cfg.counter_names.push_back(spec.name);
      cfg.sigmas.push_back(0.0);
    }
  }
  bus.register_node(0, [](const net::message&) {});  // absorb DC->TS sends
  dc.handle_message(privcount::encode_configure(0, 1, cfg));
  dc.handle_message(privcount::encode_simple(
      0, 1, privcount::msg_type::start_collection, 1));
  t0 = clock_type::now();
  for (const tor::event& ev : events) dc.observe(ev);
  const double observe_s = secs_since(t0);

  if (decoded != n || replayed != n || dc.events_observed() != n) {
    std::fprintf(stderr, "count mismatch: %zu decoded, %zu replayed\n",
                 decoded, replayed);
    return 1;
  }

  const auto rate = [n](double s) { return static_cast<double>(n) / s; };
  if (json) {
    std::printf(
        "{\"bench\":\"trace_replay\",\"events\":%zu,\"stream_mib\":%.2f,"
        "\"encode_eps\":%.0f,\"decode_eps\":%.0f,\"write_eps\":%.0f,"
        "\"read_eps\":%.0f,\"observe_eps\":%.0f}\n",
        n, mib, rate(encode_s), rate(decode_s), rate(write_s), rate(read_s),
        rate(observe_s));
    return 0;
  }
  repro_table table{"Event-trace pipeline throughput (" + std::to_string(n) +
                    " events, " + format_count(mib) + " MiB stream)"};
  table.add("encode", "", format_count(rate(encode_s)) + " ev/s",
            format_count(mib / encode_s) + " MiB/s");
  table.add("decode", "", format_count(rate(decode_s)) + " ev/s",
            format_count(mib / decode_s) + " MiB/s");
  table.add("file write", "", format_count(rate(write_s)) + " ev/s", "");
  table.add("file read+replay", "", format_count(rate(read_s)) + " ev/s", "");
  table.add("observe (" + std::to_string(core::instrument_names().size()) +
                " instruments)",
            "",
            format_count(rate(observe_s)) + " ev/s", "");
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 200'000;
  std::uint64_t days = 1;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = std::strtoull(argv[++i], nullptr, 10);
    } else {
      events = std::strtoull(argv[i], nullptr, 10);
    }
  }
  int rc = run(events, json);
  if (rc == 0) rc = run_ingest(events, json);
  if (rc == 0) rc = run_parallel(json);
  if (rc == 0) rc = run_scenario(json);
  if (rc != 0 || days <= 1) return rc;
  return run_multiround(events, days, json);
}
