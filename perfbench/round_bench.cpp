// End-to-end benchmark of a distributed measurement round, with a
// per-layer breakdown from a separate traced run.
//
//   round_bench --workload W --seed N --seconds S --trace 0|1
//               --node-bin PATH --work DIR [--tiny]
//
// One invocation runs one workload (so getrusage(RUSAGE_CHILDREN) is that
// workload's peak node RSS):
//   1. set-up, 3 to 15 times: the workload's inputs and plan, a pure
//      function of (workload, seed); every repetition must reproduce the
//      digest;
//   2. tor::trace_reader over the generated trace files, timed alone;
//   3. the traced in-process run (perfbench/traced_round.h), whose tally is
//      the reference;
//   4. timed distributed rounds (cli::run_distributed_round, one process
//      per node, tracing off, pace 0), started until S seconds have
//      passed and at least two; every run's tally must equal the
//      reference and its .summary must show no retried round and no
//      missed or excluded DC.
// It prints a human-readable table, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/clock.h"
#include "perfbench/traced_round.h"
#include "src/cli/orchestrator.h"
#include "src/cli/workload_source.h"
#include "src/crypto/sha256.h"
#include "src/tor/event_codec.h"
#include "src/tor/trace_file.h"
#include "src/workload/trace_gen.h"

namespace fs = std::filesystem;
using namespace tormet;
using namespace perfbench;

namespace {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string node_bin;
  std::string work;
  bool tiny = false;  // smoke-test sizes
  /// Smoke test of the tally check: alter the reference, so every timed
  /// run must be flagged.
  bool tamper_reference = false;
};

// Set-up repeats at least k_min_setups times, and up to k_max_setups
// while the repetitions so far took under k_setup_budget_s, so a fast
// set-up still gets a steady median.
constexpr int k_min_setups = 3;
constexpr int k_max_setups = 15;
constexpr double k_setup_budget_s = 2;
constexpr int k_min_runs = 2;
constexpr double k_budget_s = 150;  // stop starting runs past this
constexpr int k_round_timeout_ms = 60'000;

/// Handler spans by receiving role and message type: every one the two
/// protocols produce, so each workload reports the same metric names.
constexpr const char* k_handler_metrics[] = {
    "privcount.dc.configure_s", "privcount.dc.start_s",
    "privcount.dc.stop_s",      "privcount.sk.configure_s",
    "privcount.sk.blinding_s",  "privcount.sk.reveal_s",
    "privcount.ts.ready_s",     "privcount.ts.dc_report_s",
    "privcount.ts.sk_report_s", "psc.ts.keys_s",
    "psc.cp.configure_s",       "psc.dc.configure_s",
    "psc.dc.report_s",          "psc.ts.combine_s",
    "psc.cp.mix_s",             "psc.ts.mix_s",
    "psc.cp.decrypt_s",         "psc.ts.final_s",
};

/// A workload's generated inputs: the plan plus what it replays.
struct inputs {
  cli::deployment_plan plan;
  std::uint64_t events = 0;          ///< input events across all DCs
  std::vector<std::string> traces;   ///< per-DC trace files (trace kinds)
  double generate_s = 0;             ///< the generation call alone
};

/// Builds the workload's inputs under `dir`. A pure function of
/// (workload, seed, tiny): the same arguments give the same bytes.
inputs make_inputs(const options& o, const std::string& dir) {
  inputs in;
  workload::trace_gen_params gen;
  gen.dcs = 2;
  gen.seed = o.seed;
  cli::deployment_plan& plan = in.plan;
  if (o.workload == "privcount-replay") {
    gen.model = "zipf";
    gen.events = o.tiny ? 40'000 : 4'000'000;
    gen.days = 4;
    plan = cli::make_privcount_plan(gen.dcs, 2, {{"placeholder", 1, 1}});
    plan.durable_dir = dir + "/durable";  // replaced per timed run
    plan.dc_shards = 4;
    plan.dc_ingest_threads = 1;
  } else if (o.workload == "psc-p256") {
    gen.model = "zipf";
    gen.events = o.tiny ? 2'000 : 100'000;
    gen.days = 2;
    plan = cli::make_psc_plan(gen.dcs, 2, o.tiny ? 64 : 1024);
    plan.round.group =
        o.tiny ? crypto::group_backend::toy : crypto::group_backend::p256;
  } else if (o.workload == "relay-fanin") {
    gen.model = "zipf";
    gen.events = o.tiny ? 10'000 : 1'000'000;
    gen.days = 6;
    plan = cli::make_privcount_plan(gen.dcs, 2, {{"placeholder", 1, 1}});
    plan.workload.kind = cli::workload_kind::relays;
    plan.workload.relay_count = 20;
    plan.sample_prob = 0.5;
  } else {
    throw std::invalid_argument{"unknown workload: " + o.workload};
  }
  const cli::trace_round_defaults defaults = cli::defaults_for_model(gen.model);
  plan.instruments = defaults.instruments;
  plan.counters = defaults.counters;
  plan.psc_extractor = defaults.psc_extractor;
  plan.rng_seed = o.seed;
  plan.schedule_rounds = static_cast<std::uint32_t>(gen.days);
  plan.round_duration_s = k_seconds_per_day;
  plan.tally_path = dir + "/tally.out";

  const clock_type::time_point t0 = clock_type::now();
  if (plan.workload.kind == cli::workload_kind::relays) {
    plan.workload.model = gen.model;
    plan.workload.scale = gen.scale;
    plan.workload.events = gen.events;
    plan.workload.gen_seed = gen.seed;
    plan.workload.gen_days = gen.days;
    for (const auto& slice : workload::generate_trace_events(gen)) {
      in.events += slice.size();
    }
  } else {
    plan.workload.kind = cli::workload_kind::trace;
    plan.workload.trace_dir = dir;
    for (const std::size_t n : workload::write_trace_dir(gen, dir)) {
      in.events += n;
    }
    for (std::size_t k = 0; k < gen.dcs; ++k) {
      in.traces.push_back(dir + "/dc-" + std::to_string(k) + ".trace");
    }
  }
  in.generate_s = seconds_since(t0);
  cli::save_plan(plan, dir + "/plan.cfg");
  return in;
}

std::string hex(const crypto::sha256_digest& d) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : d) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

/// Digest of the generated inputs: the trace files' bytes, or for an
/// in-process generated workload the encoded events themselves. Plan
/// paths are excluded (they name the checkout).
std::string digest_of(const inputs& in) {
  crypto::sha256_hasher h;
  if (in.traces.empty()) {
    for (const auto& slice :
         workload::generate_trace_events(cli::trace_gen_params_of(in.plan))) {
      byte_buffer buf;
      for (const tor::event& ev : slice) tor::append_event_record(buf, ev);
      h.update_framed(buf);
    }
  } else {
    for (const std::string& path : in.traces) {
      std::ifstream f{path, std::ios::binary};
      const std::string bytes{std::istreambuf_iterator<char>{f}, {}};
      h.update_framed(as_bytes(bytes));
    }
  }
  return hex(h.finish());
}

/// Seconds from `spawn` to the last write of the TS's tally or .summary
/// (file mtimes): the round's end as the disk records it, finer than the
/// orchestrator's 20 ms exit polling. Falls back to `fallback_s` when the
/// timestamps are unusable.
double seconds_to_last_tally(const std::string& tally_path,
                             std::chrono::system_clock::time_point spawn,
                             double fallback_s) {
  double last = 0;
  for (const std::string& path : {tally_path, tally_path + ".summary"}) {
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) continue;
    const auto mtime = std::chrono::system_clock::time_point{
        std::chrono::duration_cast<std::chrono::system_clock::duration>(
            std::chrono::seconds{st.st_mtim.tv_sec} +
            std::chrono::nanoseconds{st.st_mtim.tv_nsec})};
    last = std::max(last, std::chrono::duration<double>(mtime - spawn).count());
  }
  return last > 0 && last <= fallback_s ? last : fallback_s;
}

/// Flushes the file system holding `dir`, so every timed run starts with
/// no dirty pages or pending journal work left by the previous one.
void flush_file_system(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Why a finished distributed run does not count as a clean round, from
/// the data-independent summary flags only (never the per-DC volume
/// lines); empty when clean.
std::string summary_problem(const std::string& summary) {
  if (summary.empty()) return "no .summary written";
  std::istringstream in{summary};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream f{line};
    std::string key;
    f >> key;
    if (key == "round_retries") {
      std::uint64_t n = 0;
      f >> n;
      if (n != 0) return "round retries: " + line;
    } else if (key == "excluded_now") {
      std::string id;
      if (f >> id) return "excluded DCs: " + line;
    } else if (key == "dc") {
      std::string id, name;
      std::uint64_t value = 0;
      f >> id;
      while (f >> name >> value) {
        if ((name == "missed" || name == "excluded") && value != 0) {
          return "DC " + id + " " + name + ": " + line;
        }
      }
    } else if (key == "dc_stats") {
      std::string id, name;
      std::uint64_t value = 0;
      if (f >> id >> name >> value && name == "stream_failed" && value != 0) {
        return "DC " + id + " stream failed";
      }
    }
  }
  return "";
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

options parse_args(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny" || arg == "--tamper-reference") {
      (arg == "--tiny" ? o.tiny : o.tamper_reference) = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + arg};
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--seconds") o.seconds = std::stod(v);
    else if (arg == "--trace") o.trace = v == "1";
    else if (arg == "--node-bin") o.node_bin = v;
    else if (arg == "--work") o.work = v;
    else throw std::invalid_argument{"unknown argument " + arg};
  }
  if (o.workload.empty() || o.node_bin.empty() || o.work.empty()) {
    throw std::invalid_argument{"--workload, --node-bin and --work are required"};
  }
  return o;
}

int run(const options& o) {
  const clock_type::time_point start = clock_type::now();
  bool correct = true;
  const std::string input_dir = o.work + "/inputs";

  // 1. Set-up, repeated: its median is setup_s, and each repetition must
  //    regenerate the same inputs.
  std::vector<double> setup_times;
  std::vector<double> generate_times;
  std::string digest;
  inputs in;
  double setup_total_s = 0;
  for (int rep = 0; rep < k_min_setups ||
                    (rep < k_max_setups && setup_total_s < k_setup_budget_s);
       ++rep) {
    fs::remove_all(input_dir);
    fs::create_directories(input_dir);
    flush_file_system(input_dir);
    const clock_type::time_point t0 = clock_type::now();
    in = make_inputs(o, input_dir);
    setup_times.push_back(seconds_since(t0));
    setup_total_s += setup_times.back();
    generate_times.push_back(in.generate_s);
    const std::string d = digest_of(in);
    if (rep == 0) {
      digest = d;
    } else if (d != digest) {
      std::cout << "FAIL: set-up " << rep << " regenerated digest " << d
                << ", first was " << digest << "\n";
      correct = false;
    }
  }
  const cli::deployment_plan& plan = in.plan;
  const double rounds = std::max<std::uint32_t>(1, plan.schedule_rounds);
  std::cout << "workload " << o.workload << " seed " << o.seed << ": "
            << in.events << " input events, " << plan.schedule_rounds
            << " rounds, " << plan.nodes.size() << " nodes\n"
            << "inputs digest " << digest << " (reproduced by "
            << setup_times.size() << " set-ups: " << (correct ? "yes" : "NO")
            << "; set-up median " << median(setup_times) << " s)\n";

  // 2. Trace decode alone, per DC file; the slowest DC is the one on the
  //    critical path.
  double decode_slowest_s = 0, decode_total_s = 0;
  std::uint64_t decoded = 0;
  for (const std::string& path : in.traces) {
    const clock_type::time_point t0 = clock_type::now();
    tor::trace_reader reader{path};
    while (reader.next().has_value()) {
    }
    const double s = seconds_since(t0);
    decode_slowest_s = std::max(decode_slowest_s, s);
    decode_total_s += s;
    decoded += reader.events_read();
  }

  // 3. Traced in-process run: per-layer spans and the reference tally.
  const traced_result traced = run_traced_round(plan, o.work);
  fs::remove_all(o.work + "/traced.pub.d");
  std::string reference = traced.tally;
  if (o.tamper_reference) reference += "tampered\n";

  // 4. Timed distributed runs, tracing off.
  std::vector<double> walls;
  std::size_t attempted = 0, failed = 0;
  double last_wall = 0;
  // Runs start until the window has passed, so the window is measured in
  // full even when one run is a third of it (psc-p256).
  const clock_type::time_point timed_start = clock_type::now();
  while (attempted < k_min_runs || seconds_since(timed_start) < o.seconds) {
    if (attempted > 0 && seconds_since(start) + last_wall > k_budget_s) break;
    const std::string run_dir = o.work + "/run-" + std::to_string(attempted);
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
    cli::deployment_plan p = plan;
    p.tally_path = run_dir + "/tally.out";
    if (p.durable()) p.durable_dir = run_dir + "/durable";
    for (auto& n : p.nodes) n.port = 0;
    cli::assign_free_ports(p);
    flush_file_system(run_dir);
    ++attempted;
    std::string problem;
    const auto spawn = std::chrono::system_clock::now();
    const clock_type::time_point t0 = clock_type::now();
    try {
      const cli::distributed_round_result res =
          cli::run_distributed_round(p, o.node_bin, run_dir, k_round_timeout_ms);
      last_wall = seconds_to_last_tally(p.tally_path, spawn, seconds_since(t0));
      if (res.tally != reference) {
        problem = "tally differs from the traced run";
        correct = false;
      } else {
        problem = summary_problem(res.summary);
      }
    } catch (const std::exception& e) {
      last_wall = seconds_since(t0);
      problem = e.what();
    }
    if (problem.empty()) {
      walls.push_back(last_wall);
      fs::remove_all(run_dir);
    } else {
      ++failed;
      std::cout << "FAIL: timed run " << attempted - 1 << ": " << problem
                << " (node logs under " << run_dir << ")\n";
    }
  }
  if (walls.empty()) correct = false;

  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  const double round_wall = median(walls);
  const double round_s = round_wall / rounds;
  std::cout << "timed runs: " << attempted << " attempted, " << failed
            << " failed; run wall (s):";
  for (const double w : walls) std::cout << " " << w;
  std::cout << "\n";

  // Per-layer table: critical-path self seconds per round.
  std::vector<metric> path;
  const std::string proto = plan.protocol;
  if (traced.generate_s > 0) {  // every DC process generates its events
    path.push_back({"workload.generate (in DC)", traced.generate_s / rounds, "s"});
  }
  path.push_back({"cli.cursor_s", traced.cursor_s / rounds, "s"});
  if (plan.workload.kind == cli::workload_kind::relays) {
    path.push_back({"relay.route_s", traced.route_s / rounds, "s"});
    path.push_back({"relay.close_window_s", traced.close_window_s / rounds, "s"});
  }
  path.push_back({proto + ".dc.ingest_s", traced.ingest_s / rounds, "s"});
  for (const auto& [name, s] : traced.handler_s) {
    path.push_back({name, s / rounds, "s"});
  }
  double critical = 0;
  for (const metric& m : path) critical += m.value;
  const metric top = *std::max_element(
      path.begin(), path.end(),
      [](const metric& a, const metric& b) { return a.value < b.value; });

  std::printf("\nper-layer critical path, seconds per round (%s, seed %llu)\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed));
  std::vector<metric> sorted = path;
  std::sort(sorted.begin(), sorted.end(),
            [](const metric& a, const metric& b) { return a.value > b.value; });
  for (const metric& m : sorted) {
    std::printf("  %-28s %10.5f  %5.1f%%\n", m.name.c_str(), m.value,
                round_s > 0 ? 100 * m.value / round_s : 0.0);
  }
  std::printf("  %-28s %10.5f\n  %-28s %10.5f\n  %-28s %10.5f  (median of %zu)\n",
              "critical path", critical, "net.unattributed_s",
              round_s - critical, "round_s (distributed)", round_s,
              walls.size());
  std::printf("top self-time layer: %s (%.1f%% of round_s)\n",
              top.name.c_str(), round_s > 0 ? 100 * top.value / round_s : 0.0);
  std::printf("traced in-process run wall: %.4f s\n", traced.wall_s);

  std::vector<metric> out;
  if (!o.trace) {
    out = {
        {"round_s", round_s, "s"},
        {"events_per_s", round_wall > 0 ? in.events / round_wall : 0, "1/s"},
        {"setup_s", median(setup_times), "s"},
        {"peak_rss_mb", children.ru_maxrss / 1024.0, "MB"},
        {"round_ok_ratio",
         attempted > 0 ? static_cast<double>(attempted - failed) / attempted : 0,
         "ratio"},
    };
  } else {
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const auto layer = [&](const std::string& name) {
      for (const metric& m : path) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    const bool psc = proto == "psc";
    const double eps = ratio(traced.ingest_events, traced.ingest_busy_s);
    out = {
        {"workload.generate_s", median(generate_times), "s"},
        {"tor.decode_s", decode_slowest_s / rounds, "s"},
        {"tor.decode_eps", ratio(decoded, decode_total_s), "1/s"},
        {"cli.cursor_s", layer("cli.cursor_s"), "s"},
        {"cli.cursor.windows", static_cast<double>(traced.windows), "count"},
        {"cli.cursor.events", static_cast<double>(traced.cursor_events), "count"},
        {"relay.route_s", layer("relay.route_s"), "s"},
        {"relay.close_window_s", layer("relay.close_window_s"), "s"},
        {"relay.publishes", static_cast<double>(traced.publishes), "count"},
        {"relay.pub_bytes", static_cast<double>(traced.pub_bytes), "bytes"},
        {"relay.accept_ratio",
         ratio(traced.accepted_windows, traced.publishes), "ratio"},
        {"privcount.dc.ingest_s", layer("privcount.dc.ingest_s"), "s"},
        {"privcount.dc.ingest_eps", psc ? 0 : eps, "1/s"},
        {"psc.dc.ingest_s", layer("psc.dc.ingest_s"), "s"},
        {"psc.dc.ingest_eps", psc ? eps : 0, "1/s"},
        {"psc.dc.distinct_ratio",
         ratio(traced.distinct_items, traced.extracted_events), "ratio"},
        {"net.messages", traced.messages / rounds, "count"},
        {"net.bytes", traced.message_bytes / rounds, "bytes"},
        {"net.unattributed_s", round_s - critical, "s"},
        {"trace.critical_path_s", critical, "s"},
    };
    for (const char* name : k_handler_metrics) {
      out.push_back({name, layer(name), "s"});
    }
  }
  print_json(correct, attempted, failed, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "round_bench: " << e.what() << "\n";
    return 1;
  }
}
