// The benchmark's traced run: the plan's whole round schedule executed
// in-process over net::inproc_net, with spans recorded from outside the
// program — around transport handlers (a timing net::transport), around
// each DC's ingest (a timing core::event_sink), and around the cursor and
// relay-plane calls that feed it. Nothing under src/ is instrumented.
//
// Every DC runs in its own process in a distributed round, so the traced
// run folds its spans into a critical path: for each DC phase the slowest
// DC counts (per round for the collection feed, per message type for the
// DC handlers, likewise for the parallel SKs), while the sequential phases
// — the TS and the CP chain — are summed.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/cli/deployment_plan.h"

namespace perfbench {

struct traced_result {
  /// Serialized multi-round tally (cli::serialize_*_tally): the reference
  /// every timed distributed run is byte-compared with.
  std::string tally;
  std::uint32_t rounds = 1;
  /// Wall seconds of the whole traced run (tracing overhead included).
  double wall_s = 0;

  /// In-round workload generation (the `relays` workload materializes its
  /// events in every DC process); 0 for trace-file workloads.
  double generate_s = 0;

  // Collection feed, critical-path self seconds summed over rounds: per
  // round, the DC whose feed (cursor + relay + ingest) took longest.
  double cursor_s = 0;       ///< stream_window minus its sink
  double route_s = 0;        ///< relay_plane::route
  double close_window_s = 0; ///< relay_plane::close_window minus ingest
  double ingest_s = 0;       ///< core::event_sink::ingest

  // Feed counts over every DC and round.
  std::uint64_t windows = 0;        ///< stream_window calls
  std::uint64_t cursor_events = 0;  ///< events the cursors delivered
  std::uint64_t ingest_events = 0;  ///< events the DCs ingested
  double ingest_busy_s = 0;         ///< ingest seconds summed over DCs
  /// PSC only: distinct extracted items and events, summed per DC-window.
  std::uint64_t distinct_items = 0;
  std::uint64_t extracted_events = 0;

  // Relay plane (relays workload only).
  std::uint64_t publishes = 0;        ///< agent window publishes
  std::uint64_t accepted_windows = 0; ///< windows the aggregators accepted
  std::uint64_t pub_bytes = 0;        ///< bytes written during close_window

  /// Handler busy seconds on the critical path, keyed by metric name
  /// (e.g. "psc.cp.mix_s"): max over parallel nodes (DCs, SKs), summed
  /// over sequential ones (TS, CPs).
  std::map<std::string, double> handler_s;
  std::uint64_t messages = 0;
  std::uint64_t message_bytes = 0;
};

/// Runs `plan`'s schedule in-process with tracing on. Relay publish
/// directories are created under `workdir`.
[[nodiscard]] traced_result run_traced_round(
    const tormet::cli::deployment_plan& plan, const std::string& workdir);

}  // namespace perfbench
