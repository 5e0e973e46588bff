// Round orchestration across real OS processes: assigns listen ports,
// writes the shared plan file, fork/execs one tormet_node per node, waits
// for the round with a deadline, and collects the tally the TS process
// wrote. Also runs the in-process reference round (inproc_net, same plan,
// same seeds) whose serialized tally must be byte-identical to the
// distributed one — the end-to-end check CI gates on.
#pragma once

#include <string>
#include <vector>

#include "src/cli/deployment_plan.h"

namespace tormet::cli {

struct node_exit {
  net::node_id id = 0;
  int exit_code = -1;  // -1: killed / did not exit cleanly
  int restarts = 0;    // supervisor respawns (durable deployments only)
};

struct distributed_round_result {
  std::string tally;  // bytes of the TS's tally file
  /// Privacy-safe deployment summary sidecar (tally_path + ".summary",
  /// empty when the TS wrote none): round/retry totals and per-DC
  /// participation counters — never measurement data.
  std::string summary;
  std::vector<node_exit> nodes;
};

/// Assigns a free loopback port to every node whose port is 0 and, for a
/// socket workload whose event_port_base is 0, a base with one free port
/// per DC (event_port_base + k). Every chosen port is bound until all are
/// chosen, then released.
void assign_free_ports(deployment_plan& plan);

/// Runs the plan's round in-process over the deterministic inproc bus and
/// returns the serialized tally. Node ids, per-node RNG streams, and DC
/// item sets all follow the plan, exactly as the node processes do.
[[nodiscard]] std::string run_reference_round(const deployment_plan& plan);

/// Spawns one `node_binary --config <plan> --node <id>` process per plan
/// node inside `workdir` (plan + tally + per-node logs live there), waits
/// up to `timeout_ms`, and returns the tally plus per-node exit codes.
/// Throws transport_error on timeout or when any node fails. In a durable
/// plan the call also supervises: a child that dies with the crash exit
/// code (42) is respawned — appending to its log — up to the plan's
/// max_restarts budget (a deployment-tuning key, default 5);
/// TORMET_RESTART_DELAY_MS delays each respawn (test knob for exercising
/// the exclusion-then-rejoin path).
[[nodiscard]] distributed_round_result run_distributed_round(
    const deployment_plan& plan, const std::string& node_binary,
    const std::string& workdir, int timeout_ms);

/// Creates a fresh scratch directory for one round (under TMPDIR).
[[nodiscard]] std::string make_round_workdir();

/// Path of the tormet_node binary installed next to the calling executable
/// ("" when absent). The orchestrator binary and tests use this default;
/// tests can override via the TORMET_NODE_BIN environment variable.
[[nodiscard]] std::string sibling_node_binary();

}  // namespace tormet::cli
