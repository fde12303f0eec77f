// The traced runner: the serial run_experiment stack rebuilt from public
// constructors (sim::Simulation, cluster::Cluster, monitor::Monitor, the
// policy factory, workload::Client / OpenLoopSource), with host-time spans
// recorded around every call into a layer from outside src/:
//   * the typed-event dispatchers (Cluster::dispatch_event,
//     Client::dispatch_event, OpenLoopSource::dispatch_arrival) are
//     re-registered behind timed wrappers after set-up;
//   * the Monitor is subclassed so every ClusterObserver hook is timed, and
//     Monitor::snapshot is timed at the policy tick;
//   * the policy is wrapped so tick / read_requirement / write_requirement
//     are timed;
//   * a StalenessOracle::TraceSink counts oracle calls by kind.
// A span's self time excludes the spans nested in it; kernel self time is the
// run span minus every outermost span (closure-lane events such as request
// timeouts are not wrapped and count as kernel time).
#pragma once

#include <array>
#include <cstdint>

#include "workloads.h"

namespace perfbench {

/// Host-time and count totals over every traced run (summed, not averaged).
struct LayerTotals {
  static constexpr std::size_t kKinds = 32;  ///< indexed by sim::EventKind
  std::array<std::uint64_t, kKinds> kind_events{};
  std::array<double, kKinds> kind_self_s{};

  double run_s = 0;        ///< Simulation::run span
  double top_s = 0;        ///< outermost spans inside it
  std::uint64_t events = 0;     ///< Simulation::events_processed
  std::uint64_t ops = 0;        ///< client ops completed (whole run)
  std::uint64_t reads = 0;      ///< client reads completed (whole run)

  double observe_s = 0;
  std::uint64_t observe_calls = 0;
  double snapshot_s = 0;
  double tick_s = 0;
  std::uint64_t ticks = 0;
  double requirement_s = 0;
  double next_op_s = 0;
  std::uint64_t switches = 0;

  std::uint64_t oracle_commits = 0;
  std::uint64_t oracle_begin_reads = 0;
  std::uint64_t oracle_end_reads = 0;
  std::uint64_t oracle_judges = 0;

  std::uint64_t replica_ops = 0;
  std::uint64_t read_repairs = 0;
  double busy_s = 0;       ///< simulated node busy time
  double node_s = 0;       ///< simulated node_count x run end
  std::uint64_t net_bytes = 0;
  std::uint64_t cross_dc_bytes = 0;

  double setup_cluster_s = 0;
  double setup_preload_s = 0;
  double setup_key_dist_s = 0;
  double setup_user_pop_s = 0;

  double wall_s = 0;       ///< host seconds of the traced runs, set-up included
};

/// Run `cfg` (which must be unsharded) through the traced serial stack and
/// add its spans and counts into `totals`. Returns the outputs the runner
/// reproduces from run_experiment (volume, staleness, latency, sim_events).
RunResult run_traced(const RunConfig& cfg, LayerTotals& totals);

}  // namespace perfbench
