// The benchmark's three workloads, how one execution of each is run through
// the public entry points (workload::run_experiment, workload::SweepRunner),
// and the checks every execution's outputs must pass. NOTES.md explains why
// each workload was chosen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workload/runner.h"

namespace perfbench {

using harmony::workload::RunConfig;
using harmony::workload::RunResult;

enum class WorkloadId { kPolicySweep, kFlashCrowd, kGeoSharded };

std::optional<WorkloadId> parse_workload(std::string_view name);
const char* workload_name(WorkloadId w);

/// policy_sweep: four policy cells, each run for kSweepSeeds seeds on
/// SweepRunner with sweep_jobs() workers.
inline constexpr unsigned kSweepSeeds = 3;
inline constexpr std::uint64_t kSweepOpsPerCell = 100'000;
std::vector<RunConfig> policy_sweep_cells(std::uint64_t seed);
std::size_t sweep_jobs();

/// flash_crowd: open loop, serial kernel, one run per execution.
RunConfig flash_crowd_config(std::uint64_t seed);
/// The sharded_overload probe runs flash_crowd's traffic for simulation
/// seeds seed*kOverloadSeeds .. +kOverloadSeeds-1: whether the defect fires
/// depends on the seed (NOTES.md).
inline constexpr unsigned kOverloadSeeds = 3;
/// geo_sharded: open loop, no warmup (see sharded_warmup_config);
/// `shard_threads` 0 = unsharded serial kernel, 1 = merged-serial sharded
/// reference, kGeoShardThreads = the timed run.
inline constexpr unsigned kGeoShardThreads = 3;
RunConfig geo_sharded_config(std::uint64_t seed, unsigned shard_threads);
/// geo_sharded on kGeoShardThreads threads with the 500 ms warmup the other
/// open-loop workloads use: the sharded_warmup probe, which reproduces known
/// defect 1 (NOTES.md) on every invocation.
RunConfig sharded_warmup_config(std::uint64_t seed);

/// The same configuration with its traffic cut to the minimum the config
/// validation accepts (one op per closed-loop cell; an open-loop rate so low
/// that no arrival lands before generation stops one tick after warmup).
RunConfig minimal_traffic(RunConfig cfg);

/// The configurations one execution of `w` runs, in result order
/// (cell-major, seed-minor, as SweepStats::runs lists them).
std::vector<RunConfig> execution_configs(WorkloadId w, std::uint64_t seed);

struct Execution {
  std::vector<RunResult> runs;
  double wall_s = 0;  ///< host seconds for the whole public call(s)
  /// Process high-water RSS after the first run (after the whole sweep when
  /// its runs overlap): later sequential runs only add allocator
  /// fragmentation on top of what one run needs.
  double peak_rss_mb = 0;
};

/// One execution of workload `w` (its timed section), or of its minimal-
/// traffic variant when `minimal` (the set-up measurement).
Execution execute(WorkloadId w, std::uint64_t seed, bool minimal);

/// One run_experiment call.
Execution execute_one(const RunConfig& cfg);

/// Simulated client ops the run completed (whole run, warmup included).
std::uint64_t completed_ops(const RunConfig& cfg, const RunResult& r);
/// Simulated ops attempted and failed: timeouts, no replica, admission or
/// client-queue sheds. Open loop counts arrivals; closed loop the measured
/// window's ops (RunResult::ops / errors).
std::uint64_t attempted_ops(const RunConfig& cfg, const RunResult& r);
std::uint64_t failed_ops(const RunConfig& cfg, const RunResult& r);

/// One RunResult identity evaluated on one run.
struct OutputCheck {
  const char* name;
  bool ok;
  std::string detail;  ///< the identity and both sides, when it fails
};

/// Every RunResult identity (the open-loop ledger only for open-loop runs).
std::vector<OutputCheck> check_outputs(const RunResult& r);

/// Everything a deterministic rerun must reproduce exactly, as one string.
std::string fingerprint(const RunResult& r);

}  // namespace perfbench
