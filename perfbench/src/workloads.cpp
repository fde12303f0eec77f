#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/bismar.h"
#include "core/harmony.h"
#include "core/static_policy.h"
#include "workload/sweep.h"

namespace perfbench {

using namespace harmony;

std::optional<WorkloadId> parse_workload(std::string_view name) {
  if (name == "policy_sweep") return WorkloadId::kPolicySweep;
  if (name == "flash_crowd") return WorkloadId::kFlashCrowd;
  if (name == "geo_sharded") return WorkloadId::kGeoSharded;
  return std::nullopt;
}

const char* workload_name(WorkloadId w) {
  switch (w) {
    case WorkloadId::kPolicySweep: return "policy_sweep";
    case WorkloadId::kFlashCrowd: return "flash_crowd";
    case WorkloadId::kGeoSharded: return "geo_sharded";
  }
  return "?";
}

std::size_t sweep_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

std::vector<RunConfig> policy_sweep_cells(std::uint64_t seed) {
  // The §IV-A EC2 shape of bench_harmony_ec2: 20 VMs over two AZs.
  RunConfig base;
  base.cluster.node_count = 20;
  base.cluster.dc_count = 2;
  base.cluster.rf = 3;
  base.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  base.workload = workload::WorkloadSpec::heavy_read_update();
  base.workload.op_count = kSweepOpsPerCell;
  base.workload.record_count = 250;
  base.workload.clients_per_dc = 48;
  base.policy_tick = 200 * kMillisecond;
  base.warmup = 600 * kMillisecond;
  base.seed = seed;

  struct Cell {
    const char* label;
    policy::PolicyFactory policy;
  };
  const Cell cells[] = {
      {"static-one", core::static_level(cluster::Level::kOne)},
      {"harmony-0.40", core::harmony_policy(0.40)},
      {"bismar", core::bismar_policy()},
      {"static-quorum", core::static_level(cluster::Level::kQuorum)},
  };
  std::vector<RunConfig> out;
  for (const Cell& c : cells) {
    RunConfig cfg = base;
    cfg.label = c.label;
    cfg.policy = c.policy;
    out.push_back(std::move(cfg));
  }
  return out;
}

namespace {

constexpr SimDuration kOpenLoopWarmup = 500 * kMillisecond;

/// The bench_scale scenario-3 cluster: 9 nodes over 3 DCs, rf=3, 100k
/// records, 2 M simulated users, open loop.
RunConfig open_loop_base(std::uint64_t seed, workload::WorkloadSpec spec) {
  RunConfig cfg;
  cfg.cluster.node_count = 9;
  cfg.cluster.dc_count = 3;
  cfg.cluster.rf = 3;
  cfg.workload = std::move(spec);
  cfg.workload.record_count = 100'000;
  cfg.warmup = kOpenLoopWarmup;
  cfg.seed = seed;
  auto& ol = cfg.workload.open_loop;
  ol.enabled = true;
  ol.process = workload::ArrivalProcess::kPoisson;
  ol.user_count = 2'000'000;
  ol.drain_grace = 2 * kSecond;
  return cfg;
}

}  // namespace

RunConfig flash_crowd_config(std::uint64_t seed) {
  RunConfig cfg = open_loop_base(seed, workload::WorkloadSpec::ycsb_a());
  cfg.label = "flash_crowd";
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.cluster.latency.cross_dc.floor = kMillisecond;
  cfg.policy = core::static_level(cluster::Level::kOne);
  auto& ol = cfg.workload.open_loop;
  // Half the ~6000 ops/s closed-loop capacity bench_scale calibrates for
  // this shape, with an x8 flash crowd in the middle of the run.
  const SimDuration duration = 40 * kSecond;
  ol.rate_per_s = 3000;
  ol.duration = duration;
  ol.curve = workload::RateCurve::kFlashCrowd;
  ol.flash_multiplier = 8.0;
  ol.flash_at = duration / 2;
  ol.flash_ramp = duration / 10;
  ol.flash_hold = duration / 5;
  return cfg;
}

RunConfig geo_sharded_config(std::uint64_t seed, unsigned shard_threads) {
  RunConfig cfg = open_loop_base(seed, workload::WorkloadSpec::ycsb_b());
  cfg.label = "geo_sharded";
  cfg.cluster.latency = net::TieredLatencyModel::grid5000_two_sites();
  // The cross-DC floor is the sharded executor's conservative lookahead.
  cfg.cluster.latency.cross_dc.floor = 5 * kMillisecond;
  cfg.policy = core::harmony_policy(0.40);
  auto& ol = cfg.workload.open_loop;
  // About 75% of the ~8000 ops/s this shape saturates at.
  ol.rate_per_s = 6000;
  ol.duration = 60 * kSecond;
  ol.curve = workload::RateCurve::kConstant;
  cfg.num_shard_threads = shard_threads;
  // Measured from t=0: a sharded run with a warmup judges its warmup reads
  // too, so its stale counts break stale_identity (known defect 1, which
  // sharded_warmup_config() keeps reproducing).
  cfg.warmup = 0;
  return cfg;
}

RunConfig sharded_warmup_config(std::uint64_t seed) {
  RunConfig cfg = geo_sharded_config(seed, kGeoShardThreads);
  cfg.label = "geo_sharded_warmup";
  cfg.warmup = kOpenLoopWarmup;
  return cfg;
}

RunConfig minimal_traffic(RunConfig cfg) {
  if (cfg.workload.open_loop.enabled) {
    auto& ol = cfg.workload.open_loop;
    ol.duration = cfg.warmup + 1;  // generation must outlast the warmup
    ol.drain_grace = 0;
    ol.rate_per_s = 1e-6;  // mean gap ~11 simulated days: no arrival lands
  } else {
    cfg.workload.op_count = 1;
  }
  return cfg;
}

namespace {

/// One execution: `cells` x `seeds` (replicate i of a cell runs with seed
/// cell.seed + i) on `jobs` SweepRunner workers.
struct Plan {
  std::vector<RunConfig> cells;
  unsigned seeds = 1;
  std::size_t jobs = 1;
};

/// Multi-seed plans start at seed * seeds, so distinct --seed values never
/// share a simulation seed.
Plan plan(WorkloadId w, std::uint64_t seed) {
  switch (w) {
    case WorkloadId::kPolicySweep:
      return {policy_sweep_cells(seed * kSweepSeeds), kSweepSeeds,
              sweep_jobs()};
    case WorkloadId::kFlashCrowd:
      return {{flash_crowd_config(seed)}, 1, 1};
    case WorkloadId::kGeoSharded:
      return {{geo_sharded_config(seed, kGeoShardThreads)}, 1, 1};
  }
  return {};
}

}  // namespace

std::vector<RunConfig> execution_configs(WorkloadId w, std::uint64_t seed) {
  const Plan p = plan(w, seed);
  std::vector<RunConfig> out;
  for (const RunConfig& cell : p.cells) {
    for (unsigned i = 0; i < p.seeds; ++i) {
      RunConfig cfg = cell;
      cfg.seed = cell.seed + i;
      out.push_back(std::move(cfg));
    }
  }
  return out;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

Execution execute_one(const RunConfig& cfg) {
  Execution e;
  const auto t0 = std::chrono::steady_clock::now();
  e.runs.push_back(workload::run_experiment(cfg));
  e.wall_s = seconds_since(t0);
  e.peak_rss_mb = max_rss_mb();
  return e;
}

Execution execute(WorkloadId w, std::uint64_t seed, bool minimal) {
  Plan p = plan(w, seed);
  if (p.jobs == 1) {
    // Sequential runs: SweepRunner at jobs=1 is exactly this loop.
    Execution e;
    const auto t0 = std::chrono::steady_clock::now();
    for (const RunConfig& cfg : execution_configs(w, seed)) {
      e.runs.push_back(
          workload::run_experiment(minimal ? minimal_traffic(cfg) : cfg));
      if (e.runs.size() == 1) e.peak_rss_mb = max_rss_mb();
    }
    e.wall_s = seconds_since(t0);
    return e;
  }
  Execution e;
  const auto t0 = std::chrono::steady_clock::now();
  workload::SweepOptions opts;
  opts.seeds = p.seeds;
  opts.jobs = p.jobs;
  workload::SweepRunner sweep(opts);
  for (RunConfig& cell : p.cells) {
    sweep.add(minimal ? minimal_traffic(std::move(cell)) : std::move(cell));
  }
  std::vector<workload::SweepStats> stats = sweep.run();
  e.wall_s = seconds_since(t0);
  e.peak_rss_mb = max_rss_mb();
  for (workload::SweepStats& s : stats) {
    for (RunResult& r : s.runs) e.runs.push_back(std::move(r));
  }
  return e;
}

std::uint64_t completed_ops(const RunConfig& cfg, const RunResult& r) {
  return cfg.workload.open_loop.enabled ? r.open_loop.completed
                                        : cfg.workload.op_count;
}

std::uint64_t attempted_ops(const RunConfig& cfg, const RunResult& r) {
  return cfg.workload.open_loop.enabled ? r.open_loop.arrivals : r.ops;
}

std::uint64_t failed_ops(const RunConfig& cfg, const RunResult& r) {
  return cfg.workload.open_loop.enabled
             ? r.open_loop.failed + r.open_loop.shed_queue_full
             : r.errors;
}

std::vector<OutputCheck> check_outputs(const RunResult& r) {
  std::vector<OutputCheck> out;
  auto expect = [&out](const char* name, std::uint64_t lhs, std::uint64_t rhs,
                       const char* what) {
    char buf[256] = "";
    if (lhs != rhs) {
      std::snprintf(buf, sizeof buf, "%s (%llu != %llu)", what,
                    static_cast<unsigned long long>(lhs),
                    static_cast<unsigned long long>(rhs));
    }
    out.push_back({name, lhs == rhs, buf});
  };
  // RunResult::errors counts failed reads and failed writes alike, so the
  // ok-read count is read_latency.count(): every ok read records one latency
  // sample, one read-level entry and one oracle judgement.
  const std::uint64_t ok_reads = r.read_latency.count();
  expect("ops_identity", r.ops, r.reads + r.writes, "ops == reads + writes");
  expect("latency_identity", ok_reads + r.write_latency.count(),
         r.ops - r.errors,
         "read_latency.count() + write_latency.count() == ops - errors");
  std::uint64_t levels = 0;
  for (const auto& [k, n] : r.read_level_usage) levels += n;
  expect("read_level_identity", levels, ok_reads,
         "sum(read_level_usage) == reads - read errors");
  expect("stale_identity", r.stale_reads + r.fresh_reads, ok_reads,
         "stale_reads + fresh_reads == reads - read errors");
  const auto& ol = r.open_loop;
  if (ol.arrivals > 0) {
    expect("open_loop_ledger", ol.arrivals,
           ol.completed + ol.shed_queue_full + ol.queued_at_end +
               ol.in_flight_at_end,
           "arrivals == completed + shed_queue_full + queued + in_flight");
    expect("open_loop_issue_ledger", ol.issued,
           ol.completed + ol.in_flight_at_end,
           "issued == completed + in_flight");
  }
  return out;
}

std::string fingerprint(const RunResult& r) {
  const auto& ol = r.open_loop;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "events=%llu ops=%llu reads=%llu writes=%llu errors=%llu timeouts=%llu "
      "unavailable=%llu repairs=%llu stale=%llu fresh=%llu read_p50=%lld "
      "read_p99=%lld write_p99=%lld switches=%llu bill=%.17g bytes=%llu "
      "arrivals=%llu issued=%llu completed=%llu failed=%llu shed=%llu "
      "queued=%llu in_flight=%llu sla_ok=%llu queue_p99=%lld",
      static_cast<unsigned long long>(r.sim_events),
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.reads),
      static_cast<unsigned long long>(r.writes),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.timeouts),
      static_cast<unsigned long long>(r.unavailable),
      static_cast<unsigned long long>(r.read_repairs),
      static_cast<unsigned long long>(r.stale_reads),
      static_cast<unsigned long long>(r.fresh_reads),
      static_cast<long long>(r.read_latency.percentile(50)),
      static_cast<long long>(r.read_latency.percentile(99)),
      static_cast<long long>(r.write_latency.percentile(99)),
      static_cast<unsigned long long>(r.policy_switches), r.bill.total(),
      static_cast<unsigned long long>(r.net.total_bytes()),
      static_cast<unsigned long long>(ol.arrivals),
      static_cast<unsigned long long>(ol.issued),
      static_cast<unsigned long long>(ol.completed),
      static_cast<unsigned long long>(ol.failed),
      static_cast<unsigned long long>(ol.shed_queue_full),
      static_cast<unsigned long long>(ol.queued_at_end),
      static_cast<unsigned long long>(ol.in_flight_at_end),
      static_cast<unsigned long long>(ol.sla_ok),
      static_cast<long long>(ol.queueing_delay.percentile(99)));
  return buf;
}

}  // namespace perfbench
