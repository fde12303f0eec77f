// perfbench: one workload per invocation, measured in host time.
//
//   perfbench --workload <policy_sweep|flash_crowd|geo_sharded> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 repeats the workload's timed section for --seconds and reports
// the end-to-end metrics; --trace 1 adds the traced step and reports the
// per-layer metrics instead. Both check every run's outputs, rerun
// determinism and the two known-defect probes, print one line per named check,
// print nproc and the host, and end with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// NOTES.md documents the workloads, the metrics and the known defects.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "traced.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using harmony::sim::EventKind;

struct Args {
  WorkloadId workload = WorkloadId::kPolicySweep;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  bool overload_child = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--overload-child") {
      a.overload_child = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return false;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload || a.overload_child;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- named checks ----------------------------------------------------------

struct CheckResult {
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::string first_failure;
};

class Checks {
 public:
  void record(const std::string& name, bool ok,
              const std::string& detail = {}) {
    CheckResult& c = checks_[name];
    ++c.runs;
    if (!ok) {
      if (c.failures++ == 0) c.first_failure = detail;
    }
  }

  /// Run the RunResult identities on one execution; returns false when any
  /// identity fails.
  bool outputs(const Execution& e) {
    bool ok = true;
    for (const RunResult& r : e.runs) {
      for (const OutputCheck& c : check_outputs(r)) {
        record(c.name, c.ok, r.label + ": " + c.detail);
        ok &= c.ok;
      }
    }
    return ok;
  }

  /// Exact equality of two runs' fingerprints.
  bool same(const std::string& name, const RunResult& a, const RunResult& b) {
    const std::string fa = fingerprint(a), fb = fingerprint(b);
    record(name, fa == fb, a.label + ": [" + fa + "] vs [" + fb + "]");
    return fa == fb;
  }

  /// Count one checked execution; `ok` is false when any check on it failed.
  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  const std::map<std::string, CheckResult>& all() const { return checks_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, CheckResult> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- sharded-overload probe ------------------------------------------------

/// flash_crowd's traffic (each of the probe's seeds) on kGeoShardThreads shard
/// threads, in a child process: a failed contract check there aborts from a
/// worker thread.
void sharded_overload_probe(const char* self, std::uint64_t seed,
                            Checks& checks) {
  const std::string seed_arg = std::to_string(seed);
  const char* argv[] = {self, "--overload-child", "--seed", seed_arg.c_str(),
                        nullptr};
  int err_pipe[2];
  if (pipe(err_pipe) != 0) {
    checks.record("sharded_overload", false, "pipe() failed");
    return;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, err_pipe[1], 2);
  posix_spawn_file_actions_addclose(&fa, err_pipe[0]);
  posix_spawn_file_actions_addclose(&fa, err_pipe[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self, &fa, nullptr,
                             const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(err_pipe[1]);
  if (rc != 0) {
    close(err_pipe[0]);
    checks.record("sharded_overload", false, "posix_spawn failed");
    return;
  }
  std::string err;
  constexpr double kLimitS = 150;
  const auto t0 = std::chrono::steady_clock::now();
  bool killed = false;
  for (;;) {
    pollfd p{err_pipe[0], POLLIN, 0};
    const double left = kLimitS - seconds_since(t0);
    if (left <= 0) {
      kill(pid, SIGKILL);
      killed = true;
      break;
    }
    const int wait_ms = static_cast<int>(std::min(left, 1.0) * 1000);
    if (poll(&p, 1, wait_ms) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(err_pipe[0], buf, sizeof buf);
    if (n <= 0) break;
    err.append(buf, static_cast<std::size_t>(n));
  }
  close(err_pipe[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const double wall = seconds_since(t0);
  const bool ok = !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  std::string detail;
  if (killed) {
    detail = "killed after " + std::to_string(kLimitS) + " s";
  } else if (WIFSIGNALED(status)) {
    detail = "child died of signal " + std::to_string(WTERMSIG(status));
  } else {
    detail = "child exit code " + std::to_string(WEXITSTATUS(status));
  }
  // A check that throws on a shard worker names itself; one that unwinds the
  // control thread past live workers ends in a bare terminate.
  auto at = err.find("check failed:");
  if (at == std::string::npos) at = err.find("terminate called");
  if (at != std::string::npos) {
    const auto probe = err.rfind("probe seed ", at);
    if (probe != std::string::npos) {
      detail += ", " + err.substr(probe, err.find('\n', probe) - probe);
    }
    detail += ": " + err.substr(at, err.find('\n', at) - at);
  }
  char tail[64];
  std::snprintf(tail, sizeof tail, " (%.1f s wall)", wall);
  checks.record("sharded_overload", ok, detail + tail);
}

/// geo_sharded's traffic with a warmup, in process: every RunResult identity
/// of that run is recorded under "sharded_warmup.<name>".
void sharded_warmup_probe(std::uint64_t seed, Checks& checks) {
  const RunResult r =
      harmony::workload::run_experiment(sharded_warmup_config(seed));
  for (const OutputCheck& c : check_outputs(r)) {
    checks.record(std::string("sharded_warmup.") + c.name, c.ok,
                  r.label + ": " + c.detail);
  }
}

/// The probes run configurations no workload times; they are reported by
/// name but do not judge the measured workload's outputs (NOTES.md).
bool is_probe(const std::string& check) {
  return check == "sharded_overload" || check.rfind("sharded_warmup.", 0) == 0;
}

/// Runs the probe's flash_crowd seeds in order; the abort names the seed it
/// hit.
int overload_child(std::uint64_t seed) {
  for (unsigned i = 0; i < kOverloadSeeds; ++i) {
    RunConfig cfg = flash_crowd_config(seed * kOverloadSeeds + i);
    cfg.num_shard_threads = kGeoShardThreads;
    std::fprintf(stderr, "probe seed %llu\n",
                 static_cast<unsigned long long>(cfg.seed));
    std::fflush(stderr);
    const RunResult r = harmony::workload::run_experiment(cfg);
    std::fprintf(stderr, "%s\n", fingerprint(r).c_str());
  }
  return 0;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The kinds the workloads dispatch: none kills nodes or enables
/// anti-entropy, so kHintDeliver and kAntiEntropySweep never fire (the
/// repair leg total still includes them).
const std::pair<EventKind, const char*> kKindNames[] = {
    {EventKind::kStartWrite, "start_write"},
    {EventKind::kWriteApply, "write_apply"},
    {EventKind::kWriteApplied, "write_applied"},
    {EventKind::kWriteAck, "write_ack"},
    {EventKind::kStartRead, "start_read"},
    {EventKind::kReadServe, "read_serve"},
    {EventKind::kReadServed, "read_served"},
    {EventKind::kReadResponse, "read_response"},
    {EventKind::kWriteDeliver, "write_deliver"},
    {EventKind::kReadDeliver, "read_deliver"},
    {EventKind::kRepairArrive, "repair_arrive"},
    {EventKind::kRepairApply, "repair_apply"},
    {EventKind::kClientIssue, "client_issue"},
    {EventKind::kOpenLoopArrival, "open_loop_arrival"},
};

bool is_cluster_kind(EventKind k) {
  return harmony::sim::event_domain_index(k) ==
         static_cast<std::size_t>(harmony::sim::EventDomain::kCluster);
}

double leg_seconds(const LayerTotals& t,
                   std::initializer_list<EventKind> kinds) {
  double s = 0;
  for (const EventKind k : kinds) {
    s += t.kind_self_s[static_cast<std::size_t>(k)];
  }
  return s;
}

/// Everything the traced step measured, plus the untraced comparison runs.
struct TraceStep {
  LayerTotals t;
  double untraced_s = 0;  ///< the traced runs' configs, untraced
  double speedup_vs_merged_serial = 0;
  double speedup_vs_unsharded = 0;
  double sweep_efficiency = 0;
  double cell_s_max = 0;
};

std::vector<Metric> per_layer_metrics(const TraceStep& step,
                                      const Execution& first) {
  const LayerTotals& t = step.t;
  const double ops = static_cast<double>(t.ops);
  const double reads = static_cast<double>(t.reads);
  auto per = [](std::uint64_t n, double d) {
    return ratio(static_cast<double>(n), d);
  };
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  auto kind = [](EventKind k) { return static_cast<std::size_t>(k); };
  std::vector<Metric> m;

  std::uint64_t typed = 0;
  for (const auto n : t.kind_events) typed += n;
  m.push_back({"sim.events_per_op", per(t.events, ops), "events/op"});
  for (const auto& [k, name] : kKindNames) {
    m.push_back({std::string("sim.events_per_op.") + name,
                 per(t.kind_events[kind(k)], ops), "events/op"});
  }
  m.push_back({"sim.closure_events_per_op", per(t.events - typed, ops),
               "events/op"});
  const double kernel_self = t.run_s - t.top_s;
  m.push_back({"sim.kernel_self_s", kernel_self, "s"});
  m.push_back({"sim.kernel_ns_per_event",
               ratio(kernel_self * 1e9, count(t.events)), "ns"});

  std::uint64_t spills = 0;
  for (const RunResult& r : first.runs) spills += r.mailbox_spills;
  m.push_back({"shard.speedup_vs_merged_serial", step.speedup_vs_merged_serial,
               "x"});
  m.push_back({"shard.speedup_vs_unsharded", step.speedup_vs_unsharded, "x"});
  m.push_back({"shard.mailbox_spills", count(spills), "count"});

  m.push_back({"cluster.dispatch_s.write",
               leg_seconds(t, {EventKind::kStartWrite, EventKind::kWriteApply,
                               EventKind::kWriteApplied, EventKind::kWriteAck,
                               EventKind::kWriteDeliver}),
               "s"});
  m.push_back({"cluster.dispatch_s.read",
               leg_seconds(t, {EventKind::kStartRead, EventKind::kReadServe,
                               EventKind::kReadServed, EventKind::kReadResponse,
                               EventKind::kReadDeliver}),
               "s"});
  m.push_back({"cluster.dispatch_s.repair",
               leg_seconds(t, {EventKind::kRepairArrive,
                               EventKind::kRepairApply, EventKind::kHintDeliver,
                               EventKind::kAntiEntropySweep}),
               "s"});
  for (const auto& [k, name] : kKindNames) {
    if (!is_cluster_kind(k)) continue;
    m.push_back({std::string("cluster.ns_per_event.") + name,
                 ratio(t.kind_self_s[kind(k)] * 1e9,
                       count(t.kind_events[kind(k)])),
                 "ns"});
  }
  m.push_back({"cluster.oracle_calls_per_read.commit",
               per(t.oracle_commits, reads), "calls/read"});
  m.push_back({"cluster.oracle_calls_per_read.begin_read",
               per(t.oracle_begin_reads, reads), "calls/read"});
  m.push_back({"cluster.oracle_calls_per_read.end_read",
               per(t.oracle_end_reads, reads), "calls/read"});
  m.push_back({"cluster.oracle_calls_per_read.judge",
               per(t.oracle_judges, reads), "calls/read"});
  m.push_back({"cluster.replica_ops_per_op", per(t.replica_ops, ops),
               "ops/op"});
  m.push_back({"cluster.read_repairs_per_read", per(t.read_repairs, reads),
               "repairs/read"});
  m.push_back({"cluster.node_busy_share", ratio(t.busy_s, t.node_s),
               "fraction"});

  m.push_back({"net.bytes_per_op", per(t.net_bytes, ops), "B/op"});
  m.push_back({"net.cross_dc_share", per(t.cross_dc_bytes, count(t.net_bytes)),
               "fraction"});

  m.push_back({"monitor.observe_s", t.observe_s, "s"});
  m.push_back({"monitor.calls_per_op", per(t.observe_calls, ops), "calls/op"});
  m.push_back({"monitor.snapshot_s", t.snapshot_s, "s"});

  m.push_back({"core.tick_s", t.tick_s, "s"});
  m.push_back({"core.ticks", count(t.ticks), "count"});
  m.push_back({"core.requirement_s", t.requirement_s, "s"});
  m.push_back({"core.switches", count(t.switches), "count"});

  harmony::LatencyHistogram queueing;
  std::uint64_t sheds = 0, arrivals = 0;
  for (const RunResult& r : first.runs) {
    queueing.merge(r.open_loop.queueing_delay);
    sheds += r.open_loop.shed_queue_full + r.open_loop.shed_admission;
    arrivals += r.open_loop.arrivals;
  }
  m.push_back({"workload.next_op_s", t.next_op_s, "s"});
  m.push_back({"workload.arrival_s",
               t.kind_self_s[kind(EventKind::kOpenLoopArrival)], "s"});
  m.push_back({"workload.queue_delay_p99_ms",
               queueing.count() ? count(queueing.percentile(99)) / 1e3 : 0.0,
               "ms"});
  m.push_back({"workload.shed_share", per(sheds, count(arrivals)), "fraction"});
  m.push_back({"workload.sweep_efficiency", step.sweep_efficiency, "fraction"});
  m.push_back({"workload.cell_s_max", step.cell_s_max, "s"});

  m.push_back({"setup.cluster_s", t.setup_cluster_s, "s"});
  m.push_back({"setup.preload_s", t.setup_preload_s, "s"});
  m.push_back({"setup.key_dist_s", t.setup_key_dist_s, "s"});
  m.push_back({"setup.user_pop_s", t.setup_user_pop_s, "s"});

  m.push_back({"trace.overhead", ratio(t.wall_s, step.untraced_s), "x"});
  return m;
}

/// The traced step: the workload's configs through the traced runner, each
/// checked against run_experiment, plus the untraced comparison runs the
/// per-layer ratios need.
TraceStep trace_step(WorkloadId w, std::uint64_t seed, const Execution& first,
                     double timed_wall_s, Checks& checks) {
  TraceStep step;
  auto traced = [&](const RunConfig& cfg, const RunResult& reference) {
    const RunResult r = run_traced(cfg, step.t);
    const bool ok = r.sim_events == reference.sim_events &&
                    r.reads == reference.reads &&
                    r.writes == reference.writes &&
                    r.stale_reads == reference.stale_reads &&
                    r.read_latency.percentile(99) ==
                        reference.read_latency.percentile(99);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s: traced events=%llu reads=%llu writes=%llu stale=%llu "
                  "vs run_experiment %llu/%llu/%llu/%llu; its per-layer "
                  "numbers come from a different program",
                  cfg.label.c_str(),
                  static_cast<unsigned long long>(r.sim_events),
                  static_cast<unsigned long long>(r.reads),
                  static_cast<unsigned long long>(r.writes),
                  static_cast<unsigned long long>(r.stale_reads),
                  static_cast<unsigned long long>(reference.sim_events),
                  static_cast<unsigned long long>(reference.reads),
                  static_cast<unsigned long long>(reference.writes),
                  static_cast<unsigned long long>(reference.stale_reads));
    checks.record("traced_reproduction", ok, buf);
  };

  switch (w) {
    case WorkloadId::kPolicySweep: {
      // Every cell serially: its host seconds give the sweep's efficiency,
      // and it must equal the same cell from the timed jobs=N sweep.
      const std::vector<RunConfig> cfgs = execution_configs(w, seed);
      double cells_s = 0;
      for (std::size_t i = 0; i < cfgs.size(); ++i) {
        Execution serial = execute_one(cfgs[i]);
        checks.count(checks.outputs(serial) &
                     checks.same("sweep_cell_serial_match", serial.runs[0],
                                 first.runs[i]));
        cells_s += serial.wall_s;
        step.cell_s_max = std::max(step.cell_s_max, serial.wall_s);
        traced(cfgs[i], serial.runs[0]);
      }
      step.untraced_s = cells_s;
      step.sweep_efficiency =
          ratio(cells_s, static_cast<double>(sweep_jobs()) * timed_wall_s);
      break;
    }
    case WorkloadId::kFlashCrowd: {
      const std::vector<RunConfig> cfgs = execution_configs(w, seed);
      for (std::size_t i = 0; i < cfgs.size(); ++i) {
        traced(cfgs[i], first.runs[i]);
      }
      step.untraced_s = timed_wall_s;
      break;
    }
    case WorkloadId::kGeoSharded: {
      // The same traffic unsharded and merged-serial, three times each.
      std::vector<double> unsharded_s, merged_s;
      Execution unsharded;
      for (int i = 0; i < 3; ++i) {
        unsharded = execute_one(geo_sharded_config(seed, 0));
        checks.count(checks.outputs(unsharded));
        unsharded_s.push_back(unsharded.wall_s);
        const Execution merged = execute_one(geo_sharded_config(seed, 1));
        checks.count(checks.outputs(merged));
        merged_s.push_back(merged.wall_s);
      }
      step.speedup_vs_unsharded = ratio(median(unsharded_s), timed_wall_s);
      step.speedup_vs_merged_serial = ratio(median(merged_s), timed_wall_s);
      traced(geo_sharded_config(seed, 0), unsharded.runs[0]);
      step.untraced_s = median(unsharded_s);
      break;
    }
  }
  return step;
}

// ---- output ----------------------------------------------------------------

void append_metrics_json(std::string& out, const std::vector<Metric>& metrics) {
  out += "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void write_report(const Args& a, const std::string& host, unsigned nproc,
                  const Checks& checks, const std::vector<Metric>& metrics) {
  if (a.out_dir.empty()) return;
  const std::string path = a.out_dir + "/" + workload_name(a.workload) +
                           "-seed" + std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0") + ".json";
  std::string out = "{\"workload\": \"" +
                    std::string(workload_name(a.workload)) +
                    "\", \"seed\": " + std::to_string(a.seed) +
                    ", \"trace\": " + (a.trace ? "1" : "0") + ", \"host\": \"" +
                    json_escape(host) + "\", \"nproc\": " +
                    std::to_string(nproc) + ", \"checks\": {";
  bool comma = false;
  for (const auto& [name, c] : checks.all()) {
    out += std::string(comma ? ", " : "") + "\"" + name + "\": {\"pass\": " +
           (c.failures ? "false" : "true") +
           ", \"runs\": " + std::to_string(c.runs) +
           ", \"failures\": " + std::to_string(c.failures) +
           ", \"detail\": \"" + json_escape(c.first_failure) + "\"}";
    comma = true;
  }
  out += "}, \"metrics\": ";
  append_metrics_json(out, metrics);
  out += "}\n";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(out.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

int run(const Args& a, const char* self) {
  char hostname[256] = {};
  gethostname(hostname, sizeof hostname - 1);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const WorkloadId w = a.workload;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(w), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("host: %s nproc=%u sweep_jobs=%zu shard_threads=%u\n", hostname,
              nproc, sweep_jobs(), kGeoShardThreads);
  std::fflush(stdout);

  Checks checks;

  // ---- timed section: whole executions until --seconds have passed -------
  // The first execution warms the allocator and the page tables up: it is
  // checked and is the reference for the reruns, but its wall is not timed.
  const auto t0 = std::chrono::steady_clock::now();
  Execution first = execute(w, a.seed, /*minimal=*/false);
  checks.count(checks.outputs(first));
  const double warmup_wall_s = first.wall_s;
  // Set-up: the same workload with its traffic cut to the minimum. Set-ups
  // are interleaved with the timed executions, for a tenth of each one's
  // wall, so both medians sample the host over the same stretch of the run.
  std::vector<double> walls, setup;
  auto set_up_for = [&](double budget_s) {
    const auto s0 = std::chrono::steady_clock::now();
    do {
      const Execution e = execute(w, a.seed, /*minimal=*/true);
      setup.push_back(e.wall_s);
      checks.count(checks.outputs(e));
    } while (seconds_since(s0) < budget_s);
  };
  while (walls.size() < 3 || seconds_since(t0) < a.seconds) {
    Execution e = execute(w, a.seed, /*minimal=*/false);
    walls.push_back(e.wall_s);
    bool ok = checks.outputs(e);
    for (std::size_t i = 0; i < e.runs.size(); ++i) {
      ok &= checks.same("rerun_determinism", e.runs[i], first.runs[i]);
    }
    checks.count(ok);
    if (!a.trace) set_up_for(0.1 * e.wall_s);
  }
  while (!a.trace && setup.size() < 5) set_up_for(0);
  const double wall_s = median(walls);

  if (w == WorkloadId::kGeoSharded) {
    const Execution merged = execute_one(geo_sharded_config(a.seed, 1));
    checks.count(checks.outputs(merged) &
                 checks.same("shard_thread_invariance", first.runs[0],
                             merged.runs[0]));
  }

  std::vector<Metric> metrics;
  if (!a.trace) {
    const std::vector<RunConfig> cfgs = execution_configs(w, a.seed);
    std::uint64_t ops = 0, ops_attempted = 0, ops_failed = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      ops += completed_ops(cfgs[i], first.runs[i]);
      ops_attempted += attempted_ops(cfgs[i], first.runs[i]);
      ops_failed += failed_ops(cfgs[i], first.runs[i]);
    }
    const double op_fail_share = ratio(static_cast<double>(ops_failed),
                                       static_cast<double>(ops_attempted));
    metrics = {
        {"wall_s", wall_s, "s"},
        {"setup_s", median(setup), "s"},
        {"sim_ops_per_s", ratio(static_cast<double>(ops), wall_s), "ops/s"},
        {"peak_rss_mb", first.peak_rss_mb, "MB"},
        // Reported as its complement: op_fail_share is exactly 0 on the
        // closed-loop and below-capacity workloads, and a metric that can
        // read 0 has no relative bound.
        {"op_ok_share", 1.0 - op_fail_share, "fraction"},
    };
    std::printf(
        "timed: %zu executions after a %.3f s warm-up, wall_s median %.4f "
        "(min %.4f max %.4f); %zu set-ups\n",
        walls.size(), warmup_wall_s, wall_s,
        *std::min_element(walls.begin(), walls.end()),
        *std::max_element(walls.begin(), walls.end()), setup.size());
    std::printf("execution walls:");
    for (const double x : walls) std::printf(" %.3f", x);
    std::printf("\nset-up walls:");
    for (const double x : setup) std::printf(" %.4f", x);
    std::printf("\nfirst execution, run 0: %s\n",
                fingerprint(first.runs[0]).c_str());
    std::printf("op_fail_share = %.6g fraction (%llu of %llu ops failed)\n",
                op_fail_share, static_cast<unsigned long long>(ops_failed),
                static_cast<unsigned long long>(ops_attempted));
  } else {
    const TraceStep step = trace_step(w, a.seed, first, wall_s, checks);
    metrics = per_layer_metrics(step, first);
  }

  sharded_warmup_probe(a.seed, checks);
  sharded_overload_probe(self, a.seed, checks);

  bool correct = true;
  for (const auto& [name, c] : checks.all()) {
    if (!is_probe(name)) correct &= c.failures == 0;
    std::printf("check %s: %s (%llu runs, %llu failed)%s%s\n", name.c_str(),
                c.failures ? "FAIL" : "PASS",
                static_cast<unsigned long long>(c.runs),
                static_cast<unsigned long long>(c.failures),
                c.failures ? " first: " : "", c.first_failure.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  write_report(a, std::string(hostname), nproc, checks, metrics);

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted()) +
                     ", \"failed\": " + std::to_string(checks.failed()) +
                     ", \"metrics\": ";
  append_metrics_json(line, metrics);
  line += "}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!perfbench::parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: %s --workload "
                   "<policy_sweep|flash_crowd|geo_sharded> "
                   "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
                   argv[0]);
      return 2;
    }
    if (args.overload_child) return perfbench::overload_child(args.seed);
    return perfbench::run(args, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
