#include "traced.h"

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "monitor/monitor.h"
#include "sim/simulation.h"
#include "workload/client.h"
#include "workload/open_loop.h"

namespace perfbench {

using namespace harmony;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span ids: 0..31 are sim::EventKind values (typed dispatches); the rest
/// are the calls the traced runner wraps outside the dispatchers.
enum Layer : std::size_t {
  kObserve = LayerTotals::kKinds,
  kSnapshot,
  kTick,
  kRequirement,
  kNextOp,
  kLayerCount,
};

/// Span stack of the one traced run in progress. The dispatcher wrappers are
/// plain function pointers, so they reach it through g_tracer.
struct Tracer {
  struct Frame {
    std::int64_t start = 0;
    std::int64_t child = 0;  ///< nested span time, excluded from self time
  };
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::int64_t top_ns = 0;
  std::array<Frame, 64> stack{};
  std::size_t depth = 0;
};

Tracer* g_tracer = nullptr;

class Span {
 public:
  explicit Span(std::size_t layer) : layer_(layer) {
    Tracer& t = *g_tracer;
    HARMONY_CHECK_MSG(t.depth < t.stack.size(), "span stack overflow");
    t.stack[t.depth++] = Tracer::Frame{now_ns(), 0};
  }
  ~Span() {
    Tracer& t = *g_tracer;
    const Tracer::Frame f = t.stack[--t.depth];
    const std::int64_t dur = now_ns() - f.start;
    t.self_ns[layer_] += dur - f.child;
    ++t.calls[layer_];
    if (t.depth > 0) {
      t.stack[t.depth - 1].child += dur;
    } else {
      t.top_ns += dur;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t layer_;
};

void timed_cluster_dispatch(const sim::TypedEvent& ev) {
  Span s(static_cast<std::size_t>(ev.kind));
  cluster::Cluster::dispatch_event(ev);
}

void timed_workload_dispatch(const sim::TypedEvent& ev) {
  Span s(static_cast<std::size_t>(ev.kind));
  if (ev.kind == sim::EventKind::kOpenLoopArrival) {
    workload::OpenLoopSource::dispatch_arrival(ev);
  } else {
    workload::Client::dispatch_event(ev);
  }
}

class TimedMonitor final : public monitor::Monitor {
 public:
  using Monitor::Monitor;

  void record_read_issued(SimTime now, std::uint64_t key) override {
    Span s(kObserve);
    Monitor::record_read_issued(now, key);
  }
  void record_write_issued(SimTime now, std::uint64_t key,
                           std::uint32_t value_size) override {
    Span s(kObserve);
    Monitor::record_write_issued(now, key, value_size);
  }
  void record_read_complete(SimTime now, SimDuration latency) override {
    Span s(kObserve);
    Monitor::record_read_complete(now, latency);
  }
  void record_write_complete(SimTime now, SimDuration latency) override {
    Span s(kObserve);
    Monitor::record_write_complete(now, latency);
  }
  void on_write_propagated(cluster::Key key, SimTime write_start,
                           const cluster::DelayList& delays) override {
    Span s(kObserve);
    Monitor::on_write_propagated(key, write_start, delays);
  }
  void on_replica_read_rtt(net::NodeId replica, SimDuration rtt,
                           bool cross_dc) override {
    Span s(kObserve);
    Monitor::on_replica_read_rtt(replica, rtt, cross_dc);
  }
};

class TimedPolicy final : public policy::ConsistencyPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<policy::ConsistencyPolicy> inner)
      : inner_(std::move(inner)) {}

  cluster::ReplicaRequirement read_requirement() const override {
    Span s(kRequirement);
    return inner_->read_requirement();
  }
  cluster::ReplicaRequirement write_requirement() const override {
    Span s(kRequirement);
    return inner_->write_requirement();
  }
  void tick(const monitor::SystemState& state) override {
    Span s(kTick);
    inner_->tick(state);
  }
  std::string name() const override { return inner_->name(); }
  std::uint64_t switches() const override { return inner_->switches(); }

 private:
  std::unique_ptr<policy::ConsistencyPolicy> inner_;
};

class OracleCounter final : public cluster::StalenessOracle::TraceSink {
 public:
  explicit OracleCounter(LayerTotals& t) : t_(&t) {}
  void on_commit(cluster::Key, const cluster::Version&, SimTime) override {
    ++t_->oracle_commits;
  }
  void on_begin_read(SimTime) override { ++t_->oracle_begin_reads; }
  void on_end_read(SimTime) override { ++t_->oracle_end_reads; }
  void on_judge(cluster::Key, const cluster::Version&, SimTime,
                const cluster::StalenessOracle::Judgement&) override {
    ++t_->oracle_judges;
  }

 private:
  LayerTotals* t_;
};

double since_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// The serial path of workload::run_experiment, step for step: the same
/// construction order (so every RNG fork draws the same stream), the same
/// client/source set-up, policy timer, warmup flip and measurement tallies.
/// Any drift shows up in the reproduction check main.cpp runs against
/// run_experiment.
class TracedRunner final : public workload::ClientEnv {
 public:
  TracedRunner(const RunConfig& cfg, LayerTotals& totals)
      : cfg_(cfg), totals_(&totals), sim_(cfg.seed), monitor_(cfg.monitor),
        oracle_counter_(totals) {
    HARMONY_CHECK_MSG(cfg_.num_shard_threads == 0,
                      "the traced runner rebuilds the serial stack only");
    std::int64_t t0 = now_ns();
    cluster_.emplace(sim_, cfg_.cluster);
    totals_->setup_cluster_s += since_s(t0);
    op_rng_ = sim_.fork_rng(0x0FAB5EED);
    t0 = now_ns();
    request_dist_ =
        cfg_.workload.request_dist.build(cfg_.workload.record_count);
    totals_->setup_key_dist_s += since_s(t0);
    cfg_.workload.validate();
    monitor_.attach(*cluster_, /*client_home_dc=*/0);
    policy::PolicyInit init;
    init.rf = cfg_.cluster.rf;
    init.local_rf = cfg_.cluster.local_rf(0);
    init.rng = sim_.fork_rng(0x90110C);
    policy_ = std::make_unique<TimedPolicy>(cfg_.policy(init));
    cluster_->oracle().set_trace_sink(&oracle_counter_);
  }

  RunResult run() {
    std::int64_t t0 = now_ns();
    cluster_->preload_range(cfg_.workload.record_count,
                            cfg_.workload.value_size);
    totals_->setup_preload_s += since_s(t0);
    next_insert_key_ = cfg_.workload.record_count;
    if (cfg_.workload.open_loop.enabled) {
      setup_open_loop();
    } else {
      for (std::size_t d = 0; d < cfg_.cluster.dc_count; ++d) {
        if (!hosts_clients(d)) continue;
        for (int i = 0; i < cfg_.workload.clients_per_dc; ++i) {
          clients_.push_back(std::make_unique<workload::Client>(
              *this, static_cast<net::DcId>(d),
              cfg_.workload.target_rate_per_client,
              sim_.fork_rng(0xC11E017 + clients_.size()),
              cfg_.workload.reroute_on_dc_outage,
              cfg_.workload.shed_retry_limit, 0));
        }
      }
      for (auto& c : clients_) c->start();
    }
    for (const auto& fault : cfg_.fault_schedule) {
      cluster_->schedule_fault(fault);
    }
    policy_timer_.start(sim_, cfg_.policy_tick, [this] {
      std::optional<monitor::SystemState> state;
      {
        Span s(kSnapshot);
        state.emplace(monitor_.snapshot(sim_.now()));
      }
      policy_->tick(*state);
    });
    if (cfg_.warmup > 0) {
      sim_.schedule(cfg_.warmup, [this] { begin_measurement(); });
    } else {
      begin_measurement();
    }

    // Set-up registered the real dispatchers; time them from here on.
    sim_.set_event_dispatcher(sim::EventDomain::kCluster,
                              &timed_cluster_dispatch);
    sim_.set_event_dispatcher(sim::EventDomain::kWorkload,
                              &timed_workload_dispatch);
    t0 = now_ns();
    if (cfg_.workload.open_loop.enabled) {
      sim_.run_until(cfg_.workload.open_loop.duration +
                     cfg_.workload.open_loop.drain_grace);
    } else {
      sim_.run();
    }
    totals_->run_s += since_s(t0);
    return collect();
  }

  // ---- ClientEnv -----------------------------------------------------------

  bool next_op(workload::Op& op) override {
    Span s(kNextOp);
    if (ops_issued_ >= cfg_.workload.op_count) return false;
    ++ops_issued_;
    const workload::WorkloadSpec& w = cfg_.workload;
    const double weights[4] = {w.read_proportion, w.update_proportion,
                               w.insert_proportion, w.rmw_proportion};
    switch (op_rng_.weighted_index(weights, 4)) {
      case 0: op.type = workload::OpType::kRead; break;
      case 1: op.type = workload::OpType::kUpdate; break;
      case 2: op.type = workload::OpType::kInsert; break;
      default: op.type = workload::OpType::kReadModifyWrite; break;
    }
    if (op.type == workload::OpType::kInsert) {
      op.key = next_insert_key_++;
      request_dist_->grow(next_insert_key_);
    } else {
      op.key = request_dist_->next(op_rng_);
    }
    op.value_size = w.value_size;
    return true;
  }

  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return *cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }

  void on_read_complete(const cluster::ReadResult& r, SimDuration latency,
                        int replicas_requested) override {
    ++totals_->ops;
    ++totals_->reads;
    if (!measuring_) return;
    ++result_.reads;
    if (!r.ok) {
      ++result_.errors;
      return;
    }
    result_.read_latency.record(latency);
    ++result_.read_level_usage[replicas_requested];
    if (r.stale) {
      ++result_.stale_reads;
      result_.staleness_age.record(r.staleness_age);
    } else {
      ++result_.fresh_reads;
    }
  }

  void on_write_complete(const cluster::WriteResult& w,
                         SimDuration latency) override {
    ++totals_->ops;
    if (!measuring_) return;
    ++result_.writes;
    if (!w.ok) {
      ++result_.errors;
    } else {
      result_.write_latency.record(latency);
    }
  }

  void on_client_finished() override {
    if (++clients_finished_ == clients_.size() + sources_.size()) {
      policy_timer_.stop();
    }
  }

 private:
  bool hosts_clients(std::size_t dc) const {
    return cfg_.workload.client_dc < 0 ||
           dc == static_cast<std::size_t>(cfg_.workload.client_dc);
  }

  void begin_measurement() {
    measuring_ = true;
    for (auto& s : sources_) s->set_measuring(true);
  }

  void setup_open_loop() {
    const workload::OpenLoopSpec& ol = cfg_.workload.open_loop;
    const std::size_t dcs = cfg_.cluster.dc_count;
    std::size_t active = 0;
    for (std::size_t d = 0; d < dcs; ++d) active += hosts_clients(d) ? 1 : 0;
    const std::int64_t t0 = now_ns();
    const ScrambledZipfianKeys users(ol.user_count, ol.user_zipf_theta);
    totals_->setup_user_pop_s += since_s(t0);
    for (std::size_t d = 0; d < dcs; ++d) {
      if (!hosts_clients(d)) continue;
      sources_.push_back(std::make_unique<workload::OpenLoopSource>(
          *this, static_cast<net::DcId>(d), cfg_.workload,
          ol.rate_per_s / static_cast<double>(active),
          /*insert_lane=*/d, /*insert_stride=*/dcs,
          sim_.fork_rng(0x01E27007 + 0x9E37 * (d + 1)),
          request_dist_->clone(), users, 0));
    }
    for (auto& s : sources_) s->start();
  }

  RunResult collect() {
    RunResult& r = result_;
    r.label = cfg_.label;
    r.policy_name = policy_->name();
    r.ops = r.reads + r.writes;
    r.policy_switches = policy_->switches();
    r.sim_events = sim_.events_processed();
    r.timeouts = cluster_->timeouts();
    r.unavailable = cluster_->unavailable();
    r.read_repairs = cluster_->read_repairs_sent();
    r.net = cluster_->net_stats();
    for (const auto& s : sources_) s->collect(r.open_loop);

    LayerTotals& t = *totals_;
    t.events += r.sim_events;
    t.switches += r.policy_switches;
    t.replica_ops += cluster_->replica_ops();
    t.read_repairs += r.read_repairs;
    t.busy_s += to_seconds(cluster_->total_busy_time());
    t.node_s += to_seconds(sim_.now()) *
                static_cast<double>(cfg_.cluster.node_count);
    t.net_bytes += r.net.total_bytes();
    t.cross_dc_bytes += r.net.cross_dc_bytes();
    return r;
  }

  RunConfig cfg_;
  LayerTotals* totals_;
  sim::Simulation sim_;
  std::optional<cluster::Cluster> cluster_;
  TimedMonitor monitor_;
  OracleCounter oracle_counter_;
  Rng op_rng_{0};
  std::unique_ptr<KeyDistribution> request_dist_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  std::vector<std::unique_ptr<workload::OpenLoopSource>> sources_;
  sim::PeriodicTimer policy_timer_;

  std::uint64_t ops_issued_ = 0;
  std::uint64_t next_insert_key_ = 0;
  std::size_t clients_finished_ = 0;
  bool measuring_ = false;
  RunResult result_;
};

}  // namespace

RunResult run_traced(const RunConfig& cfg, LayerTotals& totals) {
  Tracer tracer;
  g_tracer = &tracer;
  const std::int64_t t0 = now_ns();
  RunResult r;
  {
    TracedRunner runner(cfg, totals);
    r = runner.run();
  }
  totals.wall_s += since_s(t0);
  g_tracer = nullptr;

  for (std::size_t k = 0; k < LayerTotals::kKinds; ++k) {
    totals.kind_events[k] += tracer.calls[k];
    totals.kind_self_s[k] += static_cast<double>(tracer.self_ns[k]) * 1e-9;
  }
  totals.top_s += static_cast<double>(tracer.top_ns) * 1e-9;
  totals.observe_s += static_cast<double>(tracer.self_ns[kObserve]) * 1e-9;
  totals.observe_calls += tracer.calls[kObserve];
  totals.snapshot_s += static_cast<double>(tracer.self_ns[kSnapshot]) * 1e-9;
  totals.tick_s += static_cast<double>(tracer.self_ns[kTick]) * 1e-9;
  totals.ticks += tracer.calls[kTick];
  totals.requirement_s +=
      static_cast<double>(tracer.self_ns[kRequirement]) * 1e-9;
  totals.next_op_s += static_cast<double>(tracer.self_ns[kNextOp]) * 1e-9;
  return r;
}

}  // namespace perfbench
