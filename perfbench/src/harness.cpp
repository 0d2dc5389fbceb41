#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>

#include "serve/observe.hpp"
#include "serve_compare.hpp"
#include "serve/trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace imars;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Metrics::set(const std::string& name, double value) {
  items_.emplace_back(name, value);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double PaperGap::latency_gap() const {
  return std::abs(std::log(gpu_latency_us / imars_latency_us /
                           paper_latency_gain));
}

double PaperGap::energy_gap() const {
  return std::abs(
      std::log(gpu_energy_uj / imars_energy_uj / paper_energy_gain));
}

// --- ProbeServable ---------------------------------------------------------

ProbeServable::ProbeServable(serve::ServableBackend& inner)
    : inner_(inner),
      stages_(std::make_unique<AtomicTally[]>(inner.spec().stage_count())),
      stage_count_(inner.spec().stage_count()) {}

void ProbeServable::note(AtomicTally& t, Clock::time_point t0) const {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  t.calls.fetch_add(1, std::memory_order_relaxed);
  t.ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
}

std::vector<ProbeServable::Tally> ProbeServable::stage_tallies() const {
  std::vector<Tally> out(stage_count_);
  for (std::size_t s = 0; s < stage_count_; ++s) {
    out[s].calls = stages_[s].calls.load();
    out[s].host_us = static_cast<double>(stages_[s].ns.load()) * 1e-3;
  }
  return out;
}

ProbeServable::Tally ProbeServable::access_tally() const {
  return {access_.calls.load(),
          static_cast<double>(access_.ns.load()) * 1e-3};
}

void ProbeServable::reset() {
  for (std::size_t s = 0; s < stage_count_; ++s) {
    stages_[s].calls = 0;
    stages_[s].ns = 0;
  }
  access_.calls = 0;
  access_.ns = 0;
}

std::vector<std::size_t> ProbeServable::run_replicated(
    std::size_t stage, std::size_t shard, const serve::Request& req,
    recsys::StageStats* stats) {
  const auto t0 = Clock::now();
  auto out = inner_.run_replicated(stage, shard, req, stats);
  note(stages_[stage], t0);
  return out;
}

std::vector<std::size_t> ProbeServable::run_replicated_fed(
    std::size_t stage, std::size_t shard, const serve::Request& req,
    std::span<const std::size_t> fed, recsys::StageStats* stats) {
  const auto t0 = Clock::now();
  auto out = inner_.run_replicated_fed(stage, shard, req, fed, stats);
  note(stages_[stage], t0);
  return out;
}

std::vector<recsys::ScoredItem> ProbeServable::run_sharded(
    std::size_t stage, std::size_t shard, const serve::Request& req,
    std::span<const std::size_t> slice, std::size_t k,
    recsys::StageStats* stats) {
  const auto t0 = Clock::now();
  auto out = inner_.run_sharded(stage, shard, req, slice, k, stats);
  note(stages_[stage], t0);
  return out;
}

std::vector<serve::RowAccess> ProbeServable::accesses(
    std::size_t stage, const serve::Request& req,
    std::span<const std::size_t> slice) const {
  const auto t0 = Clock::now();
  auto out = inner_.accesses(stage, req, slice);
  note(access_, t0);
  return out;
}

void ProbeServable::accesses_into(std::size_t stage,
                                  const serve::Request& req,
                                  std::span<const std::size_t> slice,
                                  std::vector<serve::RowAccess>& out) const {
  const auto t0 = Clock::now();
  inner_.accesses_into(stage, req, slice, out);
  note(access_, t0);
}

std::vector<serve::RowAccess> ProbeServable::update_accesses(
    const serve::Request& req) const {
  const auto t0 = Clock::now();
  auto out = inner_.update_accesses(req);
  note(access_, t0);
  return out;
}

// --- running a workload ----------------------------------------------------

namespace {

/// Forwards every observer event to a TraceLog and sums the shared ET-bank
/// claim lengths of the stage spans on the side.
class TeeSink final : public serve::ObserverSink {
 public:
  explicit TeeSink(serve::TraceLog& log) : log_(log) {}
  double et_busy_ns = 0.0;

  void on_stage(const serve::StageSpan& s) override {
    et_busy_ns += s.et_busy.value;
    log_.on_stage(s);
  }
  void on_stage_merge(std::size_t slot, std::size_t stage,
                      std::string_view name, std::size_t query,
                      std::size_t batch, device::Ns start,
                      device::Ns end) override {
    log_.on_stage_merge(slot, stage, name, query, batch, start, end);
  }
  void on_batch(const serve::BatchSpan& b) override { log_.on_batch(b); }
  void on_write(std::size_t shard, device::Ns start, device::Ns end) override {
    log_.on_write(shard, start, end);
  }
  void on_cache_flush(std::size_t shard, device::Ns at, std::uint64_t rows,
                      std::uint64_t rows_warm,
                      std::uint64_t rows_cold) override {
    log_.on_cache_flush(shard, at, rows, rows_warm, rows_cold);
  }
  void on_cache_evict(std::uint32_t table, std::uint32_t row, bool dirty,
                      serve::Tier dest) override {
    log_.on_cache_evict(table, row, dirty, dest);
  }
  void on_cache_migrate(device::Ns at, std::uint64_t to_warm,
                        std::uint64_t to_cold) override {
    log_.on_cache_migrate(at, to_warm, to_cold);
  }
  void on_cache_update(bool absorbed) override {
    log_.on_cache_update(absorbed);
  }
  void on_counter(std::string_view name, device::Ns at,
                  double value) override {
    log_.on_counter(name, at, value);
  }
  void on_host_span(std::string_view name, double start_us,
                    double dur_us) override {
    log_.on_host_span(name, start_us, dur_us);
  }

 private:
  serve::TraceLog& log_;
};

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : util::percentile(v, 50.0);
}

/// Host timing of one window: the host stream served back to back.
struct Window {
  std::vector<double> wall_s;  ///< host wall seconds of each pass
  std::vector<double> cpu_s;   ///< process CPU seconds of each pass
  std::size_t served = 0;      ///< queries served per pass
  bool repeatable = true;      ///< every pass reproduced the first exactly

  std::size_t passes() const { return wall_s.size(); }
  /// Medians over passes: every pass is the same work, so the median
  /// rejects passes slowed by a transient on a shared machine.
  double host_qps() const {
    std::vector<double> v;
    for (double w : wall_s) v.push_back(static_cast<double>(served) / w);
    return median(v);
  }
  double host_cpu_us_per_query() const {
    std::vector<double> v;
    for (double c : cpu_s) v.push_back(c * 1e6 / static_cast<double>(served));
    return median(v);
  }
};

/// Serves `load` back to back until `seconds` of host wall time have
/// elapsed. `observe(pass)` may attach an observer for the pass and returns
/// a callback run after it, outside its timing.
template <class Observe>
Window serve_window(serve::ServingRuntime& rt,
                    const serve::LoadGenConfig& load, double seconds,
                    Observe observe) {
  Window w;
  serve::ServeReport first;
  const auto t0 = Clock::now();
  do {
    const std::size_t pass = w.passes();
    auto after = observe(pass);
    const double cpu0 = process_cpu_seconds();
    const auto p0 = Clock::now();
    serve::LoadGenerator gen(load);
    auto rep = rt.run(gen);
    w.wall_s.push_back(seconds_since(p0));
    w.cpu_s.push_back(process_cpu_seconds() - cpu0);
    after(rep);
    if (pass == 0) {
      w.served = rep.size();
      first = std::move(rep);
    } else if (!bench::reports_equal(first, rep,
                                     "pass " + std::to_string(pass))) {
      w.repeatable = false;
    }
  } while (seconds_since(t0) < seconds);
  return w;
}

/// p99 within the limit and no growing backlog: the mean latency of the
/// last tenth of arrivals also stays within the limit (a backlog that
/// grows through the run leaves the final arrivals queued behind it).
bool meets_operating_limits(const serve::ServeReport& r, double p99_limit_us,
                            double* p99_us) {
  *p99_us = r.p99_latency_ns() * 1e-3;
  if (*p99_us > p99_limit_us || r.queries.empty()) return false;
  std::vector<std::size_t> ids;
  for (const auto& q : r.queries) ids.push_back(q.id);
  std::sort(ids.begin(), ids.end());
  const std::size_t cut =
      ids[ids.size() - std::max<std::size_t>(ids.size() / 10, 1)];
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& q : r.queries)
    if (q.id >= cut) {
      sum += (q.complete - q.enqueue).value * 1e-3;
      ++n;
    }
  return sum / static_cast<double>(n) <= p99_limit_us;
}

/// Highest ladder rate meeting the operating limits, by bisection over the
/// fixed ladder (latency grows with offered rate).
double max_rate(serve::ServingRuntime& rt, serve::LoadGenConfig load,
                const std::vector<double>& ladder, double p99_limit_us) {
  long lo = -1, hi = static_cast<long>(ladder.size());
  while (hi - lo > 1) {
    const long mid = (lo + hi) / 2;
    load.rate_qps = ladder[static_cast<std::size_t>(mid)];
    serve::LoadGenerator gen(load);
    const auto rep = rt.run(gen);
    double p99 = 0.0;
    const bool ok = meets_operating_limits(rep, p99_limit_us, &p99);
    std::cerr << "[perfbench] ladder " << load.rate_qps << " q/s: p99 " << p99
              << " us -> " << (ok ? "meets" : "misses") << " the limit\n";
    (ok ? lo : hi) = mid;
  }
  return lo < 0 ? 0.0 : ladder[static_cast<std::size_t>(lo)];
}

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;

/// Stage names of the three servables' graphs; per-stage metrics cover their
/// union, reading 0 where a workload's graph has no such stage.
constexpr const char* kStages[] = {"retrieve", "filter", "rank", "rerank",
                                   "score"};

/// The ledger components reported per query (every Component).
constexpr std::pair<const char*, device::Component> kComponents[] = {
    {"cma_ram", device::Component::kCmaRam},
    {"cma_search", device::Component::kCmaSearch},
    {"cma_add", device::Component::kCmaAdd},
    {"mat_tree", device::Component::kIntraMatTree},
    {"bank_tree", device::Component::kIntraBankTree},
    {"crossbar", device::Component::kCrossbar},
    {"rsc_bus", device::Component::kRscBus},
    {"ibc", device::Component::kIbcNetwork},
    {"controller", device::Component::kController},
    {"peripheral", device::Component::kPeripheral},
};

}  // namespace

RunResult run_workload(Workload& w, const RunOptions& opt) {
  RunResult res;
  Metrics& m = res.metrics;

  // --- set-up, repeated; the median total is setup_s ---------------------
  std::vector<double> total, data, train, load, runtime;
  for (std::size_t r = 0; r < kSetups; ++r) {
    SetupTimes t;
    w.setup(t);
    total.push_back(t.total());
    data.push_back(t.data_s);
    train.push_back(t.train_s);
    load.push_back(t.load_s);
    runtime.push_back(t.runtime_s);
    std::cerr << "[perfbench] setup " << r << ": " << t.total() << " s (data "
              << t.data_s << ", train " << t.train_s << ", load " << t.load_s
              << ", runtime " << t.runtime_s << ")\n";
  }

  // --- simulated pass: the operating-point stream, once -----------------
  serve::ServingRuntime& rt = w.runtime();
  const serve::LoadGenConfig op = w.op_load();
  serve::LoadGenerator op_gen(op);
  const serve::ServeReport first = rt.run(op_gen);
  const std::size_t issued = op_gen.issued();

  // Conservation: every request of the pass is served or applied once.
  const std::size_t applied = first.size() + first.updates;
  if (applied > issued) {
    std::cerr << "[perfbench] more requests answered than issued\n";
    res.correct = false;
  }
  for (const auto& q : first.queries)
    for (const auto& s : q.topk)
      if (!std::isfinite(s.score)) {
        std::cerr << "[perfbench] non-finite score in query " << q.id << "\n";
        res.correct = false;
      }

  // --- untraced timed window over the host stream -------------------------
  serve::LoadGenConfig host_load = op;
  host_load.total_queries = w.host_pass_requests();
  const auto no_observer = [](std::size_t) {
    return [](const serve::ServeReport&) {};
  };
  const Window win = serve_window(rt, host_load, opt.seconds, no_observer);
  if (!win.repeatable) res.correct = false;
  std::cerr << "[perfbench] window: " << win.passes() << " passes of "
            << win.served << " queries, " << win.host_qps() << " q/s\n";

  const double served = static_cast<double>(first.size());
  const double host_qps = win.host_qps();
  m.set("host_qps", host_qps);
  m.set("host_cpu_us_per_query", win.host_cpu_us_per_query());
  m.set("setup_s", median(total));
  m.set("sim_p50_us", first.p50_latency_ns() * 1e-3);
  m.set("sim_p99_us", first.p99_latency_ns() * 1e-3);
  if (!w.rate_ladder().empty()) {
    m.set("sim_capacity_qps",
          max_rate(rt, op, w.rate_ladder(), w.p99_limit_us()));
  } else {
    m.set("sim_capacity_qps", first.qps());
  }
  double energy_pj = first.update_cost.energy.value;
  for (const auto& q : first.queries) energy_pj += q.energy.value;
  m.set("sim_energy_uj_per_query", energy_pj * 1e-6 / served);

  // --- output oracle ------------------------------------------------------
  const OracleResult orc = w.oracle(first);
  res.attempted = issued;
  res.failed = (issued - std::min(applied, issued)) + orc.mismatched;
  m.set("output_quality", orc.quality);
  m.set("peak_rss_mib", peak_rss_mib());

  const PaperGap gap = w.paper_gap();
  std::cerr << "[perfbench] serial per-query iMARS " << gap.imars_latency_us
            << " us / " << gap.imars_energy_uj << " uJ, GPU model "
            << gap.gpu_latency_us << " us / " << gap.gpu_energy_uj
            << " uJ\n";

  // Per-layer figures that need no tracing.
  m.set("setup.data_s", median(data));
  m.set("setup.train_s", median(train));
  m.set("setup.load_s", median(load));
  m.set("setup.runtime_s", median(runtime));
  m.set("failed_frac", static_cast<double>(res.failed) /
                           static_cast<double>(res.attempted));
  m.set("paper_gap_latency", gap.latency_gap());
  m.set("paper_gap_energy", gap.energy_gap());
  m.set("core.serial_latency_us", gap.imars_latency_us);
  m.set("core.serial_energy_uj", gap.imars_energy_uj);
  m.set("core.filter_host_us", orc.filter_host_us);
  m.set("core.rank_host_us", orc.rank_host_us);
  m.set("core.ctr_score_host_us", orc.score_host_us);
  if (!opt.trace) return res;

  // --- traced pass: wrapper + TraceLog + self-profile ---------------------
  serve::ServingConfig tcfg = w.serving_config();
  tcfg.self_profile = true;
  auto probe_owner = std::make_unique<ProbeServable>(rt.servable());
  ProbeServable& probe = *probe_owner;
  serve::ServingRuntime trt(std::move(probe_owner), tcfg, w.arch(),
                            w.profile());
  for (auto* l : w.replica_ledgers()) l->clear();

  serve::TraceLog log;
  TeeSink tee(log);
  trt.set_observer(&tee);
  serve::LoadGenerator traced_gen(op);
  const auto tp0 = Clock::now();
  const serve::ServeReport tr = trt.run(traced_gen);
  const double traced_wall_s = seconds_since(tp0);
  trt.set_observer(nullptr);

  if (!bench::reports_equal(first, tr, "traced vs untraced pass"))
    res.correct = false;
  const serve::TraceCheck check = serve::check_trace(log.events());
  if (!check.ok) {
    std::cerr << "[perfbench] trace check failed:";
    for (const auto& p : check.problems) std::cerr << " " << p << ";";
    std::cerr << "\n";
    res.correct = false;
  }
  if (!opt.trace_path.empty()) log.write(opt.trace_path);

  const auto calls_per_pass = probe.stage_tallies();
  const double access_us = probe.access_tally().host_us;
  double ledger_pj = 0.0;
  for (auto* l : w.replica_ledgers()) ledger_pj += l->total().value;
  const double tq = static_cast<double>(tr.size());
  for (const auto& [name, comp] : kComponents) {
    double ops = 0.0, pj = 0.0;
    for (auto* l : w.replica_ledgers()) {
      ops += static_cast<double>(l->ops(comp));
      pj += l->energy(comp).value;
    }
    m.set(std::string("device.") + name + "_ops", ops / tq);
    m.set(std::string("device.") + name + "_energy_frac",
          ledger_pj > 0.0 ? pj / ledger_pj : 0.0);
  }

  // --- traced timed window: per-call host times, tracing overhead ---------
  probe.reset();
  std::unique_ptr<serve::TraceLog> pass_log;
  std::unique_ptr<TeeSink> pass_tee;
  const Window traced = serve_window(
      trt, host_load, opt.seconds, [&](std::size_t) {
        pass_log = std::make_unique<serve::TraceLog>();
        pass_tee = std::make_unique<TeeSink>(*pass_log);
        trt.set_observer(pass_tee.get());
        return [&](const serve::ServeReport&) {
          trt.set_observer(nullptr);
          pass_tee.reset();
          pass_log.reset();
        };
      });
  if (!traced.repeatable) res.correct = false;

  const auto& spec = rt.servable().spec();
  const auto all_tallies = probe.stage_tallies();
  for (const char* stage : kStages) {
    double calls = 0.0, us = 0.0, calls_all = 0.0;
    for (std::size_t s = 0; s < spec.stage_count(); ++s)
      if (spec.stages[s].name == stage) {
        calls = static_cast<double>(calls_per_pass[s].calls);
        calls_all = static_cast<double>(all_tallies[s].calls);
        us = all_tallies[s].host_us;
      }
    m.set(std::string("servable.") + stage + ".calls", calls);
    m.set(std::string("servable.") + stage + ".host_us_per_call",
          calls_all > 0.0 ? us / calls_all : 0.0);
  }
  m.set("servable.accesses.host_us", access_us);

  double spans_us = 0.0;
  for (const char* span : {"batcher", "submit", "collect", "report", "wait"}) {
    double us = 0.0;
    for (const auto& [name, total_us] : tr.host_span_us)
      if (name == std::string("host.") + span) us = total_us;
    spans_us += us;
    m.set(std::string("runtime.host_") + span + "_ms", us * 1e-3);
  }
  m.set("runtime.span_coverage", spans_us * 1e-6 / traced_wall_s);

  std::vector<double> queue_wait, service;
  for (const auto& q : tr.queries) {
    queue_wait.push_back((q.dispatch - q.enqueue).value * 1e-3);
    service.push_back((q.complete - q.dispatch).value * 1e-3);
  }
  m.set("batcher.batches", static_cast<double>(tr.batches));
  m.set("batcher.mean_batch", tr.mean_batch_size());
  m.set("batcher.queue_wait_p50_us", util::percentile(queue_wait, 50.0));
  m.set("batcher.queue_wait_p99_us", util::percentile(queue_wait, 99.0));
  const auto deadline = check.trigger_counts.find("deadline");
  m.set("batcher.deadline_close_frac",
        check.batch_spans == 0 || deadline == check.trigger_counts.end()
            ? 0.0
            : static_cast<double>(deadline->second) /
                  static_cast<double>(check.batch_spans));
  m.set("pipeline.service_p50_us", util::percentile(service, 50.0));
  m.set("pipeline.service_p99_us", util::percentile(service, 99.0));
  for (const char* stage : kStages) {
    double util_max = 0.0;
    for (std::size_t s = 0; s < spec.stage_count(); ++s)
      if (spec.stages[s].name == stage)
        for (std::size_t sh = 0; sh < tr.shards.size(); ++sh)
          util_max = std::max(util_max, tr.stage_utilization(sh, stage));
    m.set(std::string("pipeline.util.") + stage, util_max);
  }
  m.set("pipeline.et_busy_share",
        tee.et_busy_ns /
            (tr.makespan.value * static_cast<double>(tr.shards.size())));

  const auto& c = tr.cache;
  m.set("hot_cache.hit_rate", c.hit_rate());
  m.set("hot_cache.hits", static_cast<double>(c.hits));
  m.set("hot_cache.misses", static_cast<double>(c.misses));
  m.set("hot_cache.warm_hits", static_cast<double>(c.warm_hits));
  m.set("hot_cache.cold_faults", static_cast<double>(c.cold_faults));
  m.set("hot_cache.cold_rows_fetched",
        static_cast<double>(c.cold_rows_fetched));
  m.set("hot_cache.promotions", static_cast<double>(c.promotions));
  m.set("hot_cache.warm_evictions", static_cast<double>(c.warm_evictions));
  m.set("hot_cache.flushes", static_cast<double>(c.flushes));
  m.set("hot_cache.update_hits", static_cast<double>(c.update_hits));
  m.set("hot_cache.update_misses", static_cast<double>(c.update_misses));
  m.set("hot_cache.block_use_ratio",
        c.cold_rows_fetched == 0
            ? 0.0
            : static_cast<double>(c.warm_hits) /
                  static_cast<double>(c.cold_rows_fetched));

  recsys::StageStats all = tr.filter_stats;
  all.merge(tr.rank_stats);
  const std::pair<const char*, recsys::OpKind> ops[] = {
      {"et_lookup", recsys::OpKind::kEtLookup}, {"dnn", recsys::OpKind::kDnn},
      {"nns", recsys::OpKind::kNns},           {"topk", recsys::OpKind::kTopK},
      {"comm", recsys::OpKind::kComm}};
  for (const auto& [name, kind] : ops) {
    m.set(std::string("core.") + name + "_us", all.at(kind).latency.us() / tq);
    m.set(std::string("core.") + name + "_uj", all.at(kind).energy.uj() / tq);
  }

  m.set("trace.overhead_frac", 1.0 - traced.host_qps() / host_qps);
  return res;
}

}  // namespace perfbench
