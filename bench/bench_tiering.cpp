// Tiered embedding memory benchmark (extension): frequency-driven online
// migration vs static warm pins under a DRIFTING Zipf hot set, plus the
// in-crossbar reduction capability, on the DLRM/Criteo CTR fabric.
//
// Embedding tables are iMARS's traffic bottleneck; real deployments cannot
// hold every table row in the CMA banks. The tiered model (RecFlash
// arXiv:2604.25338 frequency mapping) backs the banks with a modeled cold
// bulk tier: a miss whose block is not warm-resident faults the whole
// block in at PerfModel::cold_block_fetch cost. Four arms over the SAME
// scripted arrival trace (ArrivalProcess::kTrace):
//
//   flat     no tiers, no reduction — the pre-tier simulator (reference)
//   reduce   DeviceProfile::in_crossbar_reduction on: a pooling scope's
//            missed rows that land in the SAME CMA array merge their
//            partial results on the array's bitlines (ReCross-style),
//            saving the per-row result returns on the RSC bus
//   static   tiering on, migration OFF: the warm tier holds only blocks
//            pinned from a phase-A access histogram (tier-aware
//            PlacementConfig::warm_histogram) — classic offline placement
//   migrate  tiering on, online migration, no pins: cold faults admit
//            their block warm; dispatch-boundary commits demote FIFO-order
//
// The trace is two Poisson phases with the SAME Zipf skew but a rotated
// user population (phase B shifts every user index by half the
// population), so the hot row set DRIFTS mid-run: phase-A pins go stale,
// which is exactly where online migration must win.
//
// DLRM's sparse lookups are one-hot rows in 26 DISTINCT tables, so on this
// fabric the pooled-workload reduction model earns exactly ZERO credit —
// no two missed rows of an impression can meet on a bitline. The reduce
// arm therefore gates bit-level INERTNESS (the former single-row model
// credited misses per scope without the same-array constraint and
// manufactured a tail-latency win here). The win the capability does buy
// is shown on a pooled MovieLens side experiment: history chains pool
// several ItET rows per pass inside a handful of 256-row arrays, so a
// flat-cache miss burst merges for real.
//
// Emits BENCH_tiering.json. Exit 0 iff (a) the reduce arm is bit-identical
// to flat on the one-hot fabric; (b) migrate beats static pins on p99
// under the drift; and (c) the pooled MovieLens run keeps results parity,
// completes no query later, completes some strictly earlier, and strictly
// cuts total device time.
#include <iostream>
#include <unordered_map>

#include "core/backend_factory.hpp"
#include "harness.hpp"
#include "serve/observe.hpp"
#include "serve/runtime.hpp"
#include "serve/servable_ctr.hpp"
#include "serve/shard_router.hpp"
#include "serve/trace.hpp"
#include "serve_compare.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

// Sums the contention anatomy of every ET-touching stage span (the fused
// CTR graph's score stage): stage-unit busy time, the waits in front of
// it, and the shared ET-bank claim lengths.
struct EtStageAgg final : serve::ObserverSink {
  double busy_ns = 0.0;
  double wait_ns = 0.0;  // unit_wait + et_wait
  double et_busy_ns = 0.0;
  void on_stage(const serve::StageSpan& s) override {
    if (s.et_busy.value <= 0.0) return;
    busy_ns += s.end.value - s.start.value;
    wait_ns += s.unit_wait.value + s.et_wait.value;
    et_busy_ns += s.et_busy.value;
  }
  /// busy / (busy + wait) over the ET-touching stage spans.
  double utilization() const {
    const double denom = busy_ns + wait_ns;
    return denom > 0.0 ? busy_ns / denom : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto obs = bench::parse_observe_flags(argc, argv);
  const bool quick = bench::quick_mode();
  const std::size_t train_samples = quick ? 800 : 4000;
  const std::size_t queries = quick ? 96 : 384;  // per phase: queries / 2
  const std::size_t population = quick ? 128 : 512;
  const std::size_t shards = 2;
  // Tier geometry: a small hot periphery buffer, a warm tier of
  // block-granular CMA residency, everything else cold.
  const std::size_t hot_rows = 256;
  const std::size_t warm_rows = quick ? 1024 : 2048;
  const std::size_t block_rows = 8;

  std::cout << "=== Extension: tiered embedding memory + in-crossbar "
               "reduction ===\n"
            << "(synthetic Criteo, " << queries
            << " impressions over a drifting Zipf hot set, " << shards
            << " FeFET-45 shards; hot " << hot_rows << " rows, warm "
            << warm_rows << " rows in blocks of " << block_rows << ")\n\n";

  auto cr = bench::make_criteo(train_samples, quick ? 1 : 2);
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < std::min(population, cr.ds->size()); ++i)
    samples.push_back(cr.ds->sample(i));
  std::vector<data::CriteoSample> calib(samples.begin(), samples.begin() + 8);

  const core::ArchConfig arch;
  const auto flat_profile = device::DeviceProfile::fefet45();
  auto reduce_profile = flat_profile;
  reduce_profile.in_crossbar_reduction = true;

  const auto factory = core::imars_ctr_backend_factory(
      *cr.model, arch, core::TimingMode::kWorstCaseSameArray, calib);

  struct Arm {
    serve::ServeReport report;
    EtStageAgg et;
  };
  auto run_arm = [&](const device::DeviceProfile& profile,
                     const serve::HotCacheConfig& cache,
                     const serve::PlacementConfig& placement,
                     const serve::LoadGenConfig& lg,
                     serve::ObserverSink* sink = nullptr) {
    const std::vector<device::DeviceProfile> profiles(shards, profile);
    auto servable =
        std::make_unique<serve::CtrServable>(factory, profiles);
    servable->bind_samples(samples);
    serve::ServingConfig cfg;
    cfg.k = 1;
    cfg.batcher.max_batch = 16;
    cfg.batcher.max_wait = device::Ns{500000.0};
    cfg.cache = cache;
    cfg.placement = placement;
    cfg.self_profile = obs.any();
    serve::ServingRuntime rt(std::move(servable), cfg, arch, profile);
    Arm arm;
    rt.set_observer(sink ? sink : &arm.et);
    serve::LoadGenerator gen(lg);
    arm.report = rt.run(gen);
    return arm;
  };

  serve::LoadGenConfig base_lg;
  base_lg.clients = 16;
  base_lg.total_queries = queries;
  base_lg.num_users = samples.size();
  base_lg.user_zipf_s = 1.1;  // sharp hot set, so drift actually bites
  base_lg.seed = 233;

  // Closed-loop capacity probe of the flat arm anchors the open-loop rate
  // above saturation, where queueing amplifies per-query cost deltas into
  // tail-latency deltas.
  serve::HotCacheConfig flat_cache;
  flat_cache.capacity_rows = hot_rows;
  const double capacity =
      run_arm(flat_profile, flat_cache, {}, base_lg).report.qps();
  const double rate = 1.3 * capacity;
  std::cout << "flat capacity probe: " << util::Table::num(capacity, 0)
            << " qps; offered open-loop load " << util::Table::num(rate, 0)
            << " qps (1.3x)\n\n";

  // The drifting trace: two Poisson phases at the overload rate. Phase B
  // rotates every drawn user by half the population, so the Zipf ranks
  // land on a disjoint hot set while skew, rate and length stay equal.
  std::vector<serve::Request> trace;
  {
    double t0 = 0.0;
    for (int phase = 0; phase < 2; ++phase) {
      serve::LoadGenConfig pl = base_lg;
      pl.total_queries = queries / 2;
      pl.seed = base_lg.seed + static_cast<std::uint64_t>(phase);
      pl.arrivals = serve::ArrivalProcess::kOpenPoisson;
      pl.rate_qps = rate;
      serve::LoadGenerator gen(pl);
      double last = t0;
      while (auto r = gen.next_arrival()) {
        serve::Request q = *r;
        if (phase == 1) q.user = (q.user + population / 2) % samples.size();
        q.enqueue = device::Ns{q.enqueue.value + t0};
        q.id = trace.size();
        last = q.enqueue.value;
        trace.push_back(q);
      }
      t0 = last + 1e9 / rate;  // one mean gap between the phases
    }
  }
  serve::LoadGenConfig trace_lg = base_lg;
  trace_lg.arrivals = serve::ArrivalProcess::kTrace;
  trace_lg.trace = trace;

  // Phase-A row histogram for the static-pin arm — the offline profile an
  // operator would have trained placement on before the drift.
  serve::PlacementConfig static_pins;
  {
    std::unordered_map<std::size_t, std::uint64_t> counts;
    for (std::size_t i = 0; i < trace.size() / 2; ++i) {
      const auto& s = samples[trace[i].user];
      for (std::size_t f = 0; f < s.sparse.size(); ++f)
        counts[(static_cast<std::uint64_t>(f) << 32) | s.sparse[f]] += 1;
    }
    for (const auto& [key, freq] : counts)
      static_pins.warm_histogram.push_back({key, freq});
    // One pin per warm block: pins are block-granular and consume warm
    // capacity, so this fills the warm tier without starving it.
    static_pins.warm_rows = warm_rows / block_rows;
  }

  serve::HotCacheConfig tier_cache = flat_cache;
  tier_cache.warm_capacity_rows = warm_rows;
  tier_cache.cold_block_rows = block_rows;
  serve::HotCacheConfig static_cache = tier_cache;
  static_cache.migrate = false;

  bench::JsonReport json("tiering");
  json.record("capacity")
      .set("flat_capacity_qps", capacity)
      .set("rate_qps", rate)
      .set("queries", trace.size())
      .set("shards", shards)
      .set("hot_rows", hot_rows)
      .set("warm_rows", warm_rows)
      .set("block_rows", block_rows);

  struct ArmSpec {
    std::string name;
    const device::DeviceProfile* profile;
    const serve::HotCacheConfig* cache;
    const serve::PlacementConfig* placement;
  };
  const serve::PlacementConfig no_pins;
  const std::vector<ArmSpec> grid = {
      {"flat", &flat_profile, &flat_cache, &no_pins},
      {"reduce", &reduce_profile, &flat_cache, &no_pins},
      {"static", &flat_profile, &static_cache, &static_pins},
      {"migrate", &flat_profile, &tier_cache, &no_pins},
  };

  util::Table table("tiered embedding memory under a drifting hot set (" +
                    std::to_string(trace.size()) + " impressions)");
  table.header({"arm", "QPS", "p99 us", "gather util", "ET share", "warm hit",
                "cold faults"});

  std::vector<Arm> arms;
  for (const auto& a : grid) {
    arms.push_back(run_arm(*a.profile, *a.cache, *a.placement, trace_lg));
    const auto& arm = arms.back();
    const auto& r = arm.report;
    if (obs.self_profile)
      bench::print_host_spans(a.name, r.host_span_us, std::cout);
    const double et_share =
        r.makespan.value > 0.0 ? arm.et.et_busy_ns / r.makespan.value : 0.0;
    table.row({a.name, util::Table::num(r.qps(), 0),
               util::Table::num(r.p99_latency_ns() * 1e-3, 1),
               util::Table::num(arm.et.utilization(), 3),
               util::Table::num(et_share, 3),
               util::Table::num(static_cast<double>(r.cache.warm_hits), 0),
               util::Table::num(static_cast<double>(r.cache.cold_faults), 0)});
    json.record(a.name)
        .set("queries", trace.size())
        .set("rate_qps", rate)
        .set("qps", r.qps())
        .set("p50_us", r.p50_latency_ns() * 1e-3)
        .set("p95_us", r.p95_latency_ns() * 1e-3)
        .set("p99_us", r.p99_latency_ns() * 1e-3)
        .set("makespan_ms", r.makespan.ms())
        .set("gather_utilization", arm.et.utilization())
        .set("et_busy_share", et_share)
        .set("cache_hits", r.cache.hits)
        .set("cache_misses", r.cache.misses)
        .set("warm_hits", r.cache.warm_hits)
        .set("cold_faults", r.cache.cold_faults)
        .set("cold_rows_fetched", r.cache.cold_rows_fetched)
        .set("warm_evictions", r.cache.warm_evictions)
        .set("promotions", r.cache.promotions);
  }
  table.print(std::cout);

  // --trace re-runs the migrate arm under a TraceLog (the runtime takes a
  // single observer and the ET aggregate above feeds the gates). Reports
  // are deterministic, so the exported timeline is the gated run's and the
  // JSON records stay bit-identical with and without --trace; summarize
  // the migration traffic with `trace_summary --tiers`.
  if (!obs.trace_path.empty()) {
    serve::TraceLog tlog;
    run_arm(flat_profile, tier_cache, no_pins, trace_lg, &tlog);
    tlog.write(obs.trace_path);
    std::cout << "trace: " << tlog.events().size() << " events -> "
              << obs.trace_path << "\n";
  }

  const auto& flat = arms[0];
  const auto& reduce = arms[1];
  const auto& stat = arms[2];
  const auto& migrate = arms[3];

  // Reduction gate: on the one-hot fabric the pooled-workload model earns
  // zero credit, so the arm must be completely inert — every timestamp,
  // latency and counter bit-identical to flat.
  const bool reduce_inert =
      bench::reports_equal(flat.report, reduce.report, "reduce-inert");

  const double p99_flat = flat.report.p99_latency_ns();
  const double p99_reduce = reduce.report.p99_latency_ns();
  const double p99_static = stat.report.p99_latency_ns();
  const double p99_migrate = migrate.report.p99_latency_ns();
  const bool migrate_ok = p99_migrate < p99_static;

  // --- Pooled-workload reduction: where the merges actually happen ---------
  // MovieLens history chains pool several ItET rows per pass, and the
  // catalog spans a handful of 256-row arrays: a flat-cache miss burst
  // within one chain lands same-array rows, which DO merge. Both arms see
  // the identical open-loop arrival stream, so the reduce-profile run must
  // dominate query by query.
  std::cout << "\n--- pooled-workload reduction (MovieLens history chains) "
               "---\n";
  auto ml = bench::make_movielens(quick ? 0.02 : 0.05, 1, 1, 817);
  std::vector<recsys::UserContext> users;
  for (std::size_t u = 0; u < ml.ds->num_users(); ++u)
    users.push_back(ml.model->make_context(*ml.ds, u));
  const std::vector<recsys::UserContext> ml_calib(users.begin(),
                                                  users.begin() + 8);
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.nns_radius = 64;
  const auto ml_factory = core::imars_backend_factory(*ml.model, arch,
                                                      flat_profile, icfg,
                                                      ml_calib);
  auto run_pooled = [&](const device::DeviceProfile& profile) {
    serve::TrafficSpec traffic;
    traffic.filter_features = ml.model->filter_features();
    traffic.rank_features = ml.model->rank_features();
    auto router =
        std::make_unique<serve::ShardRouter>(ml_factory, 2, traffic);
    auto spec = serve::ShardRouter::pipeline_spec();
    for (auto& s : spec.stages) s.reduce = true;
    router->override_spec(std::move(spec));
    serve::ServingConfig cfg;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = device::Ns{300000.0};
    cfg.cache.capacity_rows = hot_rows / 4;  // chains actually miss
    serve::ServingRuntime rt(std::move(router), cfg, arch, profile);
    serve::LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = quick ? 48 : 120;
    lg.num_users = users.size();
    lg.user_zipf_s = 1.1;
    lg.seed = 331;
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = 2.0e5;
    serve::LoadGenerator gen(lg);
    return rt.run(gen, users);
  };
  const auto pooled_flat = run_pooled(flat_profile);
  const auto pooled_reduce = run_pooled(reduce_profile);
  bool pooled_parity = pooled_flat.size() == pooled_reduce.size();
  bool never_later = true;
  std::size_t strictly_faster = 0;
  double dev_flat = 0.0, dev_reduce = 0.0;
  for (std::size_t i = 0;
       pooled_parity && i < pooled_flat.queries.size(); ++i) {
    const auto& a = pooled_flat.queries[i];
    const auto& b = pooled_reduce.queries[i];
    if (a.id != b.id || a.topk.size() != b.topk.size()) pooled_parity = false;
    for (std::size_t j = 0; pooled_parity && j < a.topk.size(); ++j)
      if (a.topk[j].item != b.topk[j].item ||
          a.topk[j].score != b.topk[j].score)
        pooled_parity = false;
    const double la = (a.complete - a.enqueue).value;
    const double lb = (b.complete - b.enqueue).value;
    if (lb > la + 1e-6) never_later = false;
    if (la - lb > 1e-6) ++strictly_faster;
    dev_flat += a.device_time.value;
    dev_reduce += b.device_time.value;
  }
  const bool pooled_ok = pooled_parity && never_later &&
                         strictly_faster > 0 && dev_reduce < dev_flat;
  std::cout << "pooled arm: device time "
            << util::Table::num(dev_flat * 1e-3, 1) << " us -> "
            << util::Table::num(dev_reduce * 1e-3, 1) << " us, "
            << strictly_faster << "/" << pooled_flat.size()
            << " queries strictly faster, results parity "
            << (pooled_parity ? "OK" : "FAIL") << "\n";

  json.record("reduce_pooled")
      .set("queries", pooled_flat.size())
      .set("flat_device_us", dev_flat * 1e-3)
      .set("reduce_device_us", dev_reduce * 1e-3)
      .set("device_time_cut",
           dev_flat > 0.0 ? 1.0 - dev_reduce / dev_flat : 0.0)
      .set("strictly_faster", strictly_faster)
      .set("flat_p99_us", pooled_flat.p99_latency_ns() * 1e-3)
      .set("reduce_p99_us", pooled_reduce.p99_latency_ns() * 1e-3)
      .set("parity", pooled_parity ? 1 : 0);
  json.record("delta")
      .set("reduce_inert", reduce_inert ? 1 : 0)
      .set("pooled_device_time_cut",
           dev_flat > 0.0 ? 1.0 - dev_reduce / dev_flat : 0.0)
      .set("migrate_vs_static_p99_gain",
           p99_static > 0.0 ? 1.0 - p99_migrate / p99_static : 0.0);
  json.write();

  std::cout << "\nin-crossbar reduction on one-hot lookups: p99 "
            << util::Table::num(p99_flat * 1e-3, 1) << " us -> "
            << util::Table::num(p99_reduce * 1e-3, 1) << " us (inert: "
            << (reduce_inert ? "OK" : "FAIL") << ")\n"
            << "online migration vs stale static pins: p99 "
            << util::Table::num(p99_static * 1e-3, 1) << " us -> "
            << util::Table::num(p99_migrate * 1e-3, 1) << " us\n"
            << "Reading: rows can only accumulate on the bitlines of the\n"
               "array they are resident in, so DLRM's 26 distinct-table\n"
               "one-hot lookups never merge — the capability is provably\n"
               "free here, and its real win lives in pooled chains whose\n"
               "missed rows share an array (the MovieLens arm); under the\n"
               "mid-run hot-set drift the phase-A pins go stale and every\n"
               "unpinned miss streams a cold block, while online migration\n"
               "re-warms the new hot blocks within a few dispatch commits.\n";
  return (reduce_inert && migrate_ok && pooled_ok) ? 0 : 1;
}
