// Serving-runtime benchmark (extension): batched + sharded throughput
// scaling over the functional iMARS machine, with the frequency-aware
// hot-embedding cache.
//
// Ablation grid against the serial single-backend baseline on the same
// synthetic Zipf workload:
//   serial      1 shard,  batch 1, 1 client, no cache  (the seed's mode)
//   batched     1 shard,  batch 8, closed loop, no cache
//   sharded     4 shards, batch 1, closed loop, no cache
//   full        4 shards, batch 8, closed loop, no cache
//   full+cache  4 shards, batch 8, closed loop, 4096-row hot cache
//
// followed by an open-loop Poisson sweep on the full+cache fabric and an
// open-loop A/B of deferred collection (the default) against the phased
// max_inflight = 0 reference; the exit code gates the >2x speedup and the
// A/B's bit-identical reports.
//
// Emits BENCH_serving.json records (bench/harness.hpp JsonReport).
#include <chrono>
#include <iostream>
#include <string>
#include <string_view>

#include "core/backend_factory.hpp"
#include "core/calibration.hpp"
#include "harness.hpp"
#include "serve/runtime.hpp"
#include "serve/trace.hpp"
#include "serve_compare.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

struct GridPoint {
  std::string name;
  std::size_t shards;
  std::size_t max_batch;
  std::size_t clients;
  std::size_t cache_rows;
};

}  // namespace

int main(int argc, char** argv) {
  // --trace <file>: export the saturated open-loop point as Chrome
  // trace-event JSON (pure observation — every figure stays bit-identical).
  std::string trace_path;
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--trace" && i + 1 < argc)
      trace_path = argv[++i];

  const bool quick = bench::quick_mode();
  const double scale = quick ? 0.04 : 0.12;
  const std::size_t queries = quick ? 24 : 96;
  const std::size_t k = 10;

  std::cout << "=== Extension: concurrent serving runtime ===\n"
            << "(synthetic MovieLens at scale " << scale << ", " << queries
            << " Zipf-skewed queries per configuration)\n\n";

  auto ml = bench::make_movielens(scale, quick ? 2 : 3, 1);
  std::vector<recsys::UserContext> users;
  for (std::size_t u = 0; u < ml.ds->num_users(); ++u)
    users.push_back(ml.model->make_context(*ml.ds, u));
  std::vector<recsys::UserContext> calib(users.begin(),
                                         users.begin() + 8);

  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.max_candidates = core::kEndToEndCandidates;
  icfg.nns_radius = 64;
  const auto factory =
      core::imars_backend_factory(*ml.model, arch, profile, icfg, calib);

  const std::vector<GridPoint> grid = {
      {"serial", 1, 1, 1, 0},          {"batched", 1, 8, 16, 0},
      {"sharded", 4, 1, 16, 0},        {"full", 4, 8, 16, 0},
      {"full+cache", 4, 8, 16, 4096},
  };

  bench::JsonReport json("serving");
  util::Table table("Serving runtime (" + std::to_string(queries) +
                    " queries, k=" + std::to_string(k) + ")");
  table.header({"config", "QPS", "p50 us", "p95 us", "p99 us", "batch",
                "hit rate", "max rank util"});

  double qps_serial = 0.0, qps_full_cache = 0.0;
  for (const auto& g : grid) {
    serve::ServingConfig cfg;
    cfg.shards = g.shards;
    cfg.k = k;
    cfg.batcher.max_batch = g.max_batch;
    cfg.batcher.max_wait = device::Ns{500000.0};  // 500 us deadline
    cfg.cache.capacity_rows = g.cache_rows;
    cfg.traffic.filter_features = ml.model->filter_features();
    cfg.traffic.rank_features = ml.model->rank_features();
    serve::ServingRuntime rt(factory, cfg, arch, profile);

    serve::LoadGenConfig lg;
    lg.clients = g.clients;
    lg.total_queries = queries;
    lg.num_users = users.size();
    lg.user_zipf_s = 0.9;
    lg.seed = 77;  // same workload for every configuration
    serve::LoadGenerator gen(lg);

    const auto report = rt.run(gen, users);
    double max_util = 0.0;
    for (std::size_t s = 0; s < g.shards; ++s)
      max_util = std::max(max_util, report.rank_utilization(s));

    if (g.name == "serial") qps_serial = report.qps();
    if (g.name == "full+cache") qps_full_cache = report.qps();

    table.row({g.name, util::Table::num(report.qps(), 0),
               util::Table::num(report.p50_latency_ns() * 1e-3, 1),
               util::Table::num(report.p95_latency_ns() * 1e-3, 1),
               util::Table::num(report.p99_latency_ns() * 1e-3, 1),
               util::Table::num(report.mean_batch_size(), 1),
               util::Table::num(report.cache.hit_rate(), 3),
               util::Table::num(max_util, 2)});

    json.record(g.name)
        .set("shards", g.shards)
        .set("max_batch", g.max_batch)
        .set("clients", g.clients)
        .set("cache_rows", g.cache_rows)
        .set("queries", queries)
        .set("k", k)
        .set("zipf_s", 0.9)
        .set("scale", scale)
        .set("qps", report.qps())
        .set("p50_us", report.p50_latency_ns() * 1e-3)
        .set("p95_us", report.p95_latency_ns() * 1e-3)
        .set("p99_us", report.p99_latency_ns() * 1e-3)
        .set("mean_latency_us", report.mean_latency_ns() * 1e-3)
        .set("mean_batch", report.mean_batch_size())
        .set("batches", report.batches)
        .set("cache_hit_rate", report.cache.hit_rate())
        .set("cache_hits", static_cast<std::size_t>(report.cache.hits))
        .set("mean_energy_pj", report.mean_energy_pj())
        .set("max_rank_util", max_util)
        .set("makespan_ms", report.makespan.ms());
  }
  table.print(std::cout);

  // --- Open-loop arrivals: saturation / tail-latency knee -----------------
  // Poisson arrivals at fractions of the closed-loop capacity; past 1.0x
  // the queues grow without bound and the tail explodes (the closed loop
  // cannot produce this regime — it self-throttles to the fabric). The
  // stream is longer than the closed-loop grid's so the backlog has time
  // to accumulate past the knee.
  const std::size_t open_queries = queries * 4;
  std::cout << "\n";
  util::Table open_table("Open-loop Poisson arrivals (full+cache fabric, "
                         "deferred collection)");
  open_table.header({"offered load", "rate qps", "QPS", "p50 us", "p99 us",
                     "mean batch"});
  serve::ServingConfig open_cfg;
  open_cfg.shards = 4;
  open_cfg.k = k;
  open_cfg.batcher.max_batch = 8;
  open_cfg.batcher.max_wait = device::Ns{500000.0};
  open_cfg.cache.capacity_rows = 4096;
  open_cfg.traffic.filter_features = ml.model->filter_features();
  open_cfg.traffic.rank_features = ml.model->rank_features();
  open_cfg.self_profile = !trace_path.empty();  // host spans ride along
  // One fabric for the whole sweep: run() resets clocks/usage/cache, so
  // only the offered rate varies between points.
  serve::ServingRuntime open_rt(factory, open_cfg, arch, profile);
  serve::TraceLog trace;
  for (const double frac : {0.6, 0.9, 1.2}) {
    serve::LoadGenConfig lg;
    lg.clients = 16;
    lg.total_queries = open_queries;
    lg.num_users = users.size();
    lg.user_zipf_s = 0.9;
    lg.seed = 77;
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = frac * qps_full_cache;
    serve::LoadGenerator gen(lg);

    // Trace the saturated point only: each run() resets the simulated
    // clock, so spans from two sweep points would overlap on one track.
    const bool traced = !trace_path.empty() && frac == 1.2;
    if (traced) open_rt.set_observer(&trace);
    const auto report = open_rt.run(gen, users);
    if (traced) {
      open_rt.set_observer(nullptr);
      trace.write(trace_path);
      std::cout << "trace: " << trace.events().size() << " events -> "
                << trace_path << "\n";
    }
    const std::string name =
        "open@" + util::Table::num(frac, 1) + "x";
    open_table.row({name, util::Table::num(lg.rate_qps, 0),
                    util::Table::num(report.qps(), 0),
                    util::Table::num(report.p50_latency_ns() * 1e-3, 1),
                    util::Table::num(report.p99_latency_ns() * 1e-3, 1),
                    util::Table::num(report.mean_batch_size(), 1)});
    json.record(name)
        .set("shards", open_cfg.shards)
        .set("max_batch", open_cfg.batcher.max_batch)
        .set("cache_rows", open_cfg.cache.capacity_rows)
        .set("queries", open_queries)
        .set("k", k)
        .set("arrivals", "poisson")
        .set("offered_frac", frac)
        .set("rate_qps", lg.rate_qps)
        .set("qps", report.qps())
        .set("p50_us", report.p50_latency_ns() * 1e-3)
        .set("p95_us", report.p95_latency_ns() * 1e-3)
        .set("p99_us", report.p99_latency_ns() * 1e-3)
        .set("mean_batch", report.mean_batch_size())
        .set("cache_hit_rate", report.cache.hit_rate())
        .set("makespan_ms", report.makespan.ms());
  }
  open_table.print(std::cout);

  // --- Open-loop deferred-collection A/B: host wall-clock ----------------
  // Open-loop ungated runs defer collection automatically: up to
  // max_inflight batches stay uncollected, so workers compute batch b
  // while the host batches b+1. max_inflight = 0 is the phased reference.
  // Simulated reports must be bit-identical; only host wall-clock moves.
  serve::LoadGenConfig ab_lg;
  ab_lg.clients = 16;
  ab_lg.total_queries = open_queries;
  ab_lg.num_users = users.size();
  ab_lg.user_zipf_s = 0.9;
  ab_lg.seed = 77;
  ab_lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
  ab_lg.rate_qps = 1.2 * qps_full_cache;

  auto timed_run = [&](const serve::ServingConfig& cfg, double& wall_ms) {
    serve::ServingRuntime rt(factory, cfg, arch, profile);
    serve::LoadGenerator gen(ab_lg);
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = rt.run(gen, users);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    return report;
  };

  serve::ServingConfig ab_cfg = open_cfg;
  ab_cfg.self_profile = false;
  double deferred_ms = 0.0, phased_ms = 0.0;
  const auto deferred = timed_run(ab_cfg, deferred_ms);
  ab_cfg.max_inflight = 0;
  const auto phased = timed_run(ab_cfg, phased_ms);
  const bool ab_same =
      bench::reports_equal(deferred, phased, "open-loop deferred vs phased");
  const double ab_speedup = deferred_ms > 0.0 ? phased_ms / deferred_ms : 0.0;

  std::cout << "\n";
  util::Table ab_table("Open-loop deferred vs phased collection (" +
                       std::to_string(open_queries) + " queries at 1.2x)");
  ab_table.header({"mode", "wall ms", "peak inflight", "identical"});
  auto ab_row = [&](const std::string& name, const serve::ServeReport& r,
                    double wall_ms) {
    ab_table.row({name, util::Table::num(wall_ms, 1),
                  std::to_string(r.peak_inflight), ab_same ? "yes" : "NO"});
    json.record(name)
        .set("queries", open_queries)
        .set("rate_qps", ab_lg.rate_qps)
        .set("wall_ms", wall_ms)
        .set("peak_inflight", r.peak_inflight)
        .set("reports_identical", ab_same ? 1 : 0)
        .set("qps", r.qps())
        .set("makespan_ms", r.makespan.ms());
  };
  ab_row("open_deferred", deferred, deferred_ms);
  ab_row("open_phased", phased, phased_ms);
  ab_table.print(std::cout);
  std::cout << "\nopen-loop host wall-clock (phased / deferred): "
            << util::Table::factor(ab_speedup) << ", simulated reports "
            << (ab_same ? "bit-identical" : "MISMATCH (see above)") << "\n";
  json.record("open_defer_speedup")
      .set("phased_wall_ms", phased_ms)
      .set("deferred_wall_ms", deferred_ms)
      .set("host_speedup", ab_speedup)
      .set("reports_identical", ab_same ? 1 : 0);
  json.write();

  const double speedup = qps_serial > 0.0 ? qps_full_cache / qps_serial : 0.0;
  std::cout << "\nbatched+sharded+cached speedup over serial baseline: "
            << util::Table::factor(speedup) << "\n"
            << "Reading: batching keeps both pipeline stages occupied\n"
               "(filter of query q+1 overlaps ranking of query q), sharding\n"
               "splits the per-candidate ranking loop across replicas, and\n"
               "the hot-embedding cache serves Zipf-hot UIET/ItET rows from\n"
               "the periphery buffer instead of the CMA arrays.\n";
  return (speedup > 2.0 && ab_same) ? 0 : 1;
}
