// Full-funnel serving benchmark: the FunnelServable's four-stage
// retrieval -> filter -> rank -> re-rank DAG served end-to-end by the
// generic stage-pipeline engine, gated on three exit conditions:
//
//   recall   — the ANN retrieval tier (IVF-Flat) keeps recall@k >= 0.95
//              against the exact cosine top-k over the item table;
//   tail     — the fused funnel's end-to-end p99 beats a non-fused
//              two-pass baseline (pass 1: retrieval+filter+rank service
//              emitting the rank survivors; pass 2: a second serving
//              round trip that re-admits each query at its pass-1
//              completion and runs the precise re-rank), i.e. fusing the
//              funnel into one dispatch saves the second batching round;
//   parity   — deferred collection (the default) reports bit-identically
//              to the phased max_inflight = 0 reference across the full
//              regime grid (open/closed x gated/ungated), the degenerate
//              funnel (fixed retrieval, no re-rank) is bit-identical to
//              the two-stage ShardRouter it collapses to, and
//              MicroRec-style table combining keeps every query's top-k
//              items and scores while strictly cutting device time.
//
// Emits BENCH_funnel.json. Exit 0 iff all three gates hold.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baseline/exact_nns.hpp"
#include "core/backend_factory.hpp"
#include "core/calibration.hpp"
#include "harness.hpp"
#include "serve/runtime.hpp"
#include "serve/servable_funnel.hpp"
#include "serve/trace.hpp"
#include "serve_compare.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

double sum_device_us(const serve::ServeReport& r) {
  double us = 0.0;
  for (const auto& q : r.queries) us += q.device_time.value * 1e-3;
  return us;
}

/// Same top-k items AND scores for every query (order-sensitive: the merge
/// is deterministic, so a reordering is a real divergence).
bool results_match(const serve::ServeReport& a, const serve::ServeReport& b) {
  if (a.queries.size() != b.queries.size()) return false;
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    const auto& qa = a.queries[i];
    const auto& qb = b.queries[i];
    if (qa.id != qb.id || qa.topk.size() != qb.topk.size()) return false;
    for (std::size_t j = 0; j < qa.topk.size(); ++j)
      if (qa.topk[j].item != qb.topk[j].item ||
          qa.topk[j].score != qb.topk[j].score)
        return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace <file>: export the fused open-loop run as Chrome trace-event
  // JSON (pure observation — every figure stays bit-identical).
  const auto observe = bench::parse_observe_flags(argc, argv);
  const bool quick = bench::quick_mode();
  const double scale = quick ? 0.02 : 0.05;
  const std::size_t queries = quick ? 36 : 96;
  const std::size_t k = 10;
  const std::size_t shards = 2;

  std::cout << "=== Extension: full-funnel serving "
               "(retrieve->filter->rank->re-rank) ===\n"
            << "(synthetic MovieLens at scale " << scale << ", " << queries
            << " queries per run, k=" << k << ", " << shards << " shards)\n\n";

  auto ml = bench::make_movielens(scale, 1, 1, 505);
  std::vector<recsys::UserContext> users;
  for (std::size_t u = 0; u < ml.ds->num_users(); ++u)
    users.push_back(ml.model->make_context(*ml.ds, u));
  std::vector<recsys::UserContext> calib(users.begin(), users.begin() + 8);

  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();
  const std::vector<device::DeviceProfile> profs(shards, profile);
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.max_candidates = core::kEndToEndCandidates;
  icfg.nns_radius = 64;
  const auto factory =
      core::imars_backend_factory(*ml.model, arch, profile, icfg, calib);

  serve::FunnelConfig fcfg;
  fcfg.retrieval = serve::RetrievalKind::kIvf;
  fcfg.retrieve_k = quick ? 40 : 64;
  fcfg.filter_radius = 120;
  fcfg.rank_keep = 24;
  fcfg.ivf.nlist = 8;
  fcfg.ivf.nprobe = 6;

  // --- gate 1: retrieval recall@k vs the exact cosine top-k --------------
  serve::FunnelServable probe(*ml.model, arch, factory, profs, fcfg);
  const auto& item_mat = ml.model->item_table().matrix();
  const std::size_t audit_users = std::min<std::size_t>(48, users.size());
  double recall_sum = 0.0;
  for (std::size_t u = 0; u < audit_users; ++u) {
    const auto exact = baseline::topk_cosine(
        item_mat, ml.model->user_embedding(users[u]), k);
    const auto cand = probe.retrieval_candidates(users[u]);
    const std::unordered_set<std::size_t> got(cand.begin(), cand.end());
    std::size_t hit = 0;
    for (const auto e : exact) hit += got.count(e) ? 1u : 0u;
    recall_sum += static_cast<double>(hit) / static_cast<double>(k);
  }
  const double recall = recall_sum / static_cast<double>(audit_users);
  const bool recall_ok = recall >= 0.95;
  std::cout << "retrieval recall@" << k << " = " << recall << " over "
            << audit_users << " users (gate >= 0.95): "
            << (recall_ok ? "OK" : "FAIL") << "\n\n";

  auto make_cfg = [&](bool phased, bool gated) {
    serve::ServingConfig cfg;
    cfg.shards = shards;
    cfg.k = k;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = device::Ns{300000.0};
    cfg.cache.capacity_rows = 256;
    if (phased) cfg.max_inflight = 0;
    if (gated) {
      cfg.qos = serve::QosBatcherConfig::single(cfg.batcher);
      cfg.qos.admit_window = device::Ns{50000.0};
    }
    return cfg;
  };
  auto make_load = [&](bool open) {
    serve::LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = queries;
    lg.num_users = users.size();
    lg.user_zipf_s = 0.9;
    lg.seed = 909;
    if (open) {
      lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
      // Below the fabric's closed-loop saturation point in both modes, so
      // the open regime measures batching + service (where the two-pass
      // baseline pays its second admission round trip), not queue backlog.
      lg.rate_qps = quick ? 2.0e4 : 8.0e3;
    }
    return lg;
  };
  auto run_funnel = [&](const serve::FunnelConfig& fc,
                        const serve::ServingConfig& cfg,
                        const serve::LoadGenConfig& lg,
                        serve::TraceLog* trace_log = nullptr) {
    auto rt = std::make_unique<serve::ServingRuntime>(
        std::make_unique<serve::FunnelServable>(*ml.model, arch, factory,
                                                profs, fc),
        cfg, arch, profile);
    if (trace_log) rt->set_observer(trace_log);
    serve::LoadGenerator gen(lg);
    return rt->run(gen, users);
  };

  bench::JsonReport json("funnel");
  json.record("workload")
      .set("scale", scale)
      .set("users", users.size())
      .set("items", ml.ds->num_items())
      .set("queries", queries)
      .set("k", k)
      .set("shards", shards)
      .set("retrieve_k", fcfg.retrieve_k)
      .set("rank_keep", fcfg.rank_keep)
      .set("ivf_nlist", fcfg.ivf.nlist)
      .set("ivf_nprobe", fcfg.ivf.nprobe);
  json.record("recall")
      .set("recall_at_k", recall)
      .set("audit_users", audit_users)
      .set("gate", 0.95)
      .set("ok", recall_ok ? 1 : 0);

  // --- gate 3a: deferred vs phased parity grid ---------------------------
  bool grid_ok = true;
  serve::ServeReport fused;        // open, ungated, phased
  serve::ServeReport closed_plain; // closed, ungated, phased (combine ref)
  util::Table grid_table("Parity grid (phased vs deferred, bit-identical)");
  grid_table.header({"regime", "p99 us", "QPS", "parity"});
  serve::TraceLog trace_log;
  for (const bool open : {false, true})
    for (const bool gated : {false, true}) {
      const bool traced = open && !gated && !observe.trace_path.empty();
      const auto phased = run_funnel(fcfg, make_cfg(true, gated),
                                     make_load(open),
                                     traced ? &trace_log : nullptr);
      const auto deferred =
          run_funnel(fcfg, make_cfg(false, gated), make_load(open));
      const std::string regime = std::string(open ? "open" : "closed") +
                                 (gated ? "+gated" : "");
      const bool eq = bench::reports_equal(phased, deferred, "grid:" + regime);
      grid_ok = grid_ok && eq;
      if (open && !gated) fused = phased;
      if (!open && !gated) closed_plain = phased;
      grid_table.row({regime,
                      util::Table::num(phased.p99_latency_ns() * 1e-3, 1),
                      util::Table::num(phased.qps(), 0), eq ? "OK" : "FAIL"});
      json.record("grid_" + regime)
          .set("p99_us", phased.p99_latency_ns() * 1e-3)
          .set("qps", phased.qps())
          .set("overlap_parity", eq ? 1 : 0);
    }
  grid_table.print(std::cout);
  if (!observe.trace_path.empty()) {
    trace_log.write(observe.trace_path);
    std::cout << "trace: " << trace_log.events().size() << " events -> "
              << observe.trace_path << "\n";
  }
  std::cout << "\n";

  // --- gate 2: fused funnel vs the non-fused two-pass baseline -----------
  // Pass 1: the candidate service — same funnel without the re-rank stage,
  // answering with the rank stage's top rank_keep items.
  serve::FunnelConfig pass1 = fcfg;
  pass1.rerank = false;
  auto cfg1 = make_cfg(false, false);
  cfg1.k = fcfg.rank_keep;
  const auto rep1 = run_funnel(pass1, cfg1, make_load(true));

  // Pass 2: the precise-scoring service — a second serving round trip fed
  // at each query's pass-1 completion (fixed TCAM retrieval + filter +
  // rank + full-precision re-rank), paying admission + batching again.
  std::vector<serve::Request> trace;
  std::unordered_map<std::size_t, double> first_enqueue;
  for (const auto& q : rep1.queries) {
    serve::Request r;
    r.id = q.id;
    r.user = q.user;
    r.client = q.client;
    r.enqueue = q.complete;
    trace.push_back(r);
    first_enqueue[q.id] = q.enqueue.value;
  }
  std::sort(trace.begin(), trace.end(),
            [](const serve::Request& a, const serve::Request& b) {
              return a.enqueue.value != b.enqueue.value
                         ? a.enqueue.value < b.enqueue.value
                         : a.id < b.id;
            });
  serve::FunnelConfig pass2 = fcfg;
  pass2.retrieval = serve::RetrievalKind::kFixed;
  serve::LoadGenConfig lg2;
  lg2.arrivals = serve::ArrivalProcess::kTrace;
  lg2.trace = std::move(trace);
  lg2.num_users = users.size();
  const auto rep2 = run_funnel(pass2, make_cfg(false, false), lg2);

  std::vector<double> two_pass_lat;
  for (const auto& q : rep2.queries)
    two_pass_lat.push_back(q.complete.value - first_enqueue.at(q.id));
  const double two_pass_p99 = util::percentile_select(two_pass_lat, 99.0);
  const double fused_p99 = fused.p99_latency_ns();
  const bool tail_ok = fused_p99 < two_pass_p99;
  std::cout << "fused p99 " << fused_p99 * 1e-3 << " us vs two-pass p99 "
            << two_pass_p99 * 1e-3 << " us (pass-1 p99 "
            << rep1.p99_latency_ns() * 1e-3
            << " us): " << (tail_ok ? "OK" : "FAIL") << "\n";
  json.record("two_pass")
      .set("fused_p99_us", fused_p99 * 1e-3)
      .set("two_pass_p99_us", two_pass_p99 * 1e-3)
      .set("pass1_p99_us", rep1.p99_latency_ns() * 1e-3)
      .set("p99_gain", two_pass_p99 > 0 ? fused_p99 / two_pass_p99 : 0.0)
      .set("ok", tail_ok ? 1 : 0);

  // --- gate 3b: degenerate funnel == ShardRouter, bit for bit ------------
  serve::FunnelConfig dg;
  dg.retrieval = serve::RetrievalKind::kFixed;
  dg.rerank = false;
  serve::FunnelServable dprobe(*ml.model, arch, factory, profs, dg);
  const auto rep_dg = run_funnel(dg, make_cfg(false, false), make_load(false));
  serve::ServingRuntime router_rt(factory, make_cfg(false, false), arch,
                                  profile);
  serve::LoadGenerator router_gen(make_load(false));
  const auto rep_router = router_rt.run(router_gen, users);
  const bool degenerate_ok =
      dprobe.degenerate() &&
      bench::reports_equal(rep_dg, rep_router, "degenerate-vs-router");
  std::cout << "degenerate funnel vs ShardRouter: "
            << (degenerate_ok ? "OK" : "FAIL") << "\n";
  json.record("degenerate")
      .set("collapsed", dprobe.degenerate() ? 1 : 0)
      .set("ok", degenerate_ok ? 1 : 0);

  // --- gate 3c: table combining keeps results, cuts device time ----------
  serve::FunnelConfig cmb = fcfg;
  cmb.combine_tables = true;
  serve::FunnelServable cprobe(*ml.model, arch, factory, profs, cmb);
  const auto rep_cmb = run_funnel(cmb, make_cfg(false, false), make_load(false));
  const double dev_plain = sum_device_us(closed_plain);
  const double dev_cmb = sum_device_us(rep_cmb);
  const bool combine_ok = results_match(closed_plain, rep_cmb) &&
                          dev_cmb < dev_plain;
  std::cout << "table combining (" << cprobe.combined_rows()
            << "-row combined table): device time " << dev_plain << " us -> "
            << dev_cmb << " us, results "
            << (results_match(closed_plain, rep_cmb) ? "identical" : "DIVERGED")
            << ": " << (combine_ok ? "OK" : "FAIL") << "\n";
  json.record("combine")
      .set("combined_rows", cprobe.combined_rows())
      .set("flat_device_us", dev_plain)
      .set("combined_device_us", dev_cmb)
      .set("device_time_cut", dev_plain > 0 ? 1.0 - dev_cmb / dev_plain : 0.0)
      .set("ok", combine_ok ? 1 : 0);

  const bool parity_ok = grid_ok && degenerate_ok && combine_ok;
  json.record("delta")
      .set("recall_at_k", recall)
      .set("fused_vs_two_pass_p99_gain",
           two_pass_p99 > 0 ? two_pass_p99 / std::max(fused_p99, 1.0) : 0.0)
      .set("parity_grid_ok", grid_ok ? 1 : 0)
      .set("all_gates_ok", (recall_ok && tail_ok && parity_ok) ? 1 : 0);
  json.write();

  std::cout << "\ngates: recall " << (recall_ok ? "OK" : "FAIL") << ", tail "
            << (tail_ok ? "OK" : "FAIL") << ", parity "
            << (parity_ok ? "OK" : "FAIL") << "\n";
  return (recall_ok && tail_ok && parity_ok) ? 0 : 1;
}
