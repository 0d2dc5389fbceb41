// Million-user steady-state scaling bench (MARM-style, arXiv:2411.09425):
//
//   Part A — report-parity grid. The engine's optimized host path (state
//     pooling, partition/access scratch reuse, partial-sort top-k, SoA
//     report arena) must produce BIT-IDENTICAL simulated-time reports to
//     the pre-optimization reference path
//     (ServingConfig::reference_host_path) across {phased, default}
//     collection x {closed, open} x class-count. Any mismatch fails the
//     bench (nonzero exit) — this is the CI gate for the optimization work.
//
//   Part B — cache scaling-law curves. Hit rate / p50 / p99 / QPS versus
//     hot-cache capacity across user populations {1e5, 1e6, 1e7} (reduced
//     in quick mode) with the cuckoo session layer churning, reporting
//     both the modeled metrics and the simulator's own wall-clock
//     (queries per host-second).
//
//   Part C — host speedup A/B. The quick scaling workload runs under both
//     host paths with self-profiling on; the acceptance figure is
//     reference host wall-clock / optimized host wall-clock >= 3x (also a
//     gate), with the two reports again compared field-for-field.
//
//   Part D — steady-state endurance (full mode): a 1e7-user population
//     driven through a ~1e6-slot session table to saturation, where every
//     arrival exercises the bounded cuckoo kick chain (forced evictions,
//     max kick chain <= the configured bound).
//
// The servable is synthetic (hash-scored candidates, ET-row traffic keyed
// by the candidate items) so host-path cost dominates and population
// scale is free — the engine, batcher, cache and session layers under
// test are the real ones. Emits BENCH_scaling.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/perf_model.hpp"
#include "device/profile.hpp"
#include "harness.hpp"
#include "serve/runtime.hpp"
#include "serve_compare.hpp"
#include "util/table.hpp"

using namespace imars;
using device::Ns;

namespace {

/// splitmix64 — cheap deterministic scoring/item hash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Synthetic single-stage sharded servable: `candidates` hash-derived
/// items per query (rotated by the session's query sequence, so session
/// state is live personalization input), hash scores, and one ET row per
/// candidate for the hot cache — item popularity inherits the user Zipf
/// skew through the per-user candidate sets.
class SynthServable final : public serve::ServableBackend {
 public:
  SynthServable(std::size_t shards, std::size_t candidates,
                std::size_t item_space, recsys::OpCost row_cost,
                recsys::OpCost score_cost)
      : shards_(shards),
        candidates_(candidates),
        item_space_(item_space),
        row_cost_(row_cost),
        score_cost_(score_cost) {
    spec_.stages = {{"score", serve::StageKind::kSharded, {}}};
    spec_.merge_topk = true;
  }

  std::string_view name() const override { return "synth-scaling"; }
  const serve::PipelineSpec& spec() const override { return spec_; }
  std::size_t shards() const override { return shards_; }

  std::vector<std::size_t> initial_items(
      const serve::Request& req) const override {
    std::vector<std::size_t> items(candidates_);
    // A session's candidate window drifts with its query sequence: repeat
    // visitors re-rank a partially fresh slate (per-session state feeding
    // request construction, not just telemetry).
    const std::uint64_t base =
        req.user * 0x9e3779b97f4a7c15ULL + (req.session_seq / 4u);
    for (std::size_t j = 0; j < candidates_; ++j)
      items[j] = mix(base + j) % item_space_;
    return items;
  }

  std::vector<std::size_t> run_replicated(std::size_t, std::size_t,
                                          const serve::Request&,
                                          recsys::StageStats*) override {
    return {};  // the graph has no replicated stage
  }

  std::vector<recsys::ScoredItem> run_sharded(
      std::size_t, std::size_t, const serve::Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      recsys::StageStats* stats) override {
    const double n = static_cast<double>(slice.size());
    auto& et = stats->at(recsys::OpKind::kEtLookup);
    et.latency.value += row_cost_.latency.value * n;
    et.energy.value += row_cost_.energy.value * n;
    auto& dnn = stats->at(recsys::OpKind::kDnn);
    dnn.latency.value += score_cost_.latency.value * n;
    dnn.energy.value += score_cost_.energy.value * n;

    std::vector<recsys::ScoredItem> out;
    out.reserve(slice.size());
    for (std::size_t item : slice)
      out.push_back({item, static_cast<float>(
                               mix(item ^ (req.user << 1)) >> 40)});
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.score != b.score ? a.score > b.score : a.item < b.item;
    });
    if (out.size() > k) out.resize(k);
    return out;
  }

  std::vector<serve::RowAccess> accesses(
      std::size_t stage, const serve::Request& req,
      std::span<const std::size_t> slice) const override {
    std::vector<serve::RowAccess> out;
    accesses_into(stage, req, slice, out);
    return out;
  }

  void accesses_into(std::size_t, const serve::Request&,
                     std::span<const std::size_t> slice,
                     std::vector<serve::RowAccess>& out) const override {
    for (std::size_t item : slice)
      out.push_back({0, static_cast<std::uint32_t>(item), false, false});
  }

 private:
  std::size_t shards_;
  std::size_t candidates_;
  std::size_t item_space_;
  recsys::OpCost row_cost_;
  recsys::OpCost score_cost_;
  serve::PipelineSpec spec_;
};

/// Timing constants shared by every fabric the bench builds.
struct SynthCosts {
  recsys::OpCost row;    ///< ET row fetch (the cache-creditable part)
  recsys::OpCost score;  ///< per-candidate scoring work
};

SynthCosts synth_costs(const core::ArchConfig& arch,
                       const device::DeviceProfile& profile) {
  const core::PerfModel model(arch, profile);
  const auto fetch = model.row_fetch();
  return {recsys::OpCost{fetch.latency, fetch.energy},
          recsys::OpCost{Ns{25.0}, device::Pj{40.0}}};
}

struct RunResult {
  serve::ServeReport report;
  double wall_ms = 0.0;        ///< whole run() wall-clock
  serve::SessionTable::Stats sessions;
  std::size_t session_occupancy = 0;
  double session_load = 0.0;
  std::size_t max_kick_chain = 0;
};

RunResult run_synth(const serve::ServingConfig& cfg,
                    const serve::LoadGenConfig& lg,
                    const core::ArchConfig& arch,
                    const device::DeviceProfile& profile,
                    std::size_t candidates) {
  const auto costs = synth_costs(arch, profile);
  serve::ServingRuntime rt(
      std::make_unique<SynthServable>(cfg.shards, candidates, lg.num_users,
                                      costs.row, costs.score),
      cfg, arch, profile);
  serve::LoadGenerator gen(lg);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.report = rt.run(gen);
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  if (const auto* s = gen.sessions(); s != nullptr) {
    r.sessions = s->stats();
    r.session_occupancy = s->occupancy();
    r.session_load = s->load_factor();
    r.max_kick_chain = s->max_kick_chain();
  }
  return r;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();
  bench::JsonReport json("scaling");

  std::cout << "=== Million-user steady state: host-path parity + cache "
               "scaling laws ===\n\n";

  // --- Part A: report-parity grid ----------------------------------------
  // reference_host_path re-enacts the pre-optimization allocation pattern;
  // every simulated figure must match the pooled path bit-for-bit across
  // collection mode x arrival-process x class-count.
  const std::size_t grid_queries = quick ? 160 : 480;
  const std::size_t grid_users = 20000;
  bool parity_ok = true;

  // Calibrate an open-loop rate once from a closed-loop run (optimized
  // path; the rate only needs to be identical across each compared pair).
  double open_rate = 0.0;
  {
    serve::ServingConfig cfg;
    cfg.shards = 4;
    cfg.k = 8;
    cfg.batcher.max_batch = 16;
    cfg.cache.capacity_rows = 2048;
    serve::LoadGenConfig lg;
    lg.clients = 16;
    lg.total_queries = grid_queries;
    lg.num_users = grid_users;
    lg.seed = 11;
    const auto cal = run_synth(cfg, lg, arch, profile, 24);
    open_rate = cal.report.qps();
  }

  util::Table parity_table("Report-parity grid (reference vs optimized)");
  parity_table.header({"cell", "queries", "batches", "identical"});
  // "phased" cells run the max_inflight = 0 reference; "overlap" cells run
  // the default, which defers collection wherever release is
  // completion-independent (the open-loop cells here).
  for (const bool overlap : {false, true})
    for (const bool open : {false, true})
      for (const std::size_t classes : {std::size_t{1}, std::size_t{2}}) {
        serve::ServingConfig cfg;
        cfg.shards = 4;
        cfg.k = 8;
        cfg.batcher.max_batch = 16;
        cfg.cache.capacity_rows = 2048;
        if (!overlap) cfg.max_inflight = 0;
        if (classes == 2) {
          serve::QosClassConfig hi;
          hi.name = "interactive";
          hi.max_batch = 8;
          hi.max_wait = Ns{100000.0};
          hi.weight = 2.0;
          serve::QosClassConfig lo;
          lo.name = "bulk";
          lo.max_batch = 32;
          lo.max_wait = Ns{400000.0};
          lo.weight = 1.0;
          cfg.qos.classes = {hi, lo};
        }
        serve::LoadGenConfig lg;
        lg.clients = 16;
        lg.total_queries = grid_queries;
        lg.num_users = grid_users;
        lg.seed = 11;
        if (open) {
          lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
          lg.rate_qps = open_rate;
        }
        if (classes == 2) lg.class_mix = {0.6, 0.4};
        // Session layer on in half the cells (keyed off overlap so the
        // grid also proves parity under session-stamped requests).
        if (overlap) {
          lg.session_mode = true;
          lg.session_capacity = 4096;
          lg.session_churn = 0.01;
        }

        auto opt = run_synth(cfg, lg, arch, profile, 24);
        cfg.reference_host_path = true;
        auto ref = run_synth(cfg, lg, arch, profile, 24);

        const std::string cell =
            std::string(overlap ? "overlap" : "phased") +
            (open ? ":open" : ":closed") + ":c" + std::to_string(classes);
        const bool same = bench::reports_equal(opt.report, ref.report, cell);
        parity_ok = parity_ok && same;
        parity_table.row({cell, std::to_string(opt.report.size()),
                          std::to_string(opt.report.batches),
                          same ? "yes" : "NO"});
        json.record("parity:" + cell)
            .set("overlap", overlap ? 1 : 0)
            .set("arrivals", open ? "poisson" : "closed")
            .set("classes", classes)
            .set("queries", opt.report.size())
            .set("identical", same ? 1 : 0);
      }
  parity_table.print(std::cout);
  std::cout << (parity_ok ? "parity grid: all cells bit-identical\n\n"
                          : "parity grid: MISMATCH (see above)\n\n");

  // --- Part B: cache scaling-law curves ----------------------------------
  // Hit rate / latency / QPS versus hot-cache capacity across population
  // scales, with the session layer churning. Streaming reports bound
  // memory, so the curve points scale to 1e7 users without retaining
  // per-query records.
  const std::vector<std::size_t> populations =
      quick ? std::vector<std::size_t>{100000, 1000000}
            : std::vector<std::size_t>{100000, 1000000, 10000000};
  const std::vector<std::size_t> capacities =
      quick ? std::vector<std::size_t>{2048, 16384}
            : std::vector<std::size_t>{2048, 16384, 131072};
  const std::size_t curve_queries = quick ? 4000 : 60000;

  util::Table curve_table("Cache scaling laws (session churn on)");
  curve_table.header({"users", "cache rows", "hit rate", "p50 us", "p99 us",
                      "QPS", "sess hit", "wall ms", "q/host-s"});
  for (const std::size_t pop : populations)
    for (const std::size_t cap : capacities) {
      serve::ServingConfig cfg;
      cfg.shards = 4;
      cfg.k = 8;
      cfg.batcher.max_batch = 32;
      cfg.cache.capacity_rows = cap;
      cfg.streaming_report = true;
      serve::LoadGenConfig lg;
      lg.clients = 32;
      lg.total_queries = curve_queries;
      lg.num_users = pop;
      lg.user_zipf_s = 0.9;
      lg.seed = 23;
      lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
      lg.rate_qps = open_rate;
      lg.session_mode = true;
      lg.session_capacity = std::max<std::size_t>(pop / 10, 4096);
      lg.session_churn = 0.01;

      const auto r = run_synth(cfg, lg, arch, profile, 24);
      const double qphs =
          r.wall_ms > 0.0
              ? static_cast<double>(r.report.size()) / (r.wall_ms * 1e-3)
              : 0.0;
      curve_table.row(
          {std::to_string(pop), std::to_string(cap),
           util::Table::num(r.report.cache.hit_rate(), 3),
           util::Table::num(r.report.p50_latency_ns() * 1e-3, 1),
           util::Table::num(r.report.p99_latency_ns() * 1e-3, 1),
           util::Table::num(r.report.qps(), 0),
           util::Table::num(r.sessions.hit_rate(), 3),
           util::Table::num(r.wall_ms, 1), util::Table::num(qphs, 0)});
      json.record("scale:u" + std::to_string(pop) + ":c" +
                  std::to_string(cap))
          .set("users", pop)
          .set("cache_rows", cap)
          .set("queries", r.report.size())
          .set("cache_hit_rate", r.report.cache.hit_rate())
          .set("p50_us", r.report.p50_latency_ns() * 1e-3)
          .set("p99_us", r.report.p99_latency_ns() * 1e-3)
          .set("qps", r.report.qps())
          .set("session_hit_rate", r.sessions.hit_rate())
          .set("session_arrivals",
               static_cast<std::size_t>(r.sessions.arrivals))
          .set("session_departures",
               static_cast<std::size_t>(r.sessions.departures))
          .set("session_occupancy", r.session_occupancy)
          .set("wall_ms", r.wall_ms)
          .set("queries_per_host_second", qphs);
    }
  curve_table.print(std::cout);

  // --- Part C: host speedup A/B ------------------------------------------
  // The same scaling workload under both host paths with self-profiling:
  // the acceptance figure is reference/optimized profiled host wall-clock.
  const std::size_t ab_queries = quick ? 6000 : 30000;
  serve::ServingConfig ab_cfg;
  ab_cfg.shards = 4;
  ab_cfg.k = 8;
  ab_cfg.batcher.max_batch = 32;
  ab_cfg.cache.capacity_rows = 16384;
  ab_cfg.self_profile = true;
  serve::LoadGenConfig ab_lg;
  ab_lg.clients = 32;
  ab_lg.total_queries = ab_queries;
  ab_lg.num_users = 100000;
  ab_lg.seed = 23;
  ab_lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
  ab_lg.rate_qps = open_rate;
  ab_lg.session_mode = true;
  ab_lg.session_capacity = 16384;
  ab_lg.session_churn = 0.01;

  // Untimed warmup: the A/B pair runs back to back, but the first of the
  // two otherwise pays for whatever state the scaling sweep above left
  // behind (allocator arenas, page cache, CPU clocks) — measured as a 4x
  // inflation of the first run's dispatch span in full mode. One throwaway
  // run equalizes the starting conditions for both timed runs.
  run_synth(ab_cfg, ab_lg, arch, profile, 24);
  auto ab_opt = run_synth(ab_cfg, ab_lg, arch, profile, 24);
  ab_cfg.reference_host_path = true;
  auto ab_ref = run_synth(ab_cfg, ab_lg, arch, profile, 24);
  const bool ab_same =
      bench::reports_equal(ab_opt.report, ab_ref.report, "speedup A/B");
  parity_ok = parity_ok && ab_same;

  const double opt_us = ab_opt.report.host_total_us();
  const double ref_us = ab_ref.report.host_total_us();
  const double speedup = opt_us > 0.0 ? ref_us / opt_us : 0.0;

  util::Table ab_table("Host hot-path wall-clock (self-profiled spans, " +
                       std::to_string(ab_queries) + " queries)");
  ab_table.header({"span", "reference us", "optimized us", "speedup"});
  for (const auto& [name, r_us] : ab_ref.report.host_span_us) {
    double o_us = 0.0;
    for (const auto& [oname, ous] : ab_opt.report.host_span_us)
      if (oname == name) o_us = ous;
    ab_table.row({name, util::Table::num(r_us, 0), util::Table::num(o_us, 0),
                  o_us > 0.0 ? util::Table::factor(r_us / o_us) : "-"});
  }
  ab_table.row({"TOTAL", util::Table::num(ref_us, 0),
                util::Table::num(opt_us, 0), util::Table::factor(speedup)});
  ab_table.print(std::cout);

  auto& ab_json = json.record("host_speedup");
  ab_json.set("queries", ab_queries)
      .set("reference_host_us", ref_us)
      .set("optimized_host_us", opt_us)
      .set("host_speedup", speedup)
      .set("reports_identical", ab_same ? 1 : 0)
      .set("reference_wall_ms", ab_ref.wall_ms)
      .set("optimized_wall_ms", ab_opt.wall_ms);
  for (const auto& [name, us] : ab_ref.report.host_span_us)
    ab_json.set("ref_" + name + "_us", us);
  for (const auto& [name, us] : ab_opt.report.host_span_us)
    ab_json.set("opt_" + name + "_us", us);

  // --- Part D: steady-state endurance (full mode) -------------------------
  // A 1e7-user population through a ~1e6-slot session table until the
  // cuckoo layer saturates: near-capacity occupancy, forced evictions
  // absorbing the overflow, kick chains still bounded.
  if (!quick) {
    serve::ServingConfig cfg;
    cfg.shards = 4;
    cfg.k = 8;
    cfg.batcher.max_batch = 32;
    cfg.cache.capacity_rows = 131072;
    cfg.streaming_report = true;
    serve::LoadGenConfig lg;
    lg.clients = 32;
    lg.total_queries = 3000000;
    lg.num_users = 10000000;
    lg.user_zipf_s = 0.9;
    lg.seed = 31;
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = open_rate;
    lg.session_mode = true;
    lg.session_capacity = 1000000;
    lg.session_max_kicks = 32;
    lg.session_churn = 0.002;

    const auto r = run_synth(cfg, lg, arch, profile, 24);
    const double qphs =
        r.wall_ms > 0.0
            ? static_cast<double>(r.report.size()) / (r.wall_ms * 1e-3)
            : 0.0;
    std::cout << "\nsteady state (1e7 users, 1e6-slot session table, "
              << r.report.size() << " queries):\n  live sessions "
              << r.session_occupancy << " (load "
              << util::Table::num(r.session_load, 3) << "), arrivals "
              << r.sessions.arrivals << ", departures "
              << r.sessions.departures << " (forced "
              << r.sessions.forced_evictions << "), max kick chain "
              << r.max_kick_chain << "\n  session hit rate "
              << util::Table::num(r.sessions.hit_rate(), 3)
              << ", cache hit rate "
              << util::Table::num(r.report.cache.hit_rate(), 3) << ", p99 "
              << util::Table::num(r.report.p99_latency_ns() * 1e-3, 1)
              << " us, wall " << util::Table::num(r.wall_ms * 1e-3, 1)
              << " s (" << util::Table::num(qphs, 0) << " q/host-s)\n";
    json.record("steady_state")
        .set("users", lg.num_users)
        .set("queries", r.report.size())
        .set("session_slots", lg.session_capacity)
        .set("session_occupancy", r.session_occupancy)
        .set("session_load", r.session_load)
        .set("session_hit_rate", r.sessions.hit_rate())
        .set("session_arrivals",
             static_cast<std::size_t>(r.sessions.arrivals))
        .set("session_departures",
             static_cast<std::size_t>(r.sessions.departures))
        .set("forced_evictions",
             static_cast<std::size_t>(r.sessions.forced_evictions))
        .set("max_kick_chain", r.max_kick_chain)
        .set("cache_hit_rate", r.report.cache.hit_rate())
        .set("p99_us", r.report.p99_latency_ns() * 1e-3)
        .set("qps", r.report.qps())
        .set("wall_ms", r.wall_ms)
        .set("queries_per_host_second", qphs);
  }

  json.write();

  const bool speedup_ok = speedup >= 3.0;
  std::cout << "\nhost speedup (reference / optimized): "
            << util::Table::factor(speedup)
            << (speedup_ok ? " (>= 3x acceptance met)"
                           : " (BELOW the 3x acceptance bar)")
            << "\nparity: "
            << (parity_ok ? "all compared reports bit-identical"
                          : "MISMATCH — optimization changed reports")
            << "\n";
  return parity_ok && speedup_ok ? 0 : 1;
}
