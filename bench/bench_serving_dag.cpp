// Stage-DAG serving benchmark (extension): tower-parallel CTR vs the same
// three stages linearized (ISSUE 4 / ROADMAP "deeper stage graphs").
//
// DLRM's serving flow is a graph: the dense bottom-MLP tower runs on the
// crossbars while the 26 embedding gathers run on the CMA banks — disjoint
// hardware that a linear stage chain needlessly serializes (MicroRec,
// arXiv:2010.05894, wins its inference latency exactly here). Three graphs
// over the SAME model, replicas and arrival stream:
//
//   fused    one sharded score stage (the pre-DAG CtrServable; reference)
//   chain    gather -> dense -> interact as a linear chain (same per-stage
//            work as the DAG, serialized — isolates the graph effect from
//            the stage split)
//   dag      gather ∥ dense joining at interact (CtrGraph::kTowerDag)
//
// The open-loop Poisson stream is driven above the CHAIN's closed-loop
// capacity, where queueing amplifies the per-query critical-path gap into
// a tail-latency gap. Top-k/score parity between chain and dag is asserted
// query by query (the graphs must never change results, only timing).
//
// Emits BENCH_serving_dag.json (bench/harness.hpp JsonReport) with
// QPS/p50/p99 per graph, the p99/QPS deltas, and per-node utilization.
// Exit code 0 iff parity holds and the dag beats the chain on p99 and QPS.
#include <iostream>

#include "core/backend_factory.hpp"
#include "harness.hpp"
#include "serve/runtime.hpp"
#include "serve/servable_ctr.hpp"
#include "serve/trace.hpp"
#include "util/table.hpp"

using namespace imars;

int main(int argc, char** argv) {
  // --self-profile / --trace <file>: observation only (harness.hpp); the
  // trace exports the tower-parallel dag point.
  const auto obs = bench::parse_observe_flags(argc, argv);
  const bool quick = bench::quick_mode();
  const std::size_t train_samples = quick ? 800 : 4000;
  const std::size_t queries = quick ? 48 : 192;
  const std::size_t population = quick ? 128 : 512;
  const std::size_t shards = 2;

  std::cout << "=== Extension: stage-DAG serving (tower-parallel CTR) ===\n"
            << "(synthetic Criteo, " << queries
            << " Zipf-skewed impressions per graph, " << shards
            << " FeFET-45 shards)\n\n";

  auto cr = bench::make_criteo(train_samples, quick ? 1 : 2);
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < std::min(population, cr.ds->size()); ++i)
    samples.push_back(cr.ds->sample(i));
  std::vector<data::CriteoSample> calib(samples.begin(), samples.begin() + 8);

  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();
  const std::vector<device::DeviceProfile> profiles(shards, profile);
  const auto factory = core::imars_ctr_backend_factory(
      *cr.model, arch, core::TimingMode::kWorstCaseSameArray, calib);

  auto make_runtime = [&](serve::CtrGraph graph, bool open, double rate_qps)
      -> std::pair<std::unique_ptr<serve::ServingRuntime>,
                   serve::LoadGenConfig> {
    auto servable =
        std::make_unique<serve::CtrServable>(factory, profiles, graph);
    servable->bind_samples(samples);
    serve::ServingConfig cfg;
    cfg.k = 1;
    cfg.batcher.max_batch = 16;
    cfg.batcher.max_wait = device::Ns{500000.0};
    cfg.self_profile = obs.any();
    auto rt = std::make_unique<serve::ServingRuntime>(std::move(servable),
                                                      cfg, arch, profile);
    serve::LoadGenConfig lg;
    lg.clients = 16;
    lg.total_queries = queries;
    lg.num_users = samples.size();
    lg.user_zipf_s = 0.9;
    lg.seed = 233;  // same impression stream for every graph
    if (open) {
      lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
      lg.rate_qps = rate_qps;
    }
    return {std::move(rt), lg};
  };

  // Closed-loop capacity probe of the linearized graph: the overload rate
  // is anchored above what the CHAIN can sustain.
  double chain_capacity = 0.0;
  {
    auto [rt, lg] = make_runtime(serve::CtrGraph::kTowerChain, false, 0.0);
    serve::LoadGenerator gen(lg);
    chain_capacity = rt->run(gen).qps();
  }
  const double rate = 1.3 * chain_capacity;
  std::cout << "chain capacity probe: " << util::Table::num(chain_capacity, 0)
            << " qps; offered open-loop load " << util::Table::num(rate, 0)
            << " qps (1.3x)\n\n";

  bench::JsonReport json("serving_dag");
  json.record("capacity")
      .set("chain_capacity_qps", chain_capacity)
      .set("rate_qps", rate)
      .set("queries", queries)
      .set("shards", shards);

  struct GraphPoint {
    std::string name;
    serve::CtrGraph graph;
  };
  const std::vector<GraphPoint> grid = {
      {"fused", serve::CtrGraph::kFused},
      {"chain", serve::CtrGraph::kTowerChain},
      {"dag", serve::CtrGraph::kTowerDag},
  };

  util::Table table("tower-parallel vs linearized CTR (" +
                    std::to_string(queries) + " impressions, open loop)");
  table.header({"graph", "QPS", "p50 us", "p99 us", "node util s0"});

  std::vector<serve::ServeReport> reports;
  for (const auto& g : grid) {
    auto [rt, lg] = make_runtime(g.graph, true, rate);
    serve::LoadGenerator gen(lg);
    serve::TraceLog trace;
    const bool traced = !obs.trace_path.empty() && g.name == "dag";
    if (traced) rt->set_observer(&trace);
    reports.push_back(rt->run(gen));
    if (traced) {
      rt->set_observer(nullptr);
      trace.write(obs.trace_path);
      std::cout << "trace: " << trace.events().size() << " events -> "
                << obs.trace_path << "\n";
    }
    const auto& report = reports.back();
    if (obs.self_profile)
      bench::print_host_spans(g.name, report.host_span_us, std::cout);

    std::string utils;
    for (const auto& node : report.stage_names[0]) {
      if (!utils.empty()) utils += " ";
      utils += node.substr(0, 3) + "=" +
               util::Table::num(report.stage_utilization(0, node), 2);
    }
    table.row({g.name, util::Table::num(report.qps(), 0),
               util::Table::num(report.p50_latency_ns() * 1e-3, 1),
               util::Table::num(report.p99_latency_ns() * 1e-3, 1), utils});

    auto& rec = json.record(g.name)
                    .set("queries", queries)
                    .set("rate_qps", rate)
                    .set("qps", report.qps())
                    .set("p50_us", report.p50_latency_ns() * 1e-3)
                    .set("p95_us", report.p95_latency_ns() * 1e-3)
                    .set("p99_us", report.p99_latency_ns() * 1e-3)
                    .set("mean_batch", report.mean_batch_size())
                    .set("makespan_ms", report.makespan.ms());
    for (std::size_t s = 0; s < shards; ++s)
      for (const auto& node : report.stage_names[0])
        rec.set("util_" + node + "_s" + std::to_string(s),
                report.stage_utilization(s, node));
  }
  table.print(std::cout);

  // Result parity: the graphs must rank identically — same queries in the
  // same order with the same top-k ids and scores.
  bool parity = true;
  const auto& fused = reports[0];
  const auto& chain = reports[1];
  const auto& dag = reports[2];
  for (const auto* other : {&fused, &chain}) {
    if (other->size() != dag.size()) parity = false;
    for (std::size_t i = 0; parity && i < dag.size(); ++i) {
      const auto& a = other->queries[i];
      const auto& b = dag.queries[i];
      if (a.id != b.id || a.topk.size() != b.topk.size()) parity = false;
      for (std::size_t j = 0; parity && j < a.topk.size(); ++j)
        if (a.topk[j].item != b.topk[j].item ||
            a.topk[j].score != b.topk[j].score)
          parity = false;
    }
  }

  const double p99_chain = chain.p99_latency_ns();
  const double p99_dag = dag.p99_latency_ns();
  const double p99_gain = p99_chain > 0.0 ? 1.0 - p99_dag / p99_chain : 0.0;
  const double qps_gain =
      chain.qps() > 0.0 ? dag.qps() / chain.qps() - 1.0 : 0.0;
  const double p99_vs_fused = fused.p99_latency_ns() > 0.0
                                  ? 1.0 - p99_dag / fused.p99_latency_ns()
                                  : 0.0;
  json.record("delta")
      .set("p99_gain", p99_gain)
      .set("qps_gain", qps_gain)
      .set("p99_gain_vs_fused", p99_vs_fused)
      .set("qps_gain_vs_fused",
           fused.qps() > 0.0 ? dag.qps() / fused.qps() - 1.0 : 0.0)
      .set("parity", parity ? 1 : 0);
  json.write();

  const bool tail_ok = p99_dag < p99_chain;
  const bool qps_ok = dag.qps() >= chain.qps();
  std::cout << "\ntower-parallel dag vs linearized chain: p99 "
            << util::Table::num(p99_chain * 1e-3, 1) << " us -> "
            << util::Table::num(p99_dag * 1e-3, 1) << " us ("
            << util::Table::num(p99_gain * 100.0, 1) << "% lower), QPS "
            << util::Table::num(chain.qps(), 0) << " -> "
            << util::Table::num(dag.qps(), 0) << " (+"
            << util::Table::num(qps_gain * 100.0, 1) << "%); vs the fused\n"
            << "pre-DAG graph: p99 "
            << util::Table::num(p99_vs_fused * 100.0, 1)
            << "% lower; top-k parity " << (parity ? "OK" : "FAIL") << "\n"
            << "Reading: splitting the fused score into per-tower stage\n"
               "units is where most of the tail collapses (queries pipeline\n"
               "across the gather/dense/interact units instead of queueing\n"
               "on one fused unit); the DAG edge then overlaps the CMA\n"
               "gathers with the crossbar bottom-MLP, trimming the\n"
               "remaining critical path — a small margin here because\n"
               "iMARS's in-memory gather is already fast, exactly the\n"
               "paper's point.\n";
  return (parity && tail_ok && qps_ok) ? 0 : 1;
}
