// MovieLens workloads: ml_paper (two-stage filter->rank through
// ShardRouter, open loop) and ml_funnel (retrieve->filter->rank->re-rank
// through FunnelServable, closed loop). Both build the same paper-scale
// synthetic MovieLens-1M, the same trained YouTubeDNN and the same FeFET-45
// iMARS replicas.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <unordered_map>
#include <unordered_set>

#include "baseline/cpu_backend.hpp"
#include "baseline/gpu_model.hpp"
#include "core/backend.hpp"
#include "core/backend_factory.hpp"
#include "core/calibration.hpp"
#include "data/movielens.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/servable_funnel.hpp"
#include "serve/shard_router.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace imars;

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kTopK = 10;
// The deployed model: bench_end_to_end's MovieLens data seed and training
// recipe at paper scale. The workload seed drives only the request stream,
// so seed-to-seed differences measure traffic rather than retraining, and
// the serial pass reproduces BENCH_e2e.json's movielens row on every seed.
constexpr std::uint64_t kDataSeed = 404;
constexpr std::size_t kFilterEpochs = 4;
constexpr std::size_t kRankEpochs = 2;
// The serial single-query comparison of bench_end_to_end: users 0..99,
// radius calibrated on the first 60 so ~20 candidates reach ranking.
constexpr std::size_t kGapUsers = 100;
constexpr std::size_t kCalibUsers = 60;

/// The engine's scored-item order (score desc, item asc).
bool score_order(const recsys::ScoredItem& a, const recsys::ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

bool same_topk(const std::vector<recsys::ScoredItem>& a,
               const std::vector<recsys::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].item != b[i].item || a[i].score != b[i].score) return false;
  return true;
}

/// Shared MovieLens build: data, model, calibrated iMARS replicas, the
/// serial reference replica and the float CPU reference.
class MlBase : public Workload {
 public:
  explicit MlBase(std::uint64_t seed) : seed_(seed) {}

  void setup(SetupTimes& times) override {
    rt_.reset();
    ref_.reset();
    cpu_.reset();
    float_top_.clear();
    users_.clear();
    model_.reset();
    ds_.reset();

    auto t0 = Clock::now();
    data::MovieLensConfig dcfg;  // full MovieLens-1M shape
    dcfg.seed = kDataSeed;
    ds_ = std::make_unique<data::MovieLensSynth>(dcfg);
    times.data_s += seconds_since(t0);

    t0 = Clock::now();
    recsys::YoutubeDnnConfig mcfg;  // paper dims: 32-d, 128-64-32 / 128-1
    mcfg.seed = kDataSeed + 1;
    model_ = std::make_unique<recsys::YoutubeDnn>(ds_->schema(), mcfg);
    util::Xoshiro256 rng(kDataSeed + 2);
    for (std::size_t e = 0; e < kFilterEpochs; ++e)
      (void)model_->train_filter_epoch(*ds_, rng);
    for (std::size_t e = 0; e < kRankEpochs; ++e)
      (void)model_->train_rank_epoch(*ds_, rng);
    times.train_s += seconds_since(t0);

    t0 = Clock::now();
    users_.reserve(ds_->num_users());
    for (std::size_t u = 0; u < ds_->num_users(); ++u)
      users_.push_back(model_->make_context(*ds_, u));
    times.data_s += seconds_since(t0);

    t0 = Clock::now();
    const std::vector<recsys::UserContext> calib(users_.begin(),
                                                 users_.begin() + 8);
    icfg_ = core::ImarsBackendConfig{};
    icfg_.timing = core::TimingMode::kWorstCaseSameArray;
    icfg_.max_candidates = core::kEndToEndCandidates;
    icfg_.nns_radius = calibrate_radius(calib);
    factory_ = core::imars_backend_factory(*model_, arch_, profile_, icfg_,
                                           calib);
    traffic_.filter_features = model_->filter_features();
    traffic_.rank_features = model_->rank_features();
    auto servable = make_servable();
    times.load_s += seconds_since(t0);

    t0 = Clock::now();
    rt_ = std::make_unique<serve::ServingRuntime>(std::move(servable), cfg_,
                                                  arch_, profile_);
    times.runtime_s += seconds_since(t0);
  }

  serve::ServingRuntime& runtime() override { return *rt_; }
  const serve::ServingConfig& serving_config() const override { return cfg_; }
  const core::ArchConfig& arch() const override { return arch_; }
  const device::DeviceProfile& profile() const override { return profile_; }

  PaperGap paper_gap() override {
    core::ImarsBackend& ref = reference();
    const baseline::GpuModel gpu;
    baseline::GpuBackendConfig gcfg;
    gcfg.candidates = core::kEndToEndCandidates;
    baseline::GpuModelBackend gpu_be(*model_, gpu, gcfg);
    recsys::StageStats gf, gr, hf, hr;
    for (std::size_t u = 0; u < kGapUsers; ++u) {
      (void)recsys::recommend(gpu_be, users_[u], kTopK, &gf, &gr);
      const auto cands = ref.filter(users_[u], &hf);
      (void)ref.rank(users_[u], cands, kTopK, &hr);
    }
    const double n = static_cast<double>(kGapUsers);
    PaperGap g;
    g.gpu_latency_us =
        (gf.total().latency.us() + gr.total().latency.us()) / n;
    g.gpu_energy_uj = (gf.total().energy.uj() + gr.total().energy.uj()) / n;
    g.imars_latency_us =
        (hf.total().latency.us() + hr.total().latency.us()) / n;
    g.imars_energy_uj =
        (hf.total().energy.uj() + hr.total().energy.uj()) / n;
    g.paper_latency_gain = 16.8;
    g.paper_energy_gain = 713.0;
    return g;
  }

 protected:
  virtual std::unique_ptr<serve::ServableBackend> make_servable() = 0;

  /// The serial, unsharded reference replica: the fabric's own replica
  /// configuration, built outside the timed set-up.
  core::ImarsBackend& reference() {
    if (!ref_)
      ref_ = std::make_unique<core::ImarsBackend>(
          *model_, arch_, profile_, icfg_,
          std::span<const recsys::UserContext>(users_.data(), 8));
    return *ref_;
  }

  /// bench_end_to_end's fixed-radius calibration: the TCAM radius whose
  /// candidate count (capped at the item buffer) averages closest to the
  /// GPU baseline's top-20 over the first kCalibUsers users.
  std::size_t calibrate_radius(std::span<const recsys::UserContext> calib) {
    core::ImarsBackend probe(*model_, arch_, profile_, icfg_, calib);
    const auto deq = model_->item_table().quantized().dequantize();
    std::vector<util::BitVec> sigs;
    sigs.reserve(deq.rows());
    for (std::size_t r = 0; r < deq.rows(); ++r)
      sigs.push_back(probe.signature_of(deq.row(r)));
    std::vector<util::BitVec> queries;
    for (std::size_t u = 0; u < kCalibUsers; ++u)
      queries.push_back(
          probe.signature_of(probe.user_embedding_hw(users_[u], nullptr)));
    std::size_t best_radius = 96;
    double best_err = 1e18;
    for (std::size_t radius = 24; radius <= 120; radius += 4) {
      double total = 0.0;
      for (const auto& q : queries) {
        std::size_t count = 0;
        for (const auto& sig : sigs)
          if (sig.hamming(q) <= radius) ++count;
        total += static_cast<double>(std::min(count, icfg_.max_candidates));
      }
      const double err =
          std::abs(total / static_cast<double>(kCalibUsers) -
                   static_cast<double>(core::kEndToEndCandidates));
      if (err < best_err) {
        best_err = err;
        best_radius = radius;
      }
    }
    return best_radius;
  }

  /// The float reference model's top-10 for a user (memoized).
  const std::vector<recsys::ScoredItem>& float_top(std::size_t user) {
    if (!cpu_) {
      baseline::CpuBackendConfig ccfg;
      ccfg.variant = baseline::FilterVariant::kFp32Cosine;
      cpu_ = std::make_unique<baseline::CpuBackend>(*model_, ccfg);
    }
    auto it = float_top_.find(user);
    if (it == float_top_.end())
      it = float_top_
               .emplace(user, recsys::recommend(*cpu_, users_[user], kTopK,
                                                nullptr, nullptr))
               .first;
    return it->second;
  }

  /// The oracle shared by both workloads: every served top-k must equal
  /// `reference(user)` exactly (memoized per user; the call reports its
  /// filter-side and rank-side host microseconds), and output quality is
  /// recall@10 against the float model's top-10.
  using Reference = std::function<std::vector<recsys::ScoredItem>(
      std::size_t user, double* filter_us, double* rank_us)>;
  OracleResult check_outputs(const serve::ServeReport& op,
                             const Reference& reference) {
    OracleResult o;
    std::unordered_map<std::size_t, std::vector<recsys::ScoredItem>> memo;
    double filter_us = 0.0, rank_us = 0.0, recall = 0.0;
    for (const auto& q : op.queries) {
      auto it = memo.find(q.user);
      if (it == memo.end())
        it = memo.emplace(q.user, reference(q.user, &filter_us, &rank_us))
                 .first;
      if (!same_topk(q.topk, it->second)) ++o.mismatched;
      const auto& want = float_top(q.user);
      std::unordered_set<std::size_t> got;
      for (const auto& s : q.topk) got.insert(s.item);
      std::size_t hit = 0;
      for (const auto& s : want) hit += got.count(s.item);
      recall += static_cast<double>(hit) /
                static_cast<double>(std::max<std::size_t>(want.size(), 1));
    }
    const double calls = static_cast<double>(memo.size());
    o.filter_host_us = filter_us / calls;
    o.rank_host_us = rank_us / calls;
    o.quality = recall / static_cast<double>(op.queries.size());
    return o;
  }

  std::vector<device::EnergyLedger*> ledgers_of(
      std::size_t shards,
      const std::function<recsys::FilterRankBackend&(std::size_t)>& backend) {
    std::vector<device::EnergyLedger*> out;
    for (std::size_t s = 0; s < shards; ++s)
      out.push_back(&dynamic_cast<core::ImarsBackend&>(backend(s))
                         .accelerator()
                         .ledger());
    return out;
  }

  const std::uint64_t seed_;  ///< drives the request stream only
  core::ArchConfig arch_;
  device::DeviceProfile profile_ = device::DeviceProfile::fefet45();
  serve::ServingConfig cfg_;
  serve::TrafficSpec traffic_;
  /// Per-shard device profiles; a FunnelServable keeps a view of them, so
  /// they outlive the runtime below.
  std::vector<device::DeviceProfile> profiles_;
  core::ImarsBackendConfig icfg_;
  core::BackendFactory factory_;
  std::unique_ptr<data::MovieLensSynth> ds_;
  std::unique_ptr<recsys::YoutubeDnn> model_;
  std::vector<recsys::UserContext> users_;
  std::unique_ptr<core::ImarsBackend> ref_;
  std::unique_ptr<baseline::CpuBackend> cpu_;
  std::unordered_map<std::size_t, std::vector<recsys::ScoredItem>> float_top_;
  std::unique_ptr<serve::ServingRuntime> rt_;
};

// --- ml_paper ----------------------------------------------------------------

constexpr std::size_t kPaperQueries = 1200;
constexpr double kPaperRate = 20000.0;       // operating point, q/s
constexpr double kPaperP99LimitUs = 1000.0;  // capacity-search p99 limit

class MlPaper final : public MlBase {
 public:
  explicit MlPaper(std::uint64_t seed) : MlBase(seed) {
    cfg_.shards = kShards;
    cfg_.k = kTopK;
    cfg_.batcher.max_batch = 8;
    cfg_.batcher.max_wait = device::Ns{100000.0};
    cfg_.cache.capacity_rows = 8192;
  }

  serve::LoadGenConfig op_load() const override {
    serve::LoadGenConfig lg;
    lg.total_queries = kPaperQueries;
    lg.num_users = users_.size();
    lg.user_zipf_s = 0.9;
    lg.seed = mix_seed(seed_, 1);
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = kPaperRate;
    return lg;
  }

  std::size_t host_pass_requests() const override { return 400; }

  std::vector<double> rate_ladder() const override {
    std::vector<double> ladder;
    for (double r = 20000.0; r < 150000.0; r *= 1.05) ladder.push_back(r);
    return ladder;
  }
  double p99_limit_us() const override { return kPaperP99LimitUs; }

  OracleResult oracle(const serve::ServeReport& op) override {
    core::ImarsBackend& ref = reference();
    return check_outputs(op, [&](std::size_t user, double* filter_us,
                                 double* rank_us) {
      auto t0 = Clock::now();
      const auto cands = ref.filter(users_[user], nullptr);
      *filter_us += seconds_since(t0) * 1e6;
      t0 = Clock::now();
      auto top = ref.rank(users_[user], cands, kTopK, nullptr);
      *rank_us += seconds_since(t0) * 1e6;
      return top;
    });
  }

  std::vector<device::EnergyLedger*> replica_ledgers() override {
    auto& router = dynamic_cast<serve::ShardRouter&>(rt_->servable());
    return ledgers_of(router.shards(), [&](std::size_t s) -> auto& {
      return router.backend(s);
    });
  }

 protected:
  std::unique_ptr<serve::ServableBackend> make_servable() override {
    auto router =
        std::make_unique<serve::ShardRouter>(factory_, kShards, traffic_);
    router->bind_users(users_);
    return router;
  }
};

// --- ml_funnel ---------------------------------------------------------------

constexpr std::size_t kFunnelQueries = 1000;
// Two waiting callers keep the rank stage ~70% busy without saturating it:
// from four clients on latency pins to clients / throughput and p50 and p99
// coincide.
constexpr std::size_t kFunnelClients = 2;

class MlFunnel final : public MlBase {
 public:
  explicit MlFunnel(std::uint64_t seed) : MlBase(seed) {
    cfg_.shards = kShards;
    cfg_.k = kTopK;
    cfg_.batcher.max_batch = 4;
    cfg_.batcher.max_wait = device::Ns{50000.0};
    cfg_.cache.capacity_rows = 8192;
    fcfg_.retrieval = serve::RetrievalKind::kIvf;
    fcfg_.retrieve_k = 64;
    fcfg_.filter_radius = 24;
    fcfg_.rank_keep = 24;
    fcfg_.ivf.nlist = 64;
    fcfg_.ivf.nprobe = 4;
  }

  serve::LoadGenConfig op_load() const override {
    serve::LoadGenConfig lg;
    lg.clients = kFunnelClients;
    lg.total_queries = kFunnelQueries;
    lg.num_users = users_.size();
    lg.user_zipf_s = 0.9;
    lg.seed = mix_seed(seed_, 2);
    lg.arrivals = serve::ArrivalProcess::kClosedLoop;
    return lg;
  }
  std::size_t host_pass_requests() const override { return 300; }

  OracleResult oracle(const serve::ServeReport& op) override {
    // The serial reference: the same funnel on ONE shard, its four stages
    // called in graph order with the engine's merge rule in between.
    const std::vector<device::DeviceProfile> one(1, profile_);
    serve::FunnelServable ref(*model_, arch_, factory_, one, fcfg_, traffic_);
    ref.bind_users(users_);
    const auto& spec = ref.spec();
    std::size_t s_ret = 0, s_fil = 0, s_rank = 0, s_rer = 0;
    for (std::size_t s = 0; s < spec.stage_count(); ++s) {
      const auto& n = spec.stages[s].name;
      (n == "retrieve" ? s_ret
       : n == "filter" ? s_fil
       : n == "rank"   ? s_rank
                       : s_rer) = s;
    }
    return check_outputs(op, [&](std::size_t user, double* filter_us,
                                 double* rank_us) {
      serve::Request req;
      req.user = user;
      auto t0 = Clock::now();
      const auto retrieved = ref.run_replicated(s_ret, 0, req, nullptr);
      const auto fed = ref.run_replicated_fed(s_fil, 0, req, retrieved,
                                              nullptr);
      *filter_us += seconds_since(t0) * 1e6;
      t0 = Clock::now();
      auto ranked =
          ref.run_sharded(s_rank, 0, req, fed, fcfg_.rank_keep, nullptr);
      std::sort(ranked.begin(), ranked.end(), score_order);
      if (ranked.size() > fcfg_.rank_keep) ranked.resize(fcfg_.rank_keep);
      std::vector<std::size_t> kept;
      for (const auto& r : ranked) kept.push_back(r.item);
      auto top = ref.run_sharded(s_rer, 0, req, kept, kTopK, nullptr);
      std::sort(top.begin(), top.end(), score_order);
      if (top.size() > kTopK) top.resize(kTopK);
      *rank_us += seconds_since(t0) * 1e6;
      return top;
    });
  }

  std::vector<device::EnergyLedger*> replica_ledgers() override {
    auto& funnel = dynamic_cast<serve::FunnelServable&>(rt_->servable());
    return ledgers_of(funnel.shards(), [&](std::size_t s) -> auto& {
      return funnel.backend(s);
    });
  }

 protected:
  std::unique_ptr<serve::ServableBackend> make_servable() override {
    profiles_.assign(kShards, profile_);
    auto funnel = std::make_unique<serve::FunnelServable>(
        *model_, arch_, factory_, profiles_, fcfg_, traffic_);
    funnel->bind_users(users_);
    return funnel;
  }

 private:
  serve::FunnelConfig fcfg_;
};

}  // namespace

std::unique_ptr<Workload> make_ml_paper(std::uint64_t seed) {
  return std::make_unique<MlPaper>(seed);
}
std::unique_ptr<Workload> make_ml_funnel(std::uint64_t seed) {
  return std::make_unique<MlFunnel>(seed);
}

}  // namespace perfbench
