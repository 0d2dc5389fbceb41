// criteo_tiered_rw: synthetic Criteo through DLRM (26 one-hot tables) on
// CtrServable's fused score graph. Embeddings sit on the hot/warm/cold tier
// stack with online migration, the hot tier far smaller than the working
// set, and a fifth of the requests are embedding-update writes.
#include <algorithm>
#include <iostream>
#include <unordered_map>

#include "baseline/cpu_backend.hpp"
#include "baseline/gpu_model.hpp"
#include "core/backend.hpp"
#include "core/backend_factory.hpp"
#include "data/criteo.hpp"
#include "recsys/dlrm.hpp"
#include "serve/servable_ctr.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace imars;

namespace {

constexpr std::size_t kShards = 2;
// The deployed model: bench_end_to_end's Criteo data seed and recipe (the
// workload seed drives only the request stream, as for MovieLens).
constexpr std::uint64_t kDataSeed = 505;
constexpr std::size_t kSamples = 6000;
constexpr std::size_t kEpochs = 2;
constexpr std::size_t kGapImpressions = 100;

constexpr std::size_t kRequests = 8000;
constexpr double kUpdateFraction = 0.2;
constexpr double kRate = 100000.0;          // operating point, q/s
constexpr double kP99LimitUs = 500.0;       // capacity-search p99 limit

class CriteoTieredRw final : public Workload {
 public:
  explicit CriteoTieredRw(std::uint64_t seed) : seed_(seed) {
    cfg_.shards = kShards;
    cfg_.k = 1;
    cfg_.batcher.max_batch = 16;
    cfg_.batcher.max_wait = device::Ns{100000.0};
    cfg_.cache.capacity_rows = 256;
    cfg_.cache.warm_capacity_rows = 2048;
    cfg_.cache.cold_block_rows = 8;
  }

  void setup(SetupTimes& times) override {
    rt_.reset();
    ref_.reset();
    samples_.clear();
    model_.reset();
    ds_.reset();

    auto t0 = Clock::now();
    data::CriteoConfig dcfg;
    dcfg.num_samples = kSamples;
    dcfg.seed = kDataSeed;
    ds_ = std::make_unique<data::CriteoSynth>(dcfg);
    samples_.reserve(ds_->size());
    for (std::size_t i = 0; i < ds_->size(); ++i)
      samples_.push_back(ds_->sample(i));
    times.data_s += seconds_since(t0);

    t0 = Clock::now();
    recsys::DlrmConfig mcfg;  // paper dims: 256-128-32 / 256-64-1
    mcfg.seed = kDataSeed + 1;
    model_ = std::make_unique<recsys::Dlrm>(ds_->schema(), mcfg);
    util::Xoshiro256 rng(kDataSeed + 2);
    for (std::size_t e = 0; e < kEpochs; ++e)
      (void)model_->train_epoch(*ds_, rng);
    times.train_s += seconds_since(t0);

    t0 = Clock::now();
    calib_.assign(samples_.begin(), samples_.begin() + 8);
    const auto factory = core::imars_ctr_backend_factory(
        *model_, arch_, core::TimingMode::kWorstCaseSameArray, calib_);
    profiles_.assign(kShards, profile_);
    auto servable = std::make_unique<serve::CtrServable>(factory, profiles_);
    servable->bind_samples(samples_);
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

  serve::LoadGenConfig op_load() const override {
    serve::LoadGenConfig lg;
    lg.total_queries = kRequests;
    lg.num_users = samples_.size();
    lg.user_zipf_s = 0.9;
    lg.seed = mix_seed(seed_, 3);
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = kRate;
    lg.update_fraction = kUpdateFraction;
    return lg;
  }

  std::size_t host_pass_requests() const override { return 4000; }

  std::vector<double> rate_ladder() const override {
    std::vector<double> ladder;
    for (double r = 50000.0; r < 1.0e6; r *= 1.05) ladder.push_back(r);
    return ladder;
  }
  double p99_limit_us() const override { return kP99LimitUs; }

  OracleResult oracle(const serve::ServeReport& op) override {
    core::ImarsCtrBackend& ref = reference();
    baseline::CpuCtrBackend float_ref(*model_);
    OracleResult o;
    std::unordered_map<std::size_t, float> memo, float_memo;
    double score_us = 0.0;
    std::vector<int> labels;
    std::vector<double> scores, float_scores;
    for (const auto& q : op.queries) {
      auto it = memo.find(q.user);
      if (it == memo.end()) {
        const auto& smp = samples_[q.user];
        const auto t0 = Clock::now();
        const float ctr = ref.score(smp.dense, smp.sparse, nullptr);
        score_us += seconds_since(t0) * 1e6;
        it = memo.emplace(q.user, ctr).first;
      }
      if (q.topk.size() != 1 || q.topk[0].item != q.user ||
          q.topk[0].score != it->second)
        ++o.mismatched;
      if (q.topk.empty()) continue;
      auto fit = float_memo.find(q.user);
      if (fit == float_memo.end()) {
        const auto& smp = samples_[q.user];
        fit = float_memo
                  .emplace(q.user, float_ref.score(smp.dense, smp.sparse,
                                                   nullptr))
                  .first;
      }
      labels.push_back(samples_[q.user].label);
      scores.push_back(q.topk[0].score);
      float_scores.push_back(fit->second);
    }
    o.score_host_us =
        score_us / static_cast<double>(std::max<std::size_t>(memo.size(), 1));
    // AUC of the served scores against the impressions' labels, as a share
    // of the float model's AUC on the same impressions: the synthetic
    // labels' learnability varies by seed, the hardware's share does not.
    const double served_auc = util::auc(labels, scores);
    const double float_auc = util::auc(labels, float_scores);
    std::cerr << "[perfbench] ctr_auc served " << served_auc << ", float "
              << float_auc << "\n";
    o.quality = served_auc / float_auc;
    return o;
  }

  PaperGap paper_gap() override {
    core::ImarsCtrBackend& ref = reference();
    const baseline::GpuModel gpu;
    baseline::GpuCtrBackend gpu_ctr(*model_, gpu);
    recsys::StageStats cg, ch;
    for (std::size_t i = 0; i < kGapImpressions; ++i) {
      const auto& smp = samples_[i];
      (void)gpu_ctr.score(smp.dense, smp.sparse, &cg);
      (void)ref.score(smp.dense, smp.sparse, &ch);
    }
    const double n = static_cast<double>(kGapImpressions);
    PaperGap g;
    g.gpu_latency_us = cg.total().latency.us() / n;
    g.gpu_energy_uj = cg.total().energy.uj() / n;
    g.imars_latency_us = ch.total().latency.us() / n;
    g.imars_energy_uj = ch.total().energy.uj() / n;
    g.paper_latency_gain = 13.2;
    g.paper_energy_gain = 57.8;
    return g;
  }

  std::vector<device::EnergyLedger*> replica_ledgers() override {
    auto& ctr = dynamic_cast<serve::CtrServable&>(rt_->servable());
    std::vector<device::EnergyLedger*> out;
    for (std::size_t s = 0; s < ctr.shards(); ++s)
      out.push_back(&dynamic_cast<core::ImarsCtrBackend&>(ctr.backend(s))
                         .accelerator()
                         .ledger());
    return out;
  }

 private:
  /// The serial, unsharded reference replica (built outside set-up).
  core::ImarsCtrBackend& reference() {
    if (!ref_)
      ref_ = std::make_unique<core::ImarsCtrBackend>(
          *model_, arch_, profile_, core::TimingMode::kWorstCaseSameArray,
          calib_);
    return *ref_;
  }

  const std::uint64_t seed_;  ///< drives the request stream only
  core::ArchConfig arch_;
  device::DeviceProfile profile_ = device::DeviceProfile::fefet45();
  serve::ServingConfig cfg_;
  std::vector<device::DeviceProfile> profiles_;
  std::unique_ptr<data::CriteoSynth> ds_;
  std::unique_ptr<recsys::Dlrm> model_;
  std::vector<data::CriteoSample> samples_;
  std::vector<data::CriteoSample> calib_;
  std::unique_ptr<core::ImarsCtrBackend> ref_;
  std::unique_ptr<serve::ServingRuntime> rt_;
};

}  // namespace

std::unique_ptr<Workload> make_criteo_tiered_rw(std::uint64_t seed) {
  return std::make_unique<CriteoTieredRw>(seed);
}

}  // namespace perfbench
