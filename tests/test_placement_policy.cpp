// Frequency-aware placement tests: ShardMap pin layer semantics, the
// PlacementPolicy greedy hot-row assignment (hand-checked against the
// weighted-load formula), runtime warmup profiling, and the ISSUE's
// placement permutation-invariance property — ANY placement policy must
// yield identical top-k/scores to uniform placement (timing may differ,
// results may not), across the phased/deferred x loop x class grid.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "core/backend_factory.hpp"
#include "data/movielens.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/load_gen.hpp"
#include "serve/runtime.hpp"
#include "serve/shard_map.hpp"
#include "serve_test_util.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::ArrivalProcess;
using serve::HotKey;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::PlacementPolicy;
using serve::ServingConfig;
using serve::ServingRuntime;
using serve::ShardMap;

// --- ShardMap pin layer ----------------------------------------------------

TEST(ShardMapPins, PinsOverrideBucketRingOnlyForPinnedKeys) {
  ShardMap map = ShardMap::uniform(4);
  EXPECT_FALSE(map.has_pins());
  map.set_pins({{7, 2}, {8, 2}});
  EXPECT_TRUE(map.has_pins());
  EXPECT_EQ(map.pinned_rows(), 2u);
  EXPECT_EQ(map.shard_of(7), 2u);  // ring would say 7 % 4 == 3
  EXPECT_EQ(map.shard_of(8), 2u);  // ring would say 0
  EXPECT_TRUE(map.is_pinned(7));
  EXPECT_FALSE(map.is_pinned(6));
  for (std::size_t key = 0; key < 24; ++key)
    if (key != 7 && key != 8) EXPECT_EQ(map.shard_of(key), key % 4);
}

TEST(ShardMapPins, PartitionRemainsDisjointCoverUnderPins) {
  ShardMap map = ShardMap::uniform(3);
  map.set_pins({{0, 2}, {4, 0}, {5, 0}});
  std::vector<std::size_t> keys;
  for (std::size_t k = 0; k < 30; ++k) keys.push_back(k);
  const auto slices = map.partition(keys);
  std::size_t total = 0;
  std::vector<bool> seen(30, false);
  for (std::size_t s = 0; s < slices.size(); ++s)
    for (std::size_t k : slices[s]) {
      EXPECT_EQ(map.shard_of(k), s);
      EXPECT_FALSE(seen[k]);
      seen[k] = true;
      ++total;
    }
  EXPECT_EQ(total, keys.size());
}

TEST(ShardMapPins, SetPinsReplacesAndValidates) {
  ShardMap map = ShardMap::uniform(2);
  map.set_pins({{3, 1}});
  map.set_pins({{9, 0}});  // replaces, does not accumulate
  EXPECT_FALSE(map.is_pinned(3));
  EXPECT_TRUE(map.is_pinned(9));
  EXPECT_THROW(map.set_pins({{1, 5}}), imars::Error);  // shard out of range
}

// --- PlacementPolicy -------------------------------------------------------

TEST(PlacementPolicy, TopKeysSortsHottestFirstDeterministically) {
  std::unordered_map<std::size_t, std::uint64_t> counts = {
      {10, 4}, {11, 9}, {12, 4}, {13, 0}, {14, 1}};
  const auto top = PlacementPolicy::top_keys(counts, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 11u);  // hottest
  EXPECT_EQ(top[1].key, 10u);  // freq tie at 4 -> lower key first
  EXPECT_EQ(top[2].key, 12u);
  // Zero-frequency keys never surface even when the cap allows them.
  const auto all = PlacementPolicy::top_keys(counts, 10);
  EXPECT_EQ(all.size(), 4u);
}

TEST(PlacementPolicy, GreedyAssignmentBalancesMassByRowCost) {
  // Hand-checked greedy: shards cost {1, 3}; hot keys freq {8, 4, 2, 1}.
  //   k0: (0+8)*1=8  vs (0+8)*3=24  -> shard 0 (load 8)
  //   k1: (8+4)*1=12 vs (0+4)*3=12  -> tie, lower index -> shard 0 (load 12)
  //   k2: (12+2)*1=14 vs (0+2)*3=6  -> shard 1 (load 2)
  //   k3: (12+1)*1=13 vs (2+1)*3=9  -> shard 1
  const std::vector<HotKey> hot = {{100, 8}, {101, 4}, {102, 2}, {103, 1}};
  const std::vector<Ns> cost = {Ns{1.0}, Ns{3.0}};
  const ShardMap pinned =
      PlacementPolicy::pin_hot(ShardMap::uniform(2), hot, cost, 4);
  EXPECT_EQ(pinned.pinned_rows(), 4u);
  EXPECT_EQ(pinned.shard_of(100), 0u);
  EXPECT_EQ(pinned.shard_of(101), 0u);
  EXPECT_EQ(pinned.shard_of(102), 1u);
  EXPECT_EQ(pinned.shard_of(103), 1u);
}

TEST(PlacementPolicy, UniformCostBalancesPopularityMass) {
  // Equal costs: pure LPT on frequency mass.
  //   k0(4)->s0, k1(3)->s1, k2(2)->s1 (5 vs 6), k3(1)->s0 (5 vs 6).
  const std::vector<HotKey> hot = {{0, 4}, {1, 3}, {2, 2}, {3, 1}};
  const ShardMap pinned =
      PlacementPolicy::pin_hot(ShardMap::uniform(2), hot, {}, 4);
  EXPECT_EQ(pinned.shard_of(0), 0u);
  EXPECT_EQ(pinned.shard_of(1), 1u);
  EXPECT_EQ(pinned.shard_of(2), 1u);
  EXPECT_EQ(pinned.shard_of(3), 0u);
}

TEST(PlacementPolicy, RejectsBaseMapWithHandSetPins) {
  // pin_hot would silently replace hand-set pins; that conflict is an
  // explicit error instead.
  ShardMap base = ShardMap::uniform(2);
  base.set_pins({{5, 1}});
  const std::vector<HotKey> hot = {{0, 4}};
  EXPECT_THROW((void)PlacementPolicy::pin_hot(base, hot, {}, 1),
               imars::Error);
}

TEST(PlacementPolicy, OfflineHistogramOverloadMatchesCountsOverload) {
  std::unordered_map<std::size_t, std::uint64_t> counts = {
      {10, 4}, {11, 9}, {12, 4}, {13, 0}};
  std::vector<HotKey> profile;
  for (const auto& [k, f] : counts) profile.push_back({k, f});
  const auto a = PlacementPolicy::top_keys(counts, 8);
  const auto b = PlacementPolicy::top_keys(profile, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].freq, b[i].freq);
  }
}

TEST(PlacementPolicy, MaxPinsCapsAndZeroFreqStops) {
  const std::vector<HotKey> hot = {{0, 4}, {1, 3}, {2, 0}, {3, 0}};
  const ShardMap pinned =
      PlacementPolicy::pin_hot(ShardMap::uniform(2), hot, {}, 10);
  EXPECT_EQ(pinned.pinned_rows(), 2u);  // zero-frequency tail never pins
  const ShardMap capped =
      PlacementPolicy::pin_hot(ShardMap::uniform(2), hot, {}, 1);
  EXPECT_EQ(capped.pinned_rows(), 1u);
}

// --- Runtime placement -----------------------------------------------------

struct PlacementFixture {
  PlacementFixture() {
    data::MovieLensConfig dcfg;
    dcfg.num_users = 60;
    dcfg.num_items = 90;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 341;
    ds = std::make_unique<data::MovieLensSynth>(dcfg);

    recsys::YoutubeDnnConfig mcfg;
    mcfg.seed = 343;
    model = std::make_unique<recsys::YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(347);
    model->train_filter_epoch(*ds, rng);
    model->train_rank_epoch(*ds, rng);

    for (std::size_t u = 0; u < ds->num_users(); ++u)
      users.push_back(model->make_context(*ds, u));

    cpu_cfg.candidates = 40;
    factory = core::cpu_backend_factory(*model, cpu_cfg);
  }

  /// One serving run; `mutate` tweaks the config (placement, maps, ...).
  template <class Fn>
  serve::ServeReport run(std::size_t classes, bool open, bool phased,
                         Fn&& mutate) {
    ServingConfig cfg;
    cfg.shards = 3;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{300000.0};
    cfg.cache.capacity_rows = 256;
    if (phased) cfg.max_inflight = 0;
    if (classes > 1) {
      serve::QosClassConfig interactive;
      interactive.name = "interactive";
      interactive.max_batch = 2;
      interactive.max_wait = Ns{300000.0};
      interactive.weight = 2.0;
      interactive.deadline = Ns{150000.0};
      interactive.service_estimate = Ns{20000.0};
      serve::QosClassConfig bulk;
      bulk.name = "bulk";
      bulk.max_batch = 4;
      bulk.max_wait = Ns{300000.0};
      bulk.weight = 4.0;
      serve::QosClassConfig scavenger;
      scavenger.name = "scavenger";
      scavenger.max_batch = 4;
      scavenger.max_wait = Ns{300000.0};
      scavenger.weight = 0.0;
      cfg.qos.classes = {interactive, bulk, scavenger};
    }
    mutate(cfg);
    ServingRuntime rt(factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 40;
    lg.num_users = users.size();
    lg.user_zipf_s = 1.0;
    lg.seed = 371;
    if (classes > 1) lg.class_mix = {0.2, 0.7, 0.1};
    if (open) {
      lg.arrivals = ArrivalProcess::kOpenPoisson;
      lg.rate_qps = 2.0e5;
    }
    LoadGenerator gen(lg);
    return rt.run(gen, users);
  }

  std::unique_ptr<data::MovieLensSynth> ds;
  std::unique_ptr<recsys::YoutubeDnn> model;
  std::vector<recsys::UserContext> users;
  baseline::CpuBackendConfig cpu_cfg;
  core::BackendFactory factory;
};

TEST(RuntimePlacement, WarmupWindowPinsHotRowsAndReportsPinHits) {
  PlacementFixture fx;
  const auto report =
      fx.run(1, /*open=*/false, /*phased=*/true, [](ServingConfig& cfg) {
        cfg.placement.enabled = true;
        cfg.placement.hot_rows = 16;
        cfg.placement.warmup_queries = 24;
      });
  ASSERT_EQ(report.size(), 40u);
  // Pins were derived and traffic actually routed through them.
  EXPECT_GT(report.routed_items, 0u);
  EXPECT_GT(report.pinned_items, 0u);
  EXPECT_GT(report.pin_hit_rate(), 0.0);
  EXPECT_LE(report.pin_hit_rate(), 1.0);
}

TEST(RuntimePlacement, PlacementRunsAreSeedDeterministic) {
  PlacementFixture fx;
  auto configure = [](ServingConfig& cfg) {
    cfg.placement.enabled = true;
    cfg.placement.hot_rows = 12;
    cfg.placement.warmup_queries = 20;
  };
  const auto a = fx.run(1, true, false, configure);
  const auto b = fx.run(1, true, false, configure);
  serve_test::expect_reports_identical(a, b);
  EXPECT_EQ(a.pinned_items, b.pinned_items);
  EXPECT_EQ(a.routed_items, b.routed_items);
}

TEST(RuntimePlacement, MisconfiguredPlacementRejected) {
  PlacementFixture fx;
  EXPECT_THROW(fx.run(1, false, false,
                      [](ServingConfig& cfg) {
                        cfg.placement.enabled = true;  // no pins, no profile
                      }),
               imars::Error);
  EXPECT_THROW(fx.run(1, false, false,
                      [](ServingConfig& cfg) {
                        cfg.placement.enabled = true;
                        cfg.placement.hot_rows = 8;  // no profile source
                      }),
               imars::Error);
}

// --- The permutation-invariance property (ISSUE satellite) -----------------
// Any placement policy — warmup-profiled pins, an adversarial offline
// histogram, even every hot row slammed onto one shard — must yield
// identical per-query top-k/scores to uniform placement, across the
// phased/deferred x loop x class grid. Timing may differ; results may not.

TEST(RuntimePlacement, PermutationInvarianceAcrossOverlapLoopClassGrid) {
  PlacementFixture fx;
  for (const std::size_t classes : {std::size_t{1}, std::size_t{3}}) {
    for (const bool open : {false, true}) {
      for (const bool phased : {false, true}) {
        const auto uniform =
            fx.run(classes, open, phased, [](ServingConfig&) {});
        // Warmup-profiled frequency-aware pins.
        const auto pinned =
            fx.run(classes, open, phased, [](ServingConfig& cfg) {
              cfg.placement.enabled = true;
              cfg.placement.hot_rows = 24;
              cfg.placement.warmup_queries = 24;
            });
        // Adversarial offline histogram: fabricated frequencies pinning a
        // spread of item keys wherever the greedy sends them.
        const auto offline =
            fx.run(classes, open, phased, [](ServingConfig& cfg) {
              cfg.placement.enabled = true;
              cfg.placement.hot_rows = 32;
              for (std::size_t k = 0; k < 32; ++k)
                cfg.placement.histogram.push_back(
                    {k * 3 % 90, 100 - k});
            });
        // Pathological hand-built map: every third key pinned to shard 2.
        const auto lopsided =
            fx.run(classes, open, phased, [](ServingConfig& cfg) {
              ShardMap map = ShardMap::uniform(3);
              std::vector<std::pair<std::size_t, std::uint32_t>> pins;
              for (std::size_t k = 0; k < 90; k += 3) pins.push_back({k, 2});
              map.set_pins(std::move(pins));
              cfg.shard_map = std::move(map);
            });
        serve_test::expect_results_identical(uniform, pinned);
        serve_test::expect_results_identical(uniform, offline);
        serve_test::expect_results_identical(uniform, lopsided);
      }
    }
  }
}

}  // namespace
}  // namespace imars
