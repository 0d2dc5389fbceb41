// Shared helpers for the serving test suites: the "same seed => bit-
// identical ServeReport" comparator that used to be re-implemented inline
// wherever determinism was asserted (deferred/phased, seed replays, QoS
// grids). Bit-identical means EXACT double equality on every timestamp,
// latency and energy figure — the engine's determinism contract is that
// scheduling mode never changes accounting, not that it stays "close".
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "serve/serve_stats.hpp"

namespace imars::serve_test {

/// Asserts two serving reports are bit-identical: same queries in the same
/// order with equal timestamps/latencies/energies/results, same batches,
/// same cache counters, same per-shard busy time, same per-class
/// accounting, same write-back traffic. Host-side telemetry
/// (ServeReport::host_span_us, ServeReport::peak_inflight) is deliberately
/// NOT compared — those fields describe how the simulator ran on the host
/// (wall clock, batches awaiting collection), which the determinism
/// contract explicitly allows to differ between scheduling modes.
inline void expect_reports_identical(const serve::ServeReport& a,
                                     const serve::ServeReport& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_DOUBLE_EQ(a.makespan.value, b.makespan.value);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache.warm_hits, b.cache.warm_hits);
  EXPECT_EQ(a.cache.cold_faults, b.cache.cold_faults);
  EXPECT_EQ(a.cache.cold_rows_fetched, b.cache.cold_rows_fetched);
  EXPECT_EQ(a.cache.warm_evictions, b.cache.warm_evictions);
  EXPECT_EQ(a.cache.promotions, b.cache.promotions);
  EXPECT_EQ(a.cache.flushes_warm, b.cache.flushes_warm);
  EXPECT_EQ(a.cache.flushes_cold, b.cache.flushes_cold);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.flush_bytes, b.flush_bytes);
  EXPECT_DOUBLE_EQ(a.update_cost.latency.value, b.update_cost.latency.value);

  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& qa = a.queries[i];
    const auto& qb = b.queries[i];
    ASSERT_EQ(qa.id, qb.id) << "query " << i;
    EXPECT_EQ(qa.user, qb.user);
    EXPECT_EQ(qa.qos_class, qb.qos_class);
    EXPECT_EQ(qa.batch, qb.batch);
    EXPECT_EQ(qa.batch_size, qb.batch_size);
    EXPECT_EQ(qa.home_shard, qb.home_shard);
    EXPECT_EQ(qa.candidates, qb.candidates);
    EXPECT_DOUBLE_EQ(qa.enqueue.value, qb.enqueue.value) << "query " << i;
    EXPECT_DOUBLE_EQ(qa.dispatch.value, qb.dispatch.value) << "query " << i;
    EXPECT_DOUBLE_EQ(qa.complete.value, qb.complete.value) << "query " << i;
    EXPECT_DOUBLE_EQ(qa.device_time.value, qb.device_time.value);
    EXPECT_DOUBLE_EQ(qa.energy.value, qb.energy.value);
    ASSERT_EQ(qa.topk.size(), qb.topk.size()) << "query " << i;
    for (std::size_t j = 0; j < qa.topk.size(); ++j) {
      EXPECT_EQ(qa.topk[j].item, qb.topk[j].item)
          << "query " << i << " position " << j;
      EXPECT_FLOAT_EQ(qa.topk[j].score, qb.topk[j].score);
    }
  }

  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    ASSERT_EQ(a.shards[s].stage_busy.size(), b.shards[s].stage_busy.size());
    for (std::size_t st = 0; st < a.shards[s].stage_busy.size(); ++st)
      EXPECT_DOUBLE_EQ(a.shards[s].stage_busy[st].value,
                       b.shards[s].stage_busy[st].value)
          << "shard " << s << " stage " << st;
  }

  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t c = 0; c < a.classes.size(); ++c) {
    EXPECT_EQ(a.classes[c].queries, b.classes[c].queries) << "class " << c;
    EXPECT_EQ(a.classes[c].batches, b.classes[c].batches);
    EXPECT_EQ(a.classes[c].slo_violations, b.classes[c].slo_violations);
    EXPECT_DOUBLE_EQ(a.classes[c].device_time.value,
                     b.classes[c].device_time.value)
        << "class " << c;
  }
}

/// Asserts two serving reports answered the same queries with the same
/// RESULTS: identical id/user sequence and identical merged top-k items and
/// scores per query. Timestamps, latencies, batching, placement and energy
/// are deliberately NOT compared — this is the placement-invariance
/// contract (any ShardMap/PlacementPolicy is a disjoint cover, so it may
/// move work between shards but never change what is computed).
inline void expect_results_identical(const serve::ServeReport& a,
                                     const serve::ServeReport& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& qa = a.queries[i];
    const auto& qb = b.queries[i];
    ASSERT_EQ(qa.id, qb.id) << "query " << i;
    EXPECT_EQ(qa.user, qb.user);
    EXPECT_EQ(qa.qos_class, qb.qos_class);
    EXPECT_EQ(qa.candidates, qb.candidates);
    ASSERT_EQ(qa.topk.size(), qb.topk.size()) << "query " << i;
    for (std::size_t j = 0; j < qa.topk.size(); ++j) {
      EXPECT_EQ(qa.topk[j].item, qb.topk[j].item)
          << "query " << i << " position " << j;
      EXPECT_FLOAT_EQ(qa.topk[j].score, qb.topk[j].score);
    }
  }
}

}  // namespace imars::serve_test
