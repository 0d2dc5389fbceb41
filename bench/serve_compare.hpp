// Exact-equality ServeReport comparator shared by the serving benches
// (the bench-local analogue of the test suite's expect_reports_identical).
// Every simulated-time field of every query, shard and class must match
// bit-for-bit; host wall-clock spans and the in-flight batch count
// (ServeReport::peak_inflight) are deliberately outside the contract — they
// describe how the simulator ran on the host, which the determinism
// contract allows to differ between scheduling modes. Prints the first
// mismatch to stderr and returns false.
#pragma once

#include <iostream>
#include <string>

#include "serve/serve_stats.hpp"

namespace imars::bench {

inline bool reports_equal(const serve::ServeReport& a,
                          const serve::ServeReport& b,
                          const std::string& label) {
  auto fail = [&](const std::string& what) {
    std::cerr << "[parity] MISMATCH in " << label << ": " << what << "\n";
    return false;
  };
  if (a.size() != b.size())
    return fail("query count " + std::to_string(a.size()) + " vs " +
                std::to_string(b.size()));
  if (a.batches != b.batches) return fail("batch count");
  if (a.makespan.value != b.makespan.value) return fail("makespan");
  if (a.cache.hits != b.cache.hits || a.cache.misses != b.cache.misses ||
      a.cache.update_hits != b.cache.update_hits ||
      a.cache.update_misses != b.cache.update_misses ||
      a.cache.flushes != b.cache.flushes)
    return fail("cache counters");
  // Per-tier counters compared one by one so a tier parity failure names
  // the first differing counter.
  auto tier_counter = [&](const char* name, std::uint64_t va,
                          std::uint64_t vb) {
    if (va == vb) return true;
    std::cerr << "[parity]   tier counter " << name << ": " << va << " vs "
              << vb << "\n";
    return false;
  };
  if (!tier_counter("warm_hits", a.cache.warm_hits, b.cache.warm_hits) ||
      !tier_counter("cold_faults", a.cache.cold_faults,
                    b.cache.cold_faults) ||
      !tier_counter("cold_rows_fetched", a.cache.cold_rows_fetched,
                    b.cache.cold_rows_fetched) ||
      !tier_counter("warm_evictions", a.cache.warm_evictions,
                    b.cache.warm_evictions) ||
      !tier_counter("promotions", a.cache.promotions, b.cache.promotions) ||
      !tier_counter("flushes_warm", a.cache.flushes_warm,
                    b.cache.flushes_warm) ||
      !tier_counter("flushes_cold", a.cache.flushes_cold,
                    b.cache.flushes_cold))
    return fail("per-tier cache counters");
  if (a.updates != b.updates || a.flush_bytes != b.flush_bytes)
    return fail("update accounting");

  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& qa = a.queries[i];
    const auto& qb = b.queries[i];
    const std::string at = "query " + std::to_string(i);
    if (qa.id != qb.id || qa.user != qb.user || qa.client != qb.client ||
        qa.qos_class != qb.qos_class || qa.batch != qb.batch ||
        qa.batch_size != qb.batch_size || qa.home_shard != qb.home_shard ||
        qa.candidates != qb.candidates)
      return fail(at + " identity/coordinates");
    auto field = [&](const char* name, double va, double vb) {
      if (va == vb) return true;
      std::cerr << "[parity]   " << at << " " << name << ": " << va << " vs "
                << vb << "\n";
      return false;
    };
    if (!field("enqueue", qa.enqueue.value, qb.enqueue.value) ||
        !field("dispatch", qa.dispatch.value, qb.dispatch.value) ||
        !field("complete", qa.complete.value, qb.complete.value) ||
        !field("filter_latency", qa.filter_latency.value,
               qb.filter_latency.value) ||
        !field("rank_latency", qa.rank_latency.value,
               qb.rank_latency.value) ||
        !field("device_time", qa.device_time.value, qb.device_time.value) ||
        !field("energy", qa.energy.value, qb.energy.value))
      return fail(at + " timing/energy");
    if (qa.topk.size() != qb.topk.size()) return fail(at + " topk size");
    for (std::size_t j = 0; j < qa.topk.size(); ++j)
      if (qa.topk[j].item != qb.topk[j].item ||
          qa.topk[j].score != qb.topk[j].score)
        return fail(at + " topk[" + std::to_string(j) + "]");
  }

  if (a.shards.size() != b.shards.size()) return fail("shard count");
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    if (a.shards[s].stage_busy.size() != b.shards[s].stage_busy.size())
      return fail("shard " + std::to_string(s) + " stage layout");
    for (std::size_t st = 0; st < a.shards[s].stage_busy.size(); ++st)
      if (a.shards[s].stage_busy[st].value !=
          b.shards[s].stage_busy[st].value)
        return fail("shard " + std::to_string(s) + " stage " +
                    std::to_string(st) + " busy time");
  }

  if (a.classes.size() != b.classes.size()) return fail("class count");
  for (std::size_t c = 0; c < a.classes.size(); ++c)
    if (a.classes[c].queries != b.classes[c].queries ||
        a.classes[c].batches != b.classes[c].batches ||
        a.classes[c].slo_violations != b.classes[c].slo_violations ||
        a.classes[c].device_time.value != b.classes[c].device_time.value)
      return fail("class " + std::to_string(c) + " accounting");
  return true;
}

}  // namespace imars::bench
