// Serving telemetry, following the StreamReport idioms of
// core/query_engine.hpp: per-query records plus aggregate QPS, latency
// percentiles, cache hit rate and per-shard utilization — but over the
// *concurrent* runtime, so latencies include queueing/batching delay and
// throughput is makespan-based rather than derived from mean stage times.
//
// Multi-tenant runs additionally report per-class (tenant) telemetry: per-
// class QPS and latency percentiles, SLO violations, and the fairness view
// (each class's share of consumed device time against its configured
// weight).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "device/units.hpp"
#include "recsys/types.hpp"
#include "serve/hot_cache.hpp"
#include "serve/observe.hpp"

namespace imars::serve {

/// One served query's record.
struct ServedQuery {
  std::size_t id = 0;
  std::size_t user = 0;
  std::size_t client = 0;
  std::size_t qos_class = 0;    ///< priority-class label of the request
  std::size_t batch = 0;
  std::size_t batch_size = 0;
  std::size_t home_shard = 0;   ///< shard that ran the replicated filter
  std::size_t candidates = 0;
  device::Ns enqueue;           ///< simulated arrival
  device::Ns dispatch;          ///< batch close
  device::Ns complete;          ///< top-k merged
  device::Ns filter_latency;    ///< cache-adjusted filter service time
  device::Ns rank_latency;      ///< cache-adjusted critical-path rank time
  /// Cache-adjusted device busy time this query consumed (the sum over
  /// stages of per-shard unit occupancy plus merge) — the fairness
  /// accounting currency.
  device::Ns device_time;
  device::Pj energy;            ///< cache-adjusted query energy
  /// Merged top-k (best first). Kept so cross-tenant isolation can be
  /// asserted result-for-result, not just in aggregate.
  std::vector<recsys::ScoredItem> topk;
};

/// Accumulation arena for per-query records. The steady-state drain loop
/// appends one query's scalar fields as a single contiguous POD record
/// (one growth check, one cache line stream — column-per-field scatter
/// measurably LOST to the reference path here) and its top-k items into
/// one flat pool — amortized growth, no per-query vector allocation inside
/// the profiled host.report span. materialize() rebuilds the public
/// ServedQuery records (identical values) in one pass after the event
/// loop, outside every host span.
struct QueryArena {
  /// ServedQuery's scalar fields, trivially copyable (the top-k vector is
  /// replaced by a length into the flat pool).
  struct Rec {
    std::size_t id, user, client, qos_class, batch, batch_size, home_shard,
        candidates;
    device::Ns enqueue, dispatch, complete, filter_latency, rank_latency,
        device_time;
    device::Pj energy;
    std::size_t topk_len;  ///< this query's run in topk_flat
  };
  std::vector<Rec> recs;
  std::vector<recsys::ScoredItem> topk_flat;  ///< all top-k items, in order

  std::size_t size() const noexcept { return recs.size(); }
  void clear();
  /// Appends `q`'s scalar fields (its own `topk` member is ignored) and
  /// `topk` into the flat pool.
  void push(const ServedQuery& q, std::span<const recsys::ScoredItem> topk);
  /// The accumulated queries as AoS records, in push order.
  std::vector<ServedQuery> materialize() const;
};

/// Busy time of one shard's pipeline units over the run, one entry per
/// pipeline stage (two for the filter/rank pipeline, one for CTR scoring;
/// co-resident servables concatenate their stages in servable order).
struct ShardUsage {
  std::vector<device::Ns> stage_busy;
  /// ET-bank time consumed by embedding-update write traffic (buffer
  /// fills, write-through rows and dirty-row flushes charged outside the
  /// stage units); zero on read-only streams.
  ///
  /// Deliberately EXCLUDED from rank_utilization / filter_utilization /
  /// stage_utilization and from the per-class device_share accounting:
  /// those report STAGE-UNIT occupancy and query-attributed device time,
  /// while write traffic occupies only the shared ET banks and belongs to
  /// no query or class. Use total_busy() (also surfaced as the observer's
  /// end-of-run "shard.total_busy_ns" counters) for whole-shard occupancy
  /// including the write path.
  device::Ns write_busy;

  /// Busy time of the first stage (the replicated filter in the two-stage
  /// pipeline); zero for single-stage pipelines.
  device::Ns first_stage_busy() const {
    return stage_busy.size() > 1 ? stage_busy.front() : device::Ns{0.0};
  }
  /// Busy time of the last stage (the sharded rank / scoring stage — the
  /// figure of merit for load balance).
  device::Ns last_stage_busy() const {
    return stage_busy.empty() ? device::Ns{0.0} : stage_busy.back();
  }
  /// All device busy time of the shard: every stage unit plus the
  /// write-path ET time (the one place write_busy IS counted).
  device::Ns total_busy() const {
    device::Ns t = write_busy;
    for (const auto& s : stage_busy) t += s;
    return t;
  }
};

/// Per-class (tenant) aggregate of one serving run.
struct ClassReport {
  std::string name;
  double weight = 1.0;      ///< configured device-time entitlement
  device::Ns deadline;      ///< end-to-end SLO (0 = none)
  std::size_t queries = 0;
  std::size_t batches = 0;
  std::size_t slo_violations = 0;  ///< completions past enqueue + deadline
  device::Ns device_time;          ///< consumed device busy time
};

/// Memory-bounded aggregates of a streaming-mode run. The runtime fills
/// this INSTEAD of retaining per-query ServedQuery records when
/// ServingConfig::streaming_report is set: latency percentiles come from
/// log-bucketed histograms (incremental p50/p95/p99 within the configured
/// relative error of the exact sorted-sample figures), means stay exact
/// (sum / count), and per-class accounting keys by the REQUEST's qos_class
/// label — the same filter the record-mode class views apply. The
/// million-user ROADMAP item cannot afford O(queries) retention; this is
/// the replacement. Result-level views (topk, per-query records,
/// finite-cutoff device shares) are unavailable in streaming mode.
struct StreamingAggregates {
  bool enabled = false;
  double rel_err = 0.01;  ///< histogram resolution (see StreamingHistogram)
  std::size_t queries = 0;
  double energy_pj_sum = 0.0;
  StreamingHistogram latency;  ///< end-to-end ns, all classes
  // Per request-label views, grown on first sight of a label.
  std::vector<StreamingHistogram> class_latency;
  std::vector<std::size_t> class_queries;
  std::vector<double> class_device_ns;

  explicit StreamingAggregates(double rel_err_ = 0.01)
      : rel_err(rel_err_), latency(rel_err_) {}

  /// Accounts one served query under label `cls`.
  void note(std::size_t cls, double latency_ns, double energy_pj,
            double device_ns);
};

/// Aggregated results of one serving run.
struct ServeReport {
  std::vector<ServedQuery> queries;
  std::vector<ShardUsage> shards;
  std::vector<ClassReport> classes;  ///< one per configured QoS class
  /// First stage index of each co-resident servable slot inside the
  /// concatenated ShardUsage::stage_busy layout (empty = single slot
  /// starting at 0). The utilization helpers resolve their stage through
  /// this, so multi-tenant fabrics report the requested slot's stages.
  std::vector<std::size_t> stage_offsets;
  /// Stage names per servable slot (graph-node keys into the per-shard
  /// stage_busy layout), aligned with stage_offsets; empty when the run
  /// did not record them.
  std::vector<std::vector<std::string>> stage_names;
  CacheStats cache;
  recsys::StageStats filter_stats;  ///< summed, cache-adjusted
  recsys::StageStats rank_stats;
  device::Ns makespan;              ///< last completion time
  std::size_t batches = 0;
  /// Streaming-mode aggregates (ServingConfig::streaming_report). When
  /// enabled, `queries` above stays empty and every aggregate view below
  /// answers from here instead; views needing per-query records
  /// (latencies_ns, class_latencies_ns, finite-cutoff device_share) throw.
  StreamingAggregates streaming;
  /// Host wall-clock totals per self-profile span name (microseconds; name
  /// order), filled only when ServingConfig::self_profile is set. This is
  /// WALL-CLOCK telemetry of the simulator itself — bench_scaling divides
  /// reference by optimized totals for its host-speedup figure — and is
  /// deliberately outside the bit-identical-reports contract, which covers
  /// simulated-time fields only.
  std::vector<std::pair<std::string, double>> host_span_us;

  /// Maximum batches simultaneously awaiting collection: 1 on the phased
  /// path, up to ServingConfig::max_inflight + 1 under deferred
  /// collection. Host-side telemetry like host_span_us — outside the
  /// bit-identical-reports contract.
  std::size_t peak_inflight = 0;

  /// Total profiled host wall-clock (sum over host_span_us), microseconds.
  /// host.wait — the driver blocking on worker completion — is execution
  /// time of the batch's functional work, not host bookkeeping, so it is
  /// excluded from the host-path total (it still appears in host_span_us).
  double host_total_us() const noexcept {
    double sum = 0.0;
    for (const auto& [name, us] : host_span_us)
      if (name != "host.wait") sum += us;
    return sum;
  }

  // --- write-back / placement telemetry -----------------------------------
  std::size_t updates = 0;      ///< embedding-update requests applied
  /// Total hardware cost of the update traffic (periphery-buffer fills,
  /// write-through row writes, dirty-row eviction flushes applied outside
  /// the batch path). Flushes triggered by read admissions are charged
  /// into the evicting stage's kEtWrite cost instead.
  recsys::OpCost update_cost;
  std::size_t flush_bytes = 0;  ///< dirty-row flush traffic (row bytes)
  std::size_t routed_items = 0;  ///< work items routed through the ShardMap
  std::size_t pinned_items = 0;  ///< of those, items served via a hot pin
  /// Fraction of routed work items a PlacementPolicy pin placed (0 when
  /// placement is disabled).
  double pin_hit_rate() const noexcept {
    return routed_items == 0
               ? 0.0
               : static_cast<double>(pinned_items) /
                     static_cast<double>(routed_items);
  }

  std::size_t size() const noexcept {
    return streaming.enabled ? streaming.queries : queries.size();
  }

  /// Per-query end-to-end latencies (ns), enqueue to merged top-k —
  /// queueing and batching delay included. Record mode only (streaming
  /// runs do not retain the sample; use the percentile views).
  std::vector<double> latencies_ns() const;

  // Latency percentiles use linear interpolation over the sorted sample
  // (util::percentile): rank = p/100 * (n-1), so no index can run past the
  // vector and n = 1 returns the single sample for every p — the CI quick
  // benches run tiny streams, so the small-n behavior is load-bearing and
  // pinned by tests. All aggregates return 0.0 on an empty query set
  // (e.g. a configured class that received no traffic). Streaming-mode
  // runs answer from the histograms: identical small-n semantics, interior
  // percentiles within streaming.rel_err bucket resolution, means exact.
  double mean_latency_ns() const;
  double p50_latency_ns() const;
  double p95_latency_ns() const;
  double p99_latency_ns() const;

  /// Served queries per second of simulated hardware time.
  double qps() const;

  double mean_batch_size() const;
  double mean_energy_pj() const;

  /// Fraction of the makespan shard `s` kept its rank units busy (the
  /// last stage of servable `slot` — the sharded stage; the figure of
  /// merit for load balance). Single-tenant fabrics have one slot.
  double rank_utilization(std::size_t s, std::size_t slot = 0) const;
  /// First-stage (replicated filter) busy fraction of servable `slot`;
  /// zero for its single-stage pipelines.
  double filter_utilization(std::size_t s, std::size_t slot = 0) const;
  /// Busy fraction of one graph node: the fraction of the makespan shard
  /// `s` kept the named stage's unit busy (requires stage_names; stage
  /// graphs key utilization by node, e.g. "gather" vs "dense" vs
  /// "interact" on the tower-parallel CTR graph).
  double stage_utilization(std::size_t s, std::string_view stage,
                           std::size_t slot = 0) const;

  // --- per-class (tenant) views -------------------------------------------
  // Filtered by the per-request `qos_class` label, so they work on
  // class-blind runs of a labeled stream too (the QoS benches compare a
  // class's tail latency with and without class-aware batching).

  std::vector<double> class_latencies_ns(std::size_t cls) const;
  double class_mean_latency_ns(std::size_t cls) const;
  double class_p50_latency_ns(std::size_t cls) const;
  double class_p95_latency_ns(std::size_t cls) const;
  double class_p99_latency_ns(std::size_t cls) const;
  double class_qps(std::size_t cls) const;

  /// Share of total consumed device time that went to queries labeled
  /// `cls`, counting only queries completing by `cutoff` (defaults to the
  /// whole run). Under sustained overload the contended window — up to the
  /// last arrival — is the fairness figure of merit: over a *complete* run
  /// every request is eventually served, so whole-run shares converge to
  /// the workload mix regardless of scheduling. Streaming mode retains no
  /// per-query completions, so a finite cutoff throws there.
  double device_share(std::size_t cls,
                      device::Ns cutoff = device::Ns{
                          std::numeric_limits<double>::infinity()}) const;

  /// Max over configured positive-weight classes of
  /// |device_share - normalized weight| within `cutoff`; 0 when fewer than
  /// two classes are configured.
  double fairness_error(device::Ns cutoff = device::Ns{
                            std::numeric_limits<double>::infinity()}) const;
};

}  // namespace imars::serve
