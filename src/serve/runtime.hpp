// The concurrent serving runtime: glue between the load generator (closed-
// loop, open-loop Poisson or trace replay), the class-aware QoS batcher,
// the hot-embedding cache and the staged-pipeline engine over one or more
// abstract ServableBackends (co-resident tenants).
//
// The event loop advances simulated hardware time deterministically
// (arrivals, batch triggers, admission-gate openings, completions), while
// the functional recommendation work of each dispatched batch executes
// concurrently on the per-shard worker threads. Whenever batch release
// cannot depend on completions — open-loop or trace arrivals with an
// ungated QoS config — collection is deferred automatically: up to
// `max_inflight` batches stay uncollected, so batch b+1's early stages run
// on the worker threads while batch b's late stages finish (batch
// composition is completion-independent there, so the deferred accounting
// is bit-identical to phased execution). Closed-loop and gated runs, whose
// next decision reads completions, collect batch by batch.
//
// Multi-tenant QoS (PR 3): requests carry a priority class; each class has
// its own batching triggers, an optional end-to-end deadline with
// preemptive close, and a device-time weight. When the QoS config sets a
// positive `admit_window`, closed batches wait in a ready queue and are
// released to the fabric only as the device backlog frontier comes within
// the window — deadline classes are released earliest-deadline-first while
// inside their weight entitlement, everyone else by weighted virtual time,
// so a bulk tenant's flood cannot starve an interactive tenant. Admission
// gating needs completion feedback (the frontier), so it serializes
// collection like the closed loop does; the ungated single-class
// configuration reproduces the PR 2 engine bit-identically. Reported
// QPS / latency percentiles are in the device-model time domain, so they
// compose with every other number the simulator produces.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/backend_factory.hpp"
#include "core/config.hpp"
#include "core/perf_model.hpp"
#include "serve/batcher.hpp"
#include "serve/hot_cache.hpp"
#include "serve/load_gen.hpp"
#include "serve/serve_stats.hpp"
#include "serve/shard_router.hpp"
#include "serve/stage_pipeline.hpp"

namespace imars::serve {

/// Frequency-aware placement (PlacementPolicy pin layer over the
/// configured ShardMap): the hottest profiled work-item keys are pinned to
/// low-row-latency shards before serving. The frequency profile comes from
/// an offline `histogram` when one is supplied, otherwise from a warmup
/// window — a fresh LoadGenerator over the run's own config (same seed, so
/// the profiled traffic is the served traffic) driven through
/// ServableBackend::profile_items on the calling thread before any batch
/// is in flight. Per-shard row costs are resolved through the fabric's own
/// cache timings (each shard's PerfModel row-fetch cost), so mixed
/// technologies pin their hot rows onto the fastest CMAs. Disabled, the
/// configured map is never touched — read-only runs stay bit-identical.
struct PlacementConfig {
  bool enabled = false;
  std::size_t hot_rows = 0;        ///< pins to place (must be positive)
  std::size_t warmup_queries = 0;  ///< profile window length
  std::vector<HotKey> histogram;   ///< offline profile (overrides warmup)
  /// Per-shard per-item cost driving the greedy pin balance. Empty = the
  /// per-shard PerfModel row-fetch timings (pure row-latency placement);
  /// benches pass measured whole-stage per-item costs instead when the
  /// serving stage does more than fetch the row (e.g. per-candidate DNN).
  std::vector<device::Ns> shard_costs;
  // --- tier-aware pin resolution (tiered embedding memory) -------------
  /// Hottest ET *rows* (not work items) pinned warm-resident in the tiered
  /// cache before serving — static tier placement, independent of
  /// `enabled` (which governs the work-item pin layer) so benches can
  /// compare static warm pins against online migration under identical
  /// routing. Resolved from `warm_histogram` when supplied, else from the
  /// same warmup replay, profiling row accesses through
  /// ServableBackend::accesses. Requires a tiering-enabled cache; 0 = no
  /// warm pins.
  std::size_t warm_rows = 0;
  /// Offline row-frequency profile for warm pinning: key =
  /// (table << 32 | row) in slot 0's namespace (overrides the warmup).
  std::vector<HotKey> warm_histogram;
};

struct ServingConfig {
  std::size_t shards = 4;
  std::size_t k = 10;  ///< global top-k per query
  DynamicBatcherConfig batcher;
  /// Multi-tenant class table. Empty classes = single-tenant: one class
  /// derived from `batcher`, ungated — the PR 2 configuration.
  QosBatcherConfig qos;
  HotCacheConfig cache;
  TrafficSpec traffic;  ///< per-stage ET traffic (filter/rank servable)
  /// Explicit item partition (e.g. ShardMap::from_costs over probed stage
  /// costs); when empty, one is derived from `shard_weights`, or the
  /// uniform modulo-compatible placement if those are empty too.
  ShardMap shard_map;
  /// Capability weights of the item partition (one per shard).
  std::vector<double> shard_weights;
  std::size_t map_granularity = 64;  ///< buckets per shard (weighted maps)
  /// Frequency-aware hot-row pinning over the map above.
  PlacementConfig placement;
  /// Batches allowed to stay uncollected after a submit when collection
  /// is deferred (open-loop or trace arrivals, ungated QoS config), so a
  /// later batch's early stages overlap an earlier batch's late stages on
  /// the worker threads. Closed-loop batch composition and the admission
  /// gate both depend on completions, so those runs always collect each
  /// batch before the next event. 0 = the phased reference path everywhere;
  /// hardware-time reports are identical for every value.
  std::size_t max_inflight = 4;

  /// Streaming report: drop per-query retention and fill
  /// ServeReport::streaming instead — means exact, percentiles within
  /// `streaming_rel_err` (see StreamingAggregates). Aggregate views answer
  /// identically (within resolution); record-only views throw.
  bool streaming_report = false;
  double streaming_rel_err = 0.01;
  /// Wall-clock self-profiling of the simulator's own hot path (batcher
  /// close, submit, collect(), report accumulation), reported through the
  /// attached observer as host spans and summarized into
  /// ServeReport::host_span_us. Host-side telemetry only — simulated time
  /// and reports are unaffected.
  bool self_profile = false;
  /// Re-enact the pre-optimization host hot path (fresh allocations per
  /// batch everywhere: engine State, item partitions, row-access lists,
  /// full-sort top-k merge, per-query record pushes) instead of the pooled
  /// arena path. Simulated-time reports are BIT-IDENTICAL in both modes —
  /// bench_scaling's parity grid gates on that — and the two self-profiled
  /// host wall-clocks quantify the optimization (its >= 3x acceptance
  /// figure). Off = the optimized path; there is no reason to enable this
  /// outside A/B measurement.
  bool reference_host_path = false;

  /// The effective class table (explicit `qos`, or the single-tenant table
  /// derived from `batcher`).
  QosBatcherConfig effective_qos() const {
    return qos.classes.empty() ? QosBatcherConfig::single(batcher) : qos;
  }
};

class ServingRuntime {
 public:
  /// Filter/rank fabric from a uniform factory (one replica per shard,
  /// built in parallel). `arch`/`profile` parameterize the cache/merge
  /// timing model and should match what the factory's backends use.
  ServingRuntime(const core::BackendFactory& factory,
                 const ServingConfig& cfg, const core::ArchConfig& arch,
                 const device::DeviceProfile& profile);

  /// Generic fabric over any servable (CTR, heterogeneous filter/rank, …).
  /// The shard count comes from the servable; `profile` supplies the
  /// controller-side (merge) timing. On mixed-technology fabrics pass the
  /// per-shard `shard_profiles` so cache hits credit back each shard's own
  /// miss cost (empty means every shard uses `profile`).
  ServingRuntime(std::unique_ptr<ServableBackend> servable,
                 const ServingConfig& cfg, const core::ArchConfig& arch,
                 const device::DeviceProfile& profile,
                 std::span<const device::DeviceProfile> shard_profiles = {});

  /// Multi-tenant fabric: several co-resident servables sharing one
  /// pipeline (and each shard's ET banks). All servables must expose the
  /// same shard count; `QosClassConfig::servable` routes each class to its
  /// slot.
  ServingRuntime(std::vector<std::unique_ptr<ServableBackend>> servables,
                 const ServingConfig& cfg, const core::ArchConfig& arch,
                 const device::DeviceProfile& profile,
                 std::span<const device::DeviceProfile> shard_profiles = {});

  const ServingConfig& config() const noexcept { return cfg_; }
  StagePipeline& pipeline() noexcept { return pipeline_; }
  ServableBackend& servable() noexcept { return *servables_.front(); }
  ServableBackend& servable(std::size_t slot) { return *servables_.at(slot); }
  std::size_t servable_count() const noexcept { return servables_.size(); }
  /// The first filter/rank servable (valid whenever the fabric serves one,
  /// whichever constructor built it).
  ShardRouter& router();
  /// Per-shard cache timings (a single entry when all shards share the
  /// controller profile's technology).
  std::span<const CacheTiming> cache_timing() const noexcept {
    return timings_;
  }

  /// Serves the generator's whole stream against the user population
  /// (binds `users` to every filter/rank servable); resets clocks and cache
  /// statistics first.
  ServeReport run(LoadGenerator& gen,
                  std::span<const recsys::UserContext> users);

  /// Serves the generator's whole stream; every servable's population must
  /// already be bound (e.g. CtrServable::bind_samples).
  ServeReport run(LoadGenerator& gen);

  /// Attaches a pure-observer sink (nullptr detaches) for the next run():
  /// batch lifecycle spans, stage/ET spans, cache events, queue-depth and
  /// frontier time series, end-of-run busy totals — and, with
  /// `self_profile`, host wall-clock spans. Observation never feeds back:
  /// every report is bit-identical with the sink attached or not.
  void set_observer(ObserverSink* sink) noexcept { sink_ = sink; }
  ObserverSink* observer() const noexcept { return sink_; }

 private:
  static ShardMap make_map(const ServingConfig& cfg, std::size_t shards);
  static std::vector<PipelineSpec> specs_of(
      const std::vector<std::unique_ptr<ServableBackend>>& servables);

  /// The class table a run uses: the effective table with every unset
  /// `service_estimate` of a latency-critical class defaulted from its
  /// servable's probed graph critical path
  /// (StagePipeline::service_estimate). Probes run on the calling thread
  /// before any batch is in flight, so the derived estimates stay static —
  /// batching decisions remain completion-independent and deferred
  /// collection stays bit-identical to the phased path.
  QosBatcherConfig resolved_qos();

  /// The configured map with the PlacementPolicy pin layer applied
  /// (placement must be enabled). Profiles on the calling thread before
  /// serving; deterministic for a given load config.
  ShardMap placed_map(const LoadGenConfig& load);

  /// Tier-aware pin resolution: the hottest `placement.warm_rows` ET row
  /// keys, from the offline warm_histogram or a warmup replay profiling
  /// row accesses (slot 0's namespace). Deterministic for a given load
  /// config, like placed_map.
  std::vector<std::uint64_t> warm_pin_keys(const LoadGenConfig& load);

  ServingConfig cfg_;
  QosBatcherConfig qos_;              ///< effective class table
  std::vector<CacheTiming> timings_;  ///< one, or one per shard
  std::vector<std::unique_ptr<ServableBackend>> servables_;
  ShardRouter* router_ = nullptr;  ///< first filter/rank servable, if any
  std::size_t row_bytes_ = 0;      ///< flush-traffic bytes per ET row
  ObserverSink* sink_ = nullptr;   ///< pure observer; never feeds back
  // Starts on a cache line, so which pipeline fields share a line (worker
  // threads read its graphs, map and executors on every task while the
  // event loop writes its counters and scratch) does not depend on the
  // size of the members above: shifting it by 32 bytes cost ~30% more host
  // CPU per query on a closed-loop funnel run, reports unchanged.
  alignas(64) StagePipeline pipeline_;
};

}  // namespace imars::serve
