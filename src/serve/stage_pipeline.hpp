// Backend-agnostic staged-pipeline serving engine.
//
// PR 1's ShardRouter hard-coded one workload: a two-unit filter/rank
// pipeline over FilterRankBackend replicas with `item % N` placement. This
// engine generalizes all three axes:
//
//   * the *stage graph* is a descriptor (PipelineSpec): a DAG of stages,
//     each either replicated (the whole query runs on its home shard) or
//     sharded (the query's work items are partitioned across shards and
//     the partial results merged). Each stage declares its predecessor
//     stages; a stage's task becomes ready when ALL predecessors complete,
//     so independent branches (e.g. DLRM's dense bottom-MLP tower next to
//     the 26 embedding gathers) dispatch concurrently and a join waits on
//     its last arriving edge. A spec that declares no edges is a linear
//     chain (each stage depends on the previous one) and is timed exactly
//     as the pre-DAG engine timed it. Each stage owns one event-model unit
//     per shard; every stage with embedding-table traffic contends for its
//     shard's shared ET banks — the same contention rule as
//     core/throughput.hpp — while ET-free stages (pure crossbar towers)
//     overlap freely.
//   * the *workload* is an abstract ServableBackend: the two-stage
//     YouTubeDNN flow (serve/shard_router.hpp) and the single-stage
//     DLRM/Criteo CTR flow (serve/servable_ctr.hpp) both serve through the
//     identical batcher/cache/engine/report path.
//   * *placement* routes through a ShardMap (capability-weighted disjoint
//     cover) instead of a modulo, so heterogeneous fabrics get item slices
//     proportional to measured stage throughput.
//
// Execution is split into submit() and collect(). submit() enqueues the
// batch's functional work onto the per-shard worker threads and returns
// immediately: a query's stages chain along the graph edges — when a
// stage's task finishes it decrements each successor's pending-edge count
// and schedules the ones that became ready, with no batch-wide barrier —
// so fan-out branches run concurrently and a later batch's early stages
// overlap an earlier batch's late stages on the host threads (the hardware
// event model already pipelines; PR 1 only phased the host loop).
// collect() then composes hardware time deterministically in submission
// order: cache rewrite of ET costs first, then the per-shard pipeline
// clocks walked in deterministic topological order — a query's completion
// is its critical path through the graph. Because every timing decision
// happens in collect(), deferred and phased collection produce
// bit-identical reports.
//
// Multi-tenant fabrics (PR 3): one pipeline can host SEVERAL co-resident
// servables — e.g. an interactive filter/rank tenant next to a bulk CTR
// tenant — by constructing it with one PipelineSpec per servable and
// passing the servable's slot to submit(). Each servable's stages own
// their own per-shard event-model units (the stage clocks concatenate in
// slot order), but ALL slots of a shard contend for its single shared
// ET-bank clock: co-resident tenants really fight over the in-memory
// arrays, which is what the QoS batcher arbitrates. Hot-cache bookkeeping
// namespaces RowAccess table keys per slot so tenants never alias rows.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/perf_model.hpp"
#include "device/profile.hpp"
#include "recsys/types.hpp"
#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/hot_cache.hpp"
#include "serve/observe.hpp"
#include "serve/serve_stats.hpp"
#include "serve/shard_map.hpp"

namespace imars::serve {

/// Device-anchored costs the cache substitutes per ET row access.
struct CacheTiming {
  recsys::OpCost hit;          ///< hot-row buffer read
  recsys::OpCost row_miss;     ///< RAM-mode row fetch + RSC transfer
  recsys::OpCost pooled_miss;  ///< per-row in-array accumulate increment
  /// The first row of a table's pooled chain costs only the read (no
  /// write-back + add yet; PerfModel::et_lookup charges read*L +
  /// (write+add)*(L-1)).
  recsys::OpCost pooled_first_miss;
  /// One ET row written to its CMA array + RSC transfer: the update
  /// write-through cost and the dirty-row flush cost (write-back model).
  recsys::OpCost row_write;
  /// One update absorbed into the periphery hot-row buffer (dirty fill).
  recsys::OpCost buffer_fill;
  /// One cold-tier block fault (PerfModel::cold_block_fetch over the
  /// cache's cold_block_rows); zero with tiering disabled.
  recsys::OpCost block_fetch;
  /// Extra stream-out of a dirty row flushed past the warm arrays into
  /// the cold bulk tier (on top of row_write); zero with tiering disabled.
  recsys::OpCost cold_flush;
  /// Per-merged-row saving of in-crossbar embedding reduction
  /// (PerfModel::reduction_saving); zero unless the device profile
  /// declares the capability.
  recsys::OpCost reduce_saving;
  /// Rows per CMA array (ArchConfig::cma_rows): in-crossbar reduction can
  /// only merge rows RESIDENT IN THE SAME ARRAY (the accumulate happens on
  /// the array's bitlines), so the pooled-workload model groups a feature's
  /// missed rows by `row / array_rows` under the sequential row placement.
  /// Zero disables reduction accounting entirely.
  std::size_t array_rows = 0;

  static CacheTiming from_model(const core::PerfModel& model,
                                std::size_t cold_block_rows = 0) {
    const auto& read = model.profile().cma_read;
    return CacheTiming{model.cached_row(),
                       model.row_fetch(),
                       model.pooled_row(),
                       recsys::OpCost{read.latency, read.energy},
                       model.row_write(),
                       model.buffer_fill(),
                       model.cold_block_fetch(cold_block_rows),
                       cold_block_rows > 0 ? model.cold_flush_extra()
                                           : recsys::OpCost{},
                       model.reduction_saving(),
                       model.arch().cma_rows};
  }
};

/// One ET row touched by a query (cache bookkeeping granularity).
struct RowAccess {
  std::uint32_t table = 0;
  std::uint32_t row = 0;
  bool pooled = false;  ///< pooled lookup (vs RAM-mode row fetch)
  bool first_in_table = false;  ///< first row of its table's pooled chain
  /// The row was read by one of several banks operating in parallel (the
  /// stage latency holds the max over banks, not the sum — e.g. DLRM's 26
  /// one-hot lookups). A hit then credits energy per row, but latency only
  /// when EVERY access of the row's `parallel_group` hits (the bank max
  /// vanishes only once no bank reads an array).
  bool parallel_bank = false;
  /// Groups parallel accesses that share one bank-max term (e.g. one
  /// scored impression); meaningful only when `parallel_bank` is set.
  std::uint32_t parallel_group = 0;
};

/// How one pipeline stage spreads over the shard fabric.
enum class StageKind : std::uint8_t {
  kReplicated,  ///< whole query on its home shard (any replica can serve)
  kSharded,     ///< work items partitioned across shards via the ShardMap
};

struct StageSpec {
  std::string name;
  StageKind kind = StageKind::kReplicated;
  /// Names of predecessor stages. If NO stage of the graph declares any,
  /// the spec is a linear chain — stage s depends on stage s-1, the
  /// pre-DAG behavior, timed identically. Otherwise the edges are exactly
  /// as declared and a stage with an empty list is a source (ready at
  /// batch dispatch).
  std::vector<std::string> deps;
  /// The stage's lookups may be pooled inside the array (in-crossbar
  /// embedding reduction): with a device profile declaring
  /// in_crossbar_reduction, each pooling scope's missed rows that land in
  /// the SAME CMA array return one reduced vector over the RSC bus instead
  /// of one transfer per row (pooled-workload model — rows of a pooled
  /// feature chain or a parallel bank group merge only with same-array
  /// neighbours). Inert (timed identically) unless the profile opts in.
  bool reduce = false;
  /// Non-zero on a SHARDED stage makes it a *producing* stage: its per-
  /// shard partials are merged (score desc, item asc) into a global
  /// top-`emit_topk` ITEM LIST that downstream stages consume as their
  /// work-item set — the funnel's "retrieval output feeds rank" shape.
  /// The merge is charged like the output merge (RSC ship + tournament)
  /// and the stage may not be the graph's output stage. Requires an
  /// explicit dependency graph. Zero (default) = ordinary sharded stage.
  std::size_t emit_topk = 0;
  /// On a REPLICATED stage: the stage consumes the item sets produced by
  /// its predecessors (replicated outputs and/or emitted top-k lists,
  /// declared edge order) instead of deriving work from the request alone;
  /// the engine routes the fed items through run_replicated_fed() and
  /// passes them as the accesses() slice. Requires an explicit dependency
  /// graph with at least one producing predecessor. Default off.
  bool consume_items = false;
};

/// Stage graph of a workload: a DAG of replicated/sharded stages. A
/// sharded stage partitions the work items produced by its replicated
/// direct predecessors (concatenated in declared edge order) — or, with no
/// replicated predecessor, the servable's initial_items(); on implicit
/// linear chains the nearest preceding replicated stage feeds it, exactly
/// the pre-DAG "replicated stages (re)define the item set" rule.
struct PipelineSpec {
  static constexpr std::size_t kNoStage = static_cast<std::size_t>(-1);

  std::vector<StageSpec> stages;
  /// The output stage's partials ship to the merge unit for a k-way
  /// tournament (the filter/rank flow); single-shot workloads (CTR) skip it.
  bool merge_topk = false;

  std::size_t stage_count() const noexcept { return stages.size(); }

  /// True when no stage declares dependencies (the implicit linear chain).
  bool linear_chain() const noexcept {
    for (const auto& s : stages)
      if (!s.deps.empty()) return false;
    return true;
  }

  /// The resolved, validated dependency structure of a spec.
  struct Graph {
    std::vector<std::vector<std::size_t>> preds;  ///< per stage, resolved
    std::vector<std::vector<std::size_t>> succs;
    /// Deterministic topological order (Kahn's algorithm, lowest stage
    /// index first among ready stages); a linear chain yields 0,1,2,...
    std::vector<std::size_t> order;
    /// Per stage: the producing stages whose output items the stage
    /// consumes — for a sharded stage the replicated and emitting
    /// (emit_topk) direct predecessors it partitions (empty =
    /// servable.initial_items); for a consume_items replicated stage the
    /// producing predecessors feeding run_replicated_fed(). Empty for
    /// ordinary replicated stages.
    std::vector<std::vector<std::size_t>> item_sources;
    /// The stage producing the query's scored partials (and feeding the
    /// merge unit): the last sharded stage in topological order, or
    /// kNoStage when the graph has none.
    std::size_t output_stage = kNoStage;

    bool operator==(const Graph&) const = default;
  };

  /// Resolves and validates the graph. Throws imars::Error on: an empty
  /// graph, duplicate or empty stage names (when edges are declared),
  /// edges naming unknown stages, dependency cycles, or `merge_topk` on a
  /// graph with no sharded stage.
  Graph resolve() const;

  /// Longest dispatch-to-done path through the graph under the given
  /// per-stage costs (one entry per stage, spec order; merge excluded).
  /// A linear chain reduces to the plain stage-cost sum.
  device::Ns critical_path(std::span<const device::Ns> stage_cost) const;
};

/// A workload adapter served by the engine. Implementations own one backend
/// replica per shard; the engine guarantees each replica is only ever
/// touched from its shard's worker thread. All methods must be safe to call
/// concurrently for *distinct* shards.
class ServableBackend {
 public:
  virtual ~ServableBackend() = default;

  virtual std::string_view name() const = 0;
  virtual const PipelineSpec& spec() const = 0;
  virtual std::size_t shards() const = 0;

  /// Work-item keys entering the pipeline when the FIRST stage is sharded
  /// (derived from the request alone; e.g. the impression itself for CTR).
  /// Ignored when the first stage is replicated.
  virtual std::vector<std::size_t> initial_items(const Request& req) const {
    (void)req;
    return {};
  }

  /// Runs replicated stage `stage` of `req` on shard `shard`'s replica and
  /// returns the work-item keys the following sharded stage partitions
  /// (empty when no sharded stage follows). Appends measured hardware costs
  /// to `stats`.
  virtual std::vector<std::size_t> run_replicated(
      std::size_t stage, std::size_t shard, const Request& req,
      recsys::StageStats* stats) = 0;

  /// Runs replicated stage `stage` of `req` over the item set `fed`
  /// produced by the stage's graph predecessors (StageSpec::consume_items):
  /// the funnel's filter narrowing the retrieval stage's candidates. Only
  /// called for stages with resolved item sources; the default ignores the
  /// fed items and delegates to run_replicated().
  virtual std::vector<std::size_t> run_replicated_fed(
      std::size_t stage, std::size_t shard, const Request& req,
      std::span<const std::size_t> fed, recsys::StageStats* stats) {
    (void)fed;
    return run_replicated(stage, shard, req, stats);
  }

  /// Runs sharded stage `stage` over `slice` on shard `shard`'s replica and
  /// returns the slice's scored partial results (best first, at most `k` —
  /// the merge unit builds the global top-k from the per-shard lists).
  virtual std::vector<recsys::ScoredItem> run_sharded(
      std::size_t stage, std::size_t shard, const Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      recsys::StageStats* stats) = 0;

  /// ET rows stage `stage` of `req` touches (hot-cache bookkeeping).
  /// `slice` is the shard's slice for sharded stages, empty for replicated
  /// ones. Called from collect() — single-threaded, deterministic order.
  virtual std::vector<RowAccess> accesses(
      std::size_t stage, const Request& req,
      std::span<const std::size_t> slice) const = 0;

  /// Appends the same rows accesses() would return to `out` — the engine's
  /// optimized collect() path feeds a reused scratch buffer so the per-
  /// (stage, shard, query) vector allocation disappears from the host hot
  /// path. The default delegates to accesses() (still one allocation);
  /// servables serving high-rate streams should override it to append
  /// directly and implement accesses() on top of it.
  virtual void accesses_into(std::size_t stage, const Request& req,
                             std::span<const std::size_t> slice,
                             std::vector<RowAccess>& out) const {
    const auto rows = accesses(stage, req, slice);
    out.insert(out.end(), rows.begin(), rows.end());
  }

  /// ET rows an embedding-update request (Request::is_update) writes —
  /// e.g. the user's profile rows after an interaction. The runtime routes
  /// them through the write-back cache model instead of dispatching the
  /// request as a query. Default: no update traffic (updates are inert).
  virtual std::vector<RowAccess> update_accesses(const Request& req) const {
    (void)req;
    return {};
  }

  /// Work-item keys `req` would route through the ShardMap, for
  /// frequency-profiling a PlacementPolicy warmup window (e.g. the filter
  /// stage's candidate items). May run replica 0 functionally on the
  /// calling thread, so it must NOT be called while a batch is in flight —
  /// the runtime profiles before serving, like stage_cost_estimate().
  /// Default: the request's initial item set.
  virtual std::vector<std::size_t> profile_items(const Request& req) {
    return initial_items(req);
  }

  /// Per-stage hardware-latency estimate of one query's pass through each
  /// stage (index-aligned with spec().stages) when served at top-`k`,
  /// typically probed on shard 0's replica against the bound population.
  /// Empty = unknown (callers keep their configured constants). Runs the
  /// replica on the calling thread, so it must NOT be called while a batch
  /// is in flight — the runtime probes before serving, which keeps the
  /// derived QoS service estimates completion-independent.
  virtual std::vector<device::Ns> stage_cost_estimate(std::size_t k) {
    (void)k;
    return {};
  }
};

/// The generic engine: per-shard worker threads + per-stage event clocks.
class StagePipeline {
 public:
  /// Per-query outcome of a batch execution. Carries the originating
  /// request and batch coordinates so callers need not retain their own
  /// copy of the submitted batch.
  struct QueryResult {
    Request request;             ///< the request this result answers
    std::size_t batch_id = 0;
    std::size_t batch_size = 0;
    device::Ns dispatch;         ///< batch close/dispatch time
    std::vector<recsys::ScoredItem> topk;  ///< merged, best first, <= k
    std::size_t work_items = 0;  ///< items entering the output sharded stage
    std::size_t home_shard = 0;  ///< shard that ran the replicated stage(s)
    device::Ns complete;  ///< critical path through the graph (merge done)
    /// Per stage (spec order): completion minus graph-ready time — on a
    /// linear chain exactly the stage's serial latency share.
    std::vector<device::Ns> stage_latency;
    std::vector<recsys::StageStats> stage_stats;  ///< cache-adjusted
    /// Work items this query routed through the ShardMap across ALL
    /// sharded stages, and how many of them a PlacementPolicy pin placed
    /// (both zero when the map has no pins — the count is skipped).
    std::size_t routed_items = 0;
    std::size_t pinned_items = 0;
  };

  /// An in-flight batch: functional work enqueued, accounting pending.
  class BatchHandle {
   public:
    BatchHandle() = default;
    BatchHandle(BatchHandle&&) = default;
    BatchHandle& operator=(BatchHandle&&) = default;
    bool valid() const noexcept { return state_ != nullptr; }
    /// Blocks until the batch's functional work has finished on the shard
    /// executors. collect() waits implicitly; calling this first lets the
    /// driver separate worker-completion wait from host composition time
    /// in its self-profile.
    void wait() const;

   private:
    friend class StagePipeline;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// `profile` supplies the merge-unit / controller timing (stored by
  /// value; on heterogeneous fabrics pass the controller-side technology).
  /// An empty `map` defaults to the uniform (modulo-compatible) placement.
  StagePipeline(std::size_t shards, PipelineSpec spec,
                const device::DeviceProfile& profile, ShardMap map = {});

  /// Multi-tenant fabric: one spec per co-resident servable slot. Each
  /// slot's stages get their own event-model units; all slots share each
  /// shard's ET banks.
  StagePipeline(std::size_t shards, std::vector<PipelineSpec> specs,
                const device::DeviceProfile& profile, ShardMap map = {});

  /// Waits out any still-running functional work of uncollected batches
  /// (e.g. handles abandoned by an unwinding caller) before the worker
  /// threads are torn down.
  ~StagePipeline();

  std::size_t shards() const noexcept { return executors_.size(); }
  const PipelineSpec& spec() const noexcept { return specs_.front(); }
  const PipelineSpec& spec(std::size_t slot) const { return specs_.at(slot); }
  std::size_t spec_count() const noexcept { return specs_.size(); }
  /// First index of `slot`'s stages in the concatenated clock/usage layout.
  std::size_t stage_offset(std::size_t slot) const {
    return offsets_.at(slot);
  }
  const ShardMap& shard_map() const noexcept { return map_; }

  /// Replaces the item placement (e.g. with a PlacementPolicy pin layer).
  /// Only legal while no batch is in flight — item routing must not change
  /// under a submitted batch's feet.
  void set_shard_map(ShardMap map);

  /// Attaches a pure-observer sink (nullptr detaches): collect() reports
  /// every (stage, shard) execution span with its unit/ET-bank wait
  /// decomposition, charge_write() reports write-back claims, and dirty
  /// flushes surface as cache events. The sink only ever receives copies
  /// of decisions already made — timing is bit-identical with or without
  /// one attached.
  void set_observer(ObserverSink* sink) noexcept { sink_ = sink; }
  ObserverSink* observer() const noexcept { return sink_; }

  /// Charges embedding-update write traffic to shard `shard`'s shared ET
  /// banks, starting no earlier than `at` (the update's arrival): row
  /// writes really occupy the in-memory arrays, so subsequent batches see
  /// the contention. Accounted into ShardUsage::write_busy.
  void charge_write(std::size_t shard, const recsys::OpCost& cost,
                    device::Ns at);

  /// Device backlog frontier: the latest time any stage unit or ET bank is
  /// already committed to. The admission-gated runtime holds ready batches
  /// until the frontier comes within its admit window of simulated now.
  device::Ns frontier() const;

  /// Graph-aware batch service estimate for slot `slot`: one query's
  /// critical path through the stage DAG under `stage_cost` (one entry per
  /// stage) plus pipelined occupancy of the bottleneck stage for the
  /// remaining `batch - 1` queries, plus the top-k merge when the graph
  /// merges. The runtime uses this to default an unset
  /// QosClassConfig::service_estimate.
  device::Ns service_estimate(std::size_t slot,
                              std::span<const device::Ns> stage_cost,
                              std::size_t k, std::size_t batch) const;

  /// Enqueues the batch's functional work; returns immediately. Stages
  /// chain across the shard executors with no inter-stage barrier.
  /// `servable` must outlive the handle and its spec must match slot
  /// `spec_idx`; `batch` is taken by value (move it in to skip the request
  /// copy — lvalue callers keep the pre-existing copy semantics). Urgent
  /// batches (latency-critical tenants) overtake queued normal work on the
  /// shard threads — host-side ordering only, reported hardware time is
  /// unaffected.
  BatchHandle submit(Batch batch, ServableBackend& servable,
                     std::size_t k, std::size_t spec_idx = 0,
                     bool urgent = false);

  /// Waits for the batch's functional work, then runs the deterministic
  /// event-model accounting (cache rewrite, per-stage pipeline clocks with
  /// shared ET-bank contention, top-k merge). Handles MUST be collected in
  /// submission order — the pipeline clocks advance batch by batch.
  /// `timing` holds either one CacheTiming shared by all shards or one per
  /// shard (heterogeneous fabrics: hits must credit back the *owning*
  /// shard's miss cost, not the controller profile's).
  std::vector<QueryResult> collect(BatchHandle handle,
                                   ServableBackend& servable,
                                   HotEmbeddingCache* cache,
                                   std::span<const CacheTiming> timing);

  /// collect() into caller-owned storage: `results` is resized to the batch
  /// and refilled in place, so a steady-state drain loop reuses one result
  /// buffer (and its per-query vectors) instead of allocating a fresh
  /// std::vector<QueryResult> per batch. Values are identical to collect().
  void collect_into(BatchHandle handle, ServableBackend& servable,
                    HotEmbeddingCache* cache,
                    std::span<const CacheTiming> timing,
                    std::vector<QueryResult>& results);

  /// Reference mode re-enacts the engine's pre-optimization host hot path
  /// for A/B wall-clock comparison and report-parity gating (bench_scaling):
  /// every batch allocates a fresh State (no pooling), item partitions and
  /// row-access lists materialize as fresh vectors, and the top-k merge
  /// full-sorts a fresh concatenation. Simulated-time results are
  /// bit-identical in both modes — only host-side allocation behavior
  /// differs. Only legal while no batch is in flight.
  void set_reference_mode(bool on);
  bool reference_mode() const noexcept { return reference_mode_; }

  /// Optimized-path hook: after collect() has accounted a batch, its
  /// request storage is handed to `recycler` (e.g. QosBatcher::recycle)
  /// instead of being freed, closing the allocate/free cycle between the
  /// batcher and the engine. Ignored in reference mode.
  void set_request_recycler(
      std::function<void(std::vector<Request>&&)> recycler) {
    request_recycler_ = std::move(recycler);
  }

  /// submit() + collect() in one step (no cross-batch overlap).
  std::vector<QueryResult> execute(const Batch& batch,
                                   ServableBackend& servable, std::size_t k,
                                   HotEmbeddingCache* cache,
                                   std::span<const CacheTiming> timing);

  /// Convenience for homogeneous fabrics: one CacheTiming for all shards.
  std::vector<QueryResult> execute(const Batch& batch,
                                   ServableBackend& servable, std::size_t k,
                                   HotEmbeddingCache* cache,
                                   const CacheTiming& timing) {
    return execute(batch, servable, k, cache,
                   std::span<const CacheTiming>(&timing, 1));
  }

  /// Cumulative per-shard, per-stage busy time (multi-tenant fabrics
  /// concatenate each slot's stages in slot order; see stage_offset()).
  const std::vector<ShardUsage>& usage() const noexcept { return usage_; }

  /// Resets the event clocks and usage counters (not the replicas).
  void reset_clock();

 private:
  struct ShardClocks {
    std::vector<device::Ns> stage_free;  ///< per-stage unit available
    device::Ns shared_free;              ///< shared ET banks available
  };

  /// Per-shard buffer of (query, stage) tasks deferred during submit() so
  /// each shard receives ONE composite task per batch — one queue lock and
  /// one worker wake — instead of one per query (the dominant host cost of
  /// fine-grained dispatch is the futex wake per enqueue).
  using DeferredTasks = std::vector<std::vector<std::pair<std::size_t,
                                                          std::size_t>>>;

  /// Schedules stage `stage` of query `qi` (all its graph predecessors
  /// have completed); never leaks an exception (a failure marks the batch
  /// failed and structurally completes the stage so every counter still
  /// drains and the done promise fires). With `defer` non-null the task is
  /// buffered per shard instead of enqueued (submit()'s batched initial
  /// dispatch); graph-chained scheduling from finish_stage passes null.
  void schedule_stage(const std::shared_ptr<BatchHandle::State>& st,
                      ServableBackend& servable, std::size_t qi,
                      std::size_t stage, DeferredTasks* defer = nullptr);
  void schedule_stage_unchecked(const std::shared_ptr<BatchHandle::State>& st,
                                ServableBackend& servable, std::size_t qi,
                                std::size_t stage,
                                DeferredTasks* defer = nullptr);
  /// The functional body of one (query, stage) task on `shard`'s worker
  /// thread — shared by the per-query and composite dispatch paths.
  void run_stage_task(const std::shared_ptr<BatchHandle::State>& st,
                      ServableBackend& servable, std::size_t qi,
                      std::size_t stage, std::size_t shard);
  /// Marks stage `stage` of query `qi` complete: schedules successors whose
  /// last pending edge this was, and fires the batch's done promise when
  /// the last stage of the last query finishes.
  void finish_stage(const std::shared_ptr<BatchHandle::State>& st,
                    ServableBackend& servable, std::size_t qi,
                    std::size_t stage);

  /// Applies the cache to `accesses` and rewrites the stage's ET-lookup
  /// cost; returns the adjusted stats. `table_base` namespaces the cache
  /// keys (co-resident servables must not alias each other's tables).
  /// `reduce` marks a stage declaring the in-crossbar reduction
  /// capability (effective only when the device profile opts in).
  /// `flushed` (optional) receives the dirty-row flush counts (with their
  /// tier split) charged into the stage's kEtWrite cost, for the
  /// observer's cache-flush events. Cold-tier block faults raised by the
  /// accesses are drained here and charged into kEtBlock.
  recsys::StageStats adjust_stage(const recsys::StageStats& measured,
                                  std::span<const RowAccess> accesses,
                                  HotEmbeddingCache* cache,
                                  const CacheTiming& timing,
                                  std::uint32_t table_base,
                                  bool reduce = false,
                                  HotEmbeddingCache::TierFlush* flushed =
                                      nullptr) const;

  /// Acquires a batch State: pooled (structure-preserving reset, steady
  /// state allocates nothing) or fresh in reference mode.
  std::shared_ptr<BatchHandle::State> acquire_state(std::size_t queries,
                                                    std::size_t stages,
                                                    const PipelineSpec& spec);

  /// Merge-unit cost: each contributing shard ships its top-k over the RSC
  /// bus, the controller runs the k-way tournament.
  recsys::OpCost merge_cost(std::size_t slices, std::size_t k) const;

  std::vector<PipelineSpec> specs_;   ///< one per co-resident servable slot
  std::vector<PipelineSpec::Graph> graphs_;  ///< resolved, one per slot
  std::vector<std::size_t> offsets_;  ///< per slot, into the stage layout
  std::size_t total_stages_ = 0;
  device::DeviceProfile profile_;
  ShardMap map_;
  ObserverSink* sink_ = nullptr;  ///< pure observer; never feeds back
  ExecutorPool executors_;
  std::vector<ShardClocks> clocks_;
  std::vector<ShardUsage> usage_;
  /// In-flight batch scratch, tracked so the destructor can drain tasks
  /// that would otherwise chain onto executors mid-teardown.
  std::mutex pending_mu_;
  std::vector<std::weak_ptr<BatchHandle::State>> pending_;
  /// Submission-order enforcement for collect() (the clocks advance batch
  /// by batch, so out-of-order collection would corrupt them silently).
  std::uint64_t next_submit_seq_ = 0;
  std::uint64_t next_collect_seq_ = 0;
  /// Pre-optimization host path for A/B comparison (set_reference_mode).
  bool reference_mode_ = false;
  /// Collected States parked for reuse (never in reference mode). Their
  /// pending_ entries are erased at collect, so pooling cannot grow the
  /// weak-pointer list.
  std::vector<std::shared_ptr<BatchHandle::State>> state_pool_;
  /// Optimized-path request-storage recycler (set_request_recycler).
  std::function<void(std::vector<Request>&&)> request_recycler_;
  /// Running maximum over every committed clock value — all clock updates
  /// are monotone non-decreasing, so this equals the full scan frontier()
  /// used to compute, without the O(shards * stages) walk per admission
  /// probe. Reset with the clocks.
  device::Ns frontier_{0.0};
  /// collect()-scope scratch (single-threaded there by the submission-order
  /// contract): per-stage completion times, row-access lists, and the top-k
  /// merge buffer, reused across queries and batches.
  std::vector<device::Ns> stage_end_scratch_;
  std::vector<RowAccess> access_scratch_;
  std::vector<recsys::ScoredItem> topk_scratch_;
  /// adjust_stage() parallel-group tally {group id, accesses, hits} —
  /// groups per stage are few (e.g. DLRM impressions in flight), so a flat
  /// linear-scan vector beats the former per-call std::map.
  mutable std::vector<std::array<std::uint64_t, 3>> group_scratch_;
  /// adjust_stage() pooled-workload reduction tally: one cell per
  /// (pooling scope, table, CMA array) holding the scope's missed-row
  /// count in that array — only same-array rows of one scope can merge.
  struct ReduceCell {
    std::uint64_t scope;
    std::uint32_t table;
    std::uint32_t array;
    std::uint64_t misses;
  };
  mutable std::vector<ReduceCell> reduce_scratch_;
  /// collect()-scope scratch for the fed-item concatenation of a
  /// multi-source consume_items stage (single-threaded there).
  std::vector<std::size_t> fed_scratch_;
  /// submit()-scope buffer for the batched initial dispatch (submission is
  /// single-threaded by the collect-order contract).
  DeferredTasks dispatch_scratch_;
};

}  // namespace imars::serve
