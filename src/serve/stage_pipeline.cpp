#include "serve/stage_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/error.hpp"

namespace imars::serve {

using recsys::OpCost;
using recsys::OpKind;
using recsys::StageStats;

// --- PipelineSpec: graph resolution ----------------------------------------

PipelineSpec::Graph PipelineSpec::resolve() const {
  IMARS_REQUIRE(!stages.empty(), "PipelineSpec: empty stage graph");
  const std::size_t n = stages.size();
  Graph g;
  g.preds.resize(n);
  g.succs.resize(n);
  g.item_sources.resize(n);

  const bool linear = linear_chain();
  if (linear) {
    for (std::size_t s = 1; s < n; ++s) {
      g.preds[s].push_back(s - 1);
      g.succs[s - 1].push_back(s);
    }
  } else {
    // Edges are declared by name, so names must be unique and non-empty.
    // Every rejection names the offending stage — a spec assembled from
    // config has to be debuggable from the error text alone.
    std::unordered_map<std::string_view, std::size_t> by_name;
    for (std::size_t s = 0; s < n; ++s) {
      IMARS_REQUIRE(!stages[s].name.empty(),
                    "PipelineSpec: stage #" + std::to_string(s) +
                        " of a dependency graph must be named");
      IMARS_REQUIRE(by_name.emplace(stages[s].name, s).second,
                    "PipelineSpec: duplicate stage name '" + stages[s].name +
                        "'");
    }
    for (std::size_t s = 0; s < n; ++s) {
      for (const auto& dep : stages[s].deps) {
        const auto it = by_name.find(dep);
        IMARS_REQUIRE(it != by_name.end(),
                      "PipelineSpec: stage '" + stages[s].name +
                          "' depends on unknown stage '" + dep + "'");
        IMARS_REQUIRE(it->second != s,
                      "PipelineSpec: stage '" + stages[s].name +
                          "' depends on itself");
        g.preds[s].push_back(it->second);
        g.succs[it->second].push_back(s);
      }
    }
  }

  // Deterministic topological order: Kahn's algorithm, always taking the
  // lowest ready stage index, so a linear chain yields 0,1,2,... and the
  // event-model accounting walks every graph in a reproducible order.
  std::vector<std::size_t> pending(n);
  for (std::size_t s = 0; s < n; ++s) pending[s] = g.preds[s].size();
  std::vector<bool> placed(n, false);
  g.order.reserve(n);
  while (g.order.size() < n) {
    std::size_t next = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (!placed[s] && pending[s] == 0) {
        next = s;
        break;
      }
    }
    if (next == n) {
      // Name a stage on (or downstream of) the cycle: the lowest-index
      // stage still waiting on a predecessor.
      std::size_t stuck = 0;
      while (placed[stuck]) ++stuck;
      IMARS_REQUIRE(false,
                    "PipelineSpec: dependency cycle in stage graph "
                    "involving stage '" +
                        stages[stuck].name + "'");
    }
    placed[next] = true;
    g.order.push_back(next);
    for (std::size_t succ : g.succs[next]) --pending[succ];
  }

  // Produced-item-set plumbing (emit_topk / consume_items) only makes
  // sense on an explicitly declared graph: an implicit linear chain has no
  // edges to say WHICH stage feeds which.
  for (std::size_t s = 0; s < n; ++s) {
    IMARS_REQUIRE(stages[s].emit_topk == 0 ||
                      stages[s].kind == StageKind::kSharded,
                  "PipelineSpec: emit_topk on non-sharded stage #" +
                      std::to_string(s));
    IMARS_REQUIRE(!stages[s].consume_items ||
                      stages[s].kind == StageKind::kReplicated,
                  "PipelineSpec: consume_items on non-replicated stage #" +
                      std::to_string(s));
    IMARS_REQUIRE(!linear ||
                      (stages[s].emit_topk == 0 && !stages[s].consume_items),
                  "PipelineSpec: emit_topk/consume_items require an "
                  "explicit dependency graph (stage #" + std::to_string(s) +
                      ")");
  }

  // Work-item routing. Explicit graphs: a stage consumes its PRODUCING
  // direct predecessors — replicated stages and emitting (emit_topk)
  // sharded stages — in declared edge order; sharded stages always
  // consume, replicated stages only when consume_items opts in. Implicit
  // linear chains: the nearest preceding replicated stage — the pre-DAG
  // "replicated stages (re)define the item set" rule.
  for (std::size_t s = 0; s < n; ++s) {
    const bool consumes = stages[s].kind == StageKind::kSharded ||
                          stages[s].consume_items;
    if (!consumes) continue;
    if (linear) {
      for (std::size_t p = s; p-- > 0;) {
        if (stages[p].kind == StageKind::kReplicated) {
          g.item_sources[s].push_back(p);
          break;
        }
      }
    } else {
      for (std::size_t p : g.preds[s])
        if (stages[p].kind == StageKind::kReplicated ||
            stages[p].emit_topk > 0)
          g.item_sources[s].push_back(p);
    }
    IMARS_REQUIRE(!stages[s].consume_items || !g.item_sources[s].empty(),
                  "PipelineSpec: consume_items stage '" + stages[s].name +
                      "' has no producing predecessor");
  }

  // The output stage: the last sharded stage in topological order produces
  // the query's scored partials (and feeds the merge unit).
  for (std::size_t s : g.order)
    if (stages[s].kind == StageKind::kSharded) g.output_stage = s;
  IMARS_REQUIRE(!merge_topk || g.output_stage != kNoStage,
                "PipelineSpec: merge_topk requires a sharded stage");
  // An emitting stage's merged item list must feed SOMEONE — and the
  // output stage's partials already go to the top-k merge, so emitting
  // there would double-merge the same lists.
  for (std::size_t s = 0; s < n; ++s) {
    if (stages[s].emit_topk == 0) continue;
    IMARS_REQUIRE(!g.succs[s].empty(),
                  "PipelineSpec: emitting stage '" + stages[s].name +
                      "' has no successor to consume its items");
    IMARS_REQUIRE(s != g.output_stage,
                  "PipelineSpec: emitting stage '" + stages[s].name +
                      "' cannot be the output stage");
  }
  return g;
}

device::Ns PipelineSpec::critical_path(
    std::span<const device::Ns> stage_cost) const {
  IMARS_REQUIRE(stage_cost.size() == stages.size(),
                "PipelineSpec::critical_path: one cost per stage");
  const Graph g = resolve();
  std::vector<device::Ns> done(stages.size(), device::Ns{0.0});
  device::Ns longest{0.0};
  for (std::size_t s : g.order) {
    device::Ns ready{0.0};
    for (std::size_t p : g.preds[s]) ready = device::max(ready, done[p]);
    done[s] = ready + stage_cost[s];
    longest = device::max(longest, done[s]);
  }
  return longest;
}

// --- StagePipeline ----------------------------------------------------------

namespace {

/// The engine-wide scored-item order: score desc, item asc — a strict
/// total order over distinct items, so every merge (output top-k and
/// emitting-stage item lists) has exactly one answer regardless of the
/// sorting algorithm or shard arrival order.
bool score_order(const recsys::ScoredItem& a, const recsys::ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

}  // namespace

/// Functional scratch of one in-flight batch. Tasks on the shard executors
/// fill the per-(query, stage) records; collect() reads them single-threaded
/// after the done promise fires (the promise provides the happens-before).
struct StagePipeline::BatchHandle::State {
  Batch batch;
  std::size_t k = 0;
  std::size_t spec_idx = 0;  ///< co-resident servable slot
  bool urgent = false;       ///< latency-critical: use the executor fast band
  std::uint64_t seq = 0;  ///< submission order (collect() enforces it)

  struct StageRec {
    StageStats rep_stats;  ///< replicated-stage measured costs
    /// The stage's produced item set: a replicated stage's output, or an
    /// emitting sharded stage's merged global top-emit_topk item list.
    std::vector<std::size_t> out_items;
    std::vector<std::vector<std::size_t>> slices;  ///< sharded: per shard
    std::vector<StageStats> shard_stats;           ///< sharded: per shard
    /// Emitting (emit_topk) sharded stage: per-shard scored partials held
    /// until the last slice joins, then merged into out_items.
    std::vector<std::vector<recsys::ScoredItem>> emit;
  };

  std::vector<std::size_t> home;                  ///< per query
  std::vector<std::vector<std::size_t>> init_items;  ///< per query
  std::vector<std::vector<StageRec>> rec;         ///< [query][stage]
  /// Partial scored results of the OUTPUT sharded stage, [query][shard].
  std::vector<std::vector<std::vector<recsys::ScoredItem>>> partials;
  std::size_t stages = 0;  ///< stage count of the slot's graph
  /// Per (query, stage), flattened qi * stages + s: slice fan-in of a
  /// running sharded stage / pending predecessor edges of a not-yet-ready
  /// stage.
  std::unique_ptr<std::atomic<std::size_t>[]> fan_in;
  std::unique_ptr<std::atomic<std::size_t>[]> deps_left;
  std::unique_ptr<std::atomic<std::size_t>[]> stages_left;  ///< per query
  /// Allocated extents of the atomic arrays — a pooled State reallocates
  /// them only when a later batch outgrows what it already holds.
  std::size_t atomic_cap = 0;  ///< fan_in / deps_left entries
  std::size_t query_cap = 0;   ///< stages_left entries

  std::atomic<std::size_t> outstanding{0};
  std::atomic<bool> failed{false};
  std::promise<void> done;
  std::shared_future<void> done_future;
  std::mutex err_mu;
  std::exception_ptr error;

  std::atomic<std::size_t>& fan(std::size_t qi, std::size_t s) {
    return fan_in[qi * stages + s];
  }
  std::atomic<std::size_t>& deps(std::size_t qi, std::size_t s) {
    return deps_left[qi * stages + s];
  }

  void fail(std::exception_ptr e) {
    std::lock_guard lock(err_mu);
    if (!error) error = std::move(e);
    failed.store(true, std::memory_order_release);
  }
};

StagePipeline::StagePipeline(std::size_t shards, PipelineSpec spec,
                             const device::DeviceProfile& profile,
                             ShardMap map)
    : StagePipeline(shards,
                    std::vector<PipelineSpec>{std::move(spec)}, profile,
                    std::move(map)) {}

StagePipeline::StagePipeline(std::size_t shards,
                             std::vector<PipelineSpec> specs,
                             const device::DeviceProfile& profile,
                             ShardMap map)
    : specs_(std::move(specs)),
      profile_(profile),
      map_(map.empty() ? ShardMap::uniform(shards) : std::move(map)),
      executors_(shards),
      clocks_(shards),
      usage_(shards) {
  IMARS_REQUIRE(shards >= 1, "StagePipeline: need at least one shard");
  IMARS_REQUIRE(!specs_.empty(), "StagePipeline: need at least one spec");
  IMARS_REQUIRE(map_.shards() == shards,
                "StagePipeline: ShardMap covers a different shard count");
  for (const auto& spec : specs_) {
    graphs_.push_back(spec.resolve());  // validates the stage graph
    offsets_.push_back(total_stages_);
    total_stages_ += spec.stage_count();
  }
  for (auto& c : clocks_) c.stage_free.resize(total_stages_);
  for (auto& u : usage_) u.stage_busy.resize(total_stages_);
}

StagePipeline::~StagePipeline() {
  // A caller unwinding past uncollected handles (e.g. one overlapped batch
  // of several threw) leaves their stage-chaining tasks running; those
  // tasks submit follow-up work to the executors, so the executors must
  // outlive them. done fires once every query of a batch has finished
  // chaining, after which no further submissions can occur.
  std::vector<std::shared_ptr<BatchHandle::State>> live;
  {
    std::lock_guard lock(pending_mu_);
    for (auto& wp : pending_)
      if (auto sp = wp.lock()) live.push_back(std::move(sp));
  }
  for (const auto& st : live) st->done_future.wait();
}

void StagePipeline::BatchHandle::wait() const {
  if (state_ != nullptr) state_->done_future.wait();
}

void StagePipeline::reset_clock() {
  for (auto& c : clocks_) {
    c.stage_free.assign(total_stages_, device::Ns{0.0});
    c.shared_free = device::Ns{0.0};
  }
  for (auto& u : usage_) {
    u.stage_busy.assign(total_stages_, device::Ns{0.0});
    u.write_busy = device::Ns{0.0};
  }
  frontier_ = device::Ns{0.0};
  // Handles abandoned before collection (e.g. a caller unwound past them
  // after another batch's error) left their sequence numbers unconsumed;
  // realign so the next run starts clean — stale handles then fail
  // collect()'s order check instead of corrupting the fresh clocks.
  next_collect_seq_ = next_submit_seq_;
}

void StagePipeline::set_shard_map(ShardMap map) {
  IMARS_REQUIRE(map.shards() == shards(),
                "StagePipeline::set_shard_map: shard count mismatch");
  IMARS_REQUIRE(next_submit_seq_ == next_collect_seq_,
                "StagePipeline::set_shard_map: batches in flight");
  map_ = std::move(map);
}

void StagePipeline::charge_write(std::size_t shard,
                                 const recsys::OpCost& cost, device::Ns at) {
  IMARS_REQUIRE(shard < shards(),
                "StagePipeline::charge_write: shard out of range");
  ShardClocks& c = clocks_[shard];
  const device::Ns start = device::max(at, c.shared_free);
  c.shared_free = start + cost.latency;
  frontier_ = device::max(frontier_, c.shared_free);
  usage_[shard].write_busy += cost.latency;
  if (sink_ != nullptr && cost.latency.value > 0.0)
    sink_->on_write(shard, start, start + cost.latency);
}

device::Ns StagePipeline::frontier() const {
  // Every clock commit (collect's stage/ET claims, charge_write) only moves
  // a clock forward, so the running maximum maintained at each commit
  // equals the full O(shards * stages) scan this used to perform — and the
  // admission-gated runtime probes the frontier per pump iteration.
  return frontier_;
}

void StagePipeline::set_reference_mode(bool on) {
  IMARS_REQUIRE(next_submit_seq_ == next_collect_seq_,
                "StagePipeline::set_reference_mode: batches in flight");
  reference_mode_ = on;
}

device::Ns StagePipeline::service_estimate(
    std::size_t slot, std::span<const device::Ns> stage_cost, std::size_t k,
    std::size_t batch) const {
  IMARS_REQUIRE(slot < specs_.size(),
                "StagePipeline::service_estimate: slot out of range");
  const PipelineSpec& spec = specs_[slot];
  device::Ns est = spec.critical_path(stage_cost);
  // The remaining batch pipelines behind the first query, paced by the
  // slowest stage unit.
  device::Ns bottleneck{0.0};
  for (const auto& c : stage_cost) bottleneck = device::max(bottleneck, c);
  if (batch > 1) est += bottleneck * static_cast<double>(batch - 1);
  if (spec.merge_topk) est += merge_cost(shards(), k).latency;
  return est;
}

std::shared_ptr<StagePipeline::BatchHandle::State>
StagePipeline::acquire_state(std::size_t queries, std::size_t stages,
                             const PipelineSpec& spec) {
  const std::size_t ns = shards();
  std::shared_ptr<BatchHandle::State> st;
  if (!reference_mode_ && !state_pool_.empty()) {
    st = std::move(state_pool_.back());
    state_pool_.pop_back();
  } else {
    st = std::make_shared<BatchHandle::State>();
  }
  st->stages = stages;
  // Structure-preserving reset: every inner vector of a pooled State keeps
  // its capacity (StageStats is a plain array, so the assigns below
  // allocate nothing), which makes the steady-state submit path
  // allocation-free. A fresh State allocates exactly what the former
  // assign-based setup did.
  st->home.resize(queries);
  st->init_items.resize(queries);
  for (auto& items : st->init_items) items.clear();
  st->rec.resize(queries);
  for (auto& query_rec : st->rec) {
    query_rec.resize(stages);
    for (std::size_t s = 0; s < stages; ++s) {
      auto& r = query_rec[s];
      r.rep_stats = StageStats{};
      r.out_items.clear();
      if (spec.stages[s].kind == StageKind::kSharded)
        r.shard_stats.assign(ns, StageStats{});
      else
        r.shard_stats.clear();
      for (auto& slice : r.slices) slice.clear();
      if (spec.stages[s].emit_topk > 0) {
        r.emit.resize(ns);
        for (auto& e : r.emit) e.clear();
      } else {
        r.emit.clear();
      }
    }
  }
  st->partials.resize(queries);
  for (auto& per_shard : st->partials) {
    per_shard.resize(ns);
    for (auto& partial : per_shard) partial.clear();
  }
  if (st->atomic_cap < queries * stages) {
    st->fan_in =
        std::make_unique<std::atomic<std::size_t>[]>(queries * stages);
    st->deps_left =
        std::make_unique<std::atomic<std::size_t>[]>(queries * stages);
    st->atomic_cap = queries * stages;
  }
  if (st->query_cap < queries) {
    st->stages_left = std::make_unique<std::atomic<std::size_t>[]>(queries);
    st->query_cap = queries;
  }
  // A pooled State's promise has already fired; re-arm it for this batch.
  st->done = std::promise<void>();
  st->done_future = st->done.get_future().share();
  st->failed.store(false);
  {
    std::lock_guard lock(st->err_mu);
    st->error = nullptr;
  }
  return st;
}

StagePipeline::BatchHandle StagePipeline::submit(Batch batch,
                                                 ServableBackend& servable,
                                                 std::size_t k,
                                                 std::size_t spec_idx,
                                                 bool urgent) {
  const std::size_t n = batch.size();
  const std::size_t ns = shards();
  IMARS_REQUIRE(n >= 1, "StagePipeline::submit: empty batch");
  IMARS_REQUIRE(servable.shards() == ns,
                "StagePipeline::submit: servable shard count mismatch");
  IMARS_REQUIRE(k >= 1, "StagePipeline::submit: k must be >= 1");
  IMARS_REQUIRE(spec_idx < specs_.size(),
                "StagePipeline::submit: spec slot out of range");
  const PipelineSpec& spec = specs_[spec_idx];
  const PipelineSpec::Graph& graph = graphs_[spec_idx];
  const PipelineSpec& sspec = servable.spec();
  IMARS_REQUIRE(sspec.stage_count() == spec.stage_count() &&
                    sspec.merge_topk == spec.merge_topk,
                "StagePipeline::submit: servable stage graph mismatch");
  for (std::size_t s = 0; s < spec.stage_count(); ++s)
    IMARS_REQUIRE(sspec.stages[s].kind == spec.stages[s].kind,
                  "StagePipeline::submit: servable stage kind mismatch");
  // The servable's declared edges must resolve to the slot's graph (an
  // implicit linear chain and its explicit declaration are interchangeable
  // — both resolve to the same Graph). Two linear chains with matching
  // stage count, kinds and merge flag resolve identically by construction,
  // so the hot per-batch path skips the re-resolution entirely.
  if (!sspec.linear_chain() || !spec.linear_chain())
    IMARS_REQUIRE(sspec.resolve() == graph,
                  "StagePipeline::submit: servable stage graph mismatch");

  const std::size_t stages = spec.stage_count();
  auto st = acquire_state(n, stages, spec);
  st->batch = std::move(batch);
  st->k = k;
  st->spec_idx = spec_idx;
  st->urgent = urgent;
  st->seq = next_submit_seq_++;
  for (std::size_t qi = 0; qi < n; ++qi) {
    st->stages_left[qi].store(stages);
    for (std::size_t s = 0; s < stages; ++s)
      st->deps(qi, s).store(graph.preds[s].size());
  }
  st->outstanding.store(n);
  {
    std::lock_guard lock(pending_mu_);
    std::erase_if(pending_, [](const auto& wp) { return wp.expired(); });
    pending_.push_back(st);
  }

  // Does any sharded stage partition the request's own item set?
  const bool needs_initial = [&] {
    for (std::size_t s = 0; s < stages; ++s)
      if (spec.stages[s].kind == StageKind::kSharded &&
          graph.item_sources[s].empty())
        return true;
    return false;
  }();

  // Optimized dispatch buffers the batch's source-stage tasks per shard
  // and hands each shard ONE composite task — one queue lock and worker
  // wake per shard per batch instead of per query (the futex wake is the
  // dominant host cost of fine-grained dispatch). The reference path keeps
  // the historical per-query enqueues. Host-side granularity only: tasks
  // run in the same per-shard order, and every timing decision is composed
  // later in collect().
  DeferredTasks* defer = nullptr;
  if (!reference_mode_) {
    dispatch_scratch_.resize(ns);
    for (auto& tasks : dispatch_scratch_) tasks.clear();
    defer = &dispatch_scratch_;
  }

  for (std::size_t qi = 0; qi < n; ++qi) {
    const Request& req = st->batch.requests[qi];
    // All placement routes through the ShardMap: queries spread over the
    // replicated stage's replicas by id, proportionally to capability.
    // Homes use the bucket ring only — row pins must not capture requests
    // whose ids collide with pinned item keys.
    st->home[qi] = map_.ring_of(req.id);
    if (needs_initial) st->init_items[qi] = servable.initial_items(req);
    // Kick off every source stage; the rest chain along the graph edges.
    for (std::size_t s = 0; s < stages; ++s)
      if (graph.preds[s].empty()) schedule_stage(st, servable, qi, s, defer);
  }

  if (defer != nullptr)
    for (std::size_t shard = 0; shard < ns; ++shard) {
      if (dispatch_scratch_[shard].empty()) continue;
      executors_.at(shard).submit(
          [this, st, &servable, shard,
           tasks = std::move(dispatch_scratch_[shard])] {
            for (const auto& [qi, stage] : tasks)
              run_stage_task(st, servable, qi, stage, shard);
          },
          st->urgent);
    }

  BatchHandle handle;
  handle.state_ = std::move(st);
  return handle;
}

void StagePipeline::schedule_stage(
    const std::shared_ptr<BatchHandle::State>& st, ServableBackend& servable,
    std::size_t qi, std::size_t stage, DeferredTasks* defer) {
  // Nothing in the chain may leak an exception: a throw between the
  // counter updates (e.g. bad_alloc in partition or task submission)
  // would leave the batch's counters above zero and hang collect()
  // forever, so any such failure marks the batch failed and structurally
  // completes the stage instead.
  try {
    schedule_stage_unchecked(st, servable, qi, stage, defer);
  } catch (...) {
    st->fail(std::current_exception());
    finish_stage(st, servable, qi, stage);
  }
}

void StagePipeline::run_stage_task(
    const std::shared_ptr<BatchHandle::State>& st, ServableBackend& servable,
    std::size_t qi, std::size_t stage, std::size_t shard) {
  const PipelineSpec& spec = specs_[st->spec_idx];
  const PipelineSpec::Graph& graph = graphs_[st->spec_idx];
  if (spec.stages[stage].kind == StageKind::kReplicated) {
    auto& r = st->rec[qi][stage];
    const auto& sources = graph.item_sources[stage];
    try {
      if (sources.empty()) {
        r.out_items = servable.run_replicated(
            stage, shard, st->batch.requests[qi], &r.rep_stats);
      } else if (sources.size() == 1) {
        // consume_items: the predecessor's produced items feed the stage.
        r.out_items = servable.run_replicated_fed(
            stage, shard, st->batch.requests[qi],
            st->rec[qi][sources.front()].out_items, &r.rep_stats);
      } else {
        std::vector<std::size_t> fed;
        for (std::size_t src : sources) {
          const auto& out = st->rec[qi][src].out_items;
          fed.insert(fed.end(), out.begin(), out.end());
        }
        r.out_items = servable.run_replicated_fed(
            stage, shard, st->batch.requests[qi], fed, &r.rep_stats);
      }
    } catch (...) {
      st->fail(std::current_exception());
    }
    finish_stage(st, servable, qi, stage);
    return;
  }

  const bool is_output = stage == graph.output_stage;
  const std::size_t emit_k = spec.stages[stage].emit_topk;
  auto& r = st->rec[qi][stage];
  try {
    auto partial = servable.run_sharded(
        stage, shard, st->batch.requests[qi], r.slices[shard],
        emit_k > 0 ? emit_k : st->k, &r.shard_stats[shard]);
    // Only the output stage's partials reach the top-k merge; an emitting
    // interior stage holds them per shard for the item-list merge below;
    // any other interior sharded stage (e.g. an embedding-gather tower)
    // feeds timing and successors, not results.
    if (is_output)
      st->partials[qi][shard] = std::move(partial);
    else if (emit_k > 0)
      r.emit[shard] = std::move(partial);
  } catch (...) {
    st->fail(std::current_exception());
  }
  if (st->fan(qi, stage).fetch_sub(1) == 1) {
    if (emit_k > 0 && !st->failed.load(std::memory_order_acquire)) {
      // Last slice joined: merge the per-shard partials (shard-order
      // concat, engine score order, truncate) into the stage's produced
      // item list — the work-item set its successors partition. The same
      // merge regardless of slice arrival order, so overlap cannot change
      // downstream routing.
      try {
        std::vector<recsys::ScoredItem> all;
        for (const auto& e : r.emit) all.insert(all.end(), e.begin(), e.end());
        std::sort(all.begin(), all.end(), score_order);
        if (all.size() > emit_k) all.resize(emit_k);
        r.out_items.clear();
        r.out_items.reserve(all.size());
        for (const auto& si : all) r.out_items.push_back(si.item);
      } catch (...) {
        st->fail(std::current_exception());
      }
    }
    finish_stage(st, servable, qi, stage);
  }
}

void StagePipeline::schedule_stage_unchecked(
    const std::shared_ptr<BatchHandle::State>& st, ServableBackend& servable,
    std::size_t qi, std::size_t stage, DeferredTasks* defer) {
  const PipelineSpec& spec = specs_[st->spec_idx];
  const PipelineSpec::Graph& graph = graphs_[st->spec_idx];
  // A failed batch skips its remaining functional work; stages still
  // complete structurally so the done promise fires (collect() rethrows).
  if (st->failed.load(std::memory_order_acquire)) {
    finish_stage(st, servable, qi, stage);
    return;
  }

  if (spec.stages[stage].kind == StageKind::kReplicated) {
    const std::size_t shard = st->home[qi];
    if (defer != nullptr) {
      (*defer)[shard].emplace_back(qi, stage);
      return;
    }
    executors_.at(shard).submit(
        [this, st, &servable, qi, stage, shard] {
          run_stage_task(st, servable, qi, stage, shard);
        },
        st->urgent);
    return;
  }

  // Sharded stage: partition the stage's input items (the replicated
  // source stages' outputs, or the request's own item set), fan out to
  // the owning shards, join on the last slice.
  auto& rec = st->rec[qi][stage];
  const auto& sources = graph.item_sources[stage];
  if (sources.empty()) {
    if (reference_mode_)
      rec.slices = map_.partition(st->init_items[qi]);
    else
      map_.partition_into(st->init_items[qi], rec.slices);
  } else if (sources.size() == 1) {
    const auto& items = st->rec[qi][sources.front()].out_items;
    if (reference_mode_)
      rec.slices = map_.partition(items);
    else
      map_.partition_into(items, rec.slices);
  } else {
    // A join over several replicated feeders consumes the concatenation
    // of their outputs, in declared edge order (deterministic).
    std::vector<std::size_t> items;
    for (std::size_t src : sources) {
      const auto& out = st->rec[qi][src].out_items;
      items.insert(items.end(), out.begin(), out.end());
    }
    if (reference_mode_)
      rec.slices = map_.partition(items);
    else
      map_.partition_into(items, rec.slices);
  }
  std::size_t nonempty = 0;
  for (const auto& s : rec.slices)
    if (!s.empty()) ++nonempty;
  if (nonempty == 0) {
    finish_stage(st, servable, qi, stage);
    return;
  }
  st->fan(qi, stage).store(nonempty);
  for (std::size_t shard = 0; shard < rec.slices.size(); ++shard) {
    if (rec.slices[shard].empty()) continue;
    if (defer != nullptr) {
      (*defer)[shard].emplace_back(qi, stage);
      continue;
    }
    executors_.at(shard).submit(
        [this, st, &servable, qi, stage, shard] {
          run_stage_task(st, servable, qi, stage, shard);
        },
        st->urgent);
  }
}

void StagePipeline::finish_stage(
    const std::shared_ptr<BatchHandle::State>& st, ServableBackend& servable,
    std::size_t qi, std::size_t stage) {
  const PipelineSpec::Graph& graph = graphs_[st->spec_idx];
  for (std::size_t succ : graph.succs[stage])
    if (st->deps(qi, succ).fetch_sub(1) == 1)
      schedule_stage(st, servable, qi, succ);
  if (st->stages_left[qi].fetch_sub(1) == 1)
    if (st->outstanding.fetch_sub(1) == 1) st->done.set_value();
}

StageStats StagePipeline::adjust_stage(
    const StageStats& measured, std::span<const RowAccess> accesses,
    HotEmbeddingCache* cache, const CacheTiming& timing,
    std::uint32_t table_base, bool reduce,
    HotEmbeddingCache::TierFlush* flushed_out) const {
  if (flushed_out != nullptr) *flushed_out = {};
  if (cache == nullptr) return measured;

  std::size_t pooled_hits = 0, pooled_first_hits = 0, row_hits = 0;
  std::size_t parallel_hits = 0;
  // Per parallel group: {id, accesses, hits} — a group's bank-max latency
  // term vanishes only when every one of its banks hits. Groups per stage
  // are few (scored impressions in flight), so a reused flat tally with a
  // linear scan replaces the former per-call std::map (node allocation per
  // group per stage per query); only the full-group COUNT feeds the
  // adjustment, so the tally order cannot affect results.
  group_scratch_.clear();
  // Pooled-workload in-crossbar reduction: rows can only accumulate on the
  // bitlines of the array they are RESIDENT IN, so a pooling scope — one
  // pooled feature chain (bag of rows walked first_in_table..), or one
  // parallel bank group — merges only the missed rows that land in the
  // same (table, CMA array) cell; each such cell returns ONE reduced
  // vector over the serialized RSC bus, saving the result return of every
  // missed row past the cell's first. Hits are excluded (they never
  // crossed the bus). The former model credited misses per scope without
  // the array split, overstating savings for scopes spread across arrays
  // (e.g. one-hot lookups in 26 distinct tables, which can never merge).
  reduce_scratch_.clear();
  const bool reduce_active = reduce &&
                             timing.reduce_saving.latency > device::Ns{0.0} &&
                             timing.array_rows > 0;
  // Pooled chain id: increments at each chain head (first_in_table), so
  // distinct features' bags never merge even when they alias a table.
  std::uint64_t chain = 0;
  const auto tally_reduce = [&](std::uint64_t scope, std::uint32_t table,
                                std::uint32_t row) {
    const auto array =
        static_cast<std::uint32_t>(row / timing.array_rows);
    auto it = std::find_if(reduce_scratch_.begin(), reduce_scratch_.end(),
                           [&](const ReduceCell& c) {
                             return c.scope == scope && c.table == table &&
                                    c.array == array;
                           });
    if (it == reduce_scratch_.end())
      reduce_scratch_.push_back({scope, table, array, 1});
    else
      ++it->misses;
  };
  for (const auto& a : accesses) {
    if (a.pooled && a.first_in_table) ++chain;
    const bool hit = cache->access(table_base + a.table, a.row);
    if (a.parallel_bank) {
      auto it = std::find_if(
          group_scratch_.begin(), group_scratch_.end(),
          [&](const auto& g) { return g[0] == a.parallel_group; });
      if (it == group_scratch_.end()) {
        group_scratch_.push_back({a.parallel_group, 0, 0});
        it = group_scratch_.end() - 1;
      }
      ++(*it)[1];
      if (hit) {
        ++(*it)[2];
        ++parallel_hits;
      } else if (reduce_active) {
        tally_reduce((std::uint64_t{a.parallel_group} << 1) | 1, a.table,
                     a.row);
      }
      continue;
    }
    if (hit) {
      if (!a.pooled)
        ++row_hits;
      else if (a.first_in_table)
        ++pooled_first_hits;
      else
        ++pooled_hits;
    } else if (a.pooled && reduce_active) {
      tally_reduce(chain << 1, a.table, a.row);
    }
  }
  std::size_t full_groups = 0;
  for (const auto& g : group_scratch_)
    if (g[1] > 0 && g[2] == g[1]) ++full_groups;
  std::uint64_t merged_rows = 0;
  for (const auto& c : reduce_scratch_)
    if (c.misses > 1) merged_rows += c.misses - 1;
  // Tiered memory: misses whose block was not warm-resident faulted whole
  // cold-tier blocks in — charge each at the block-fetch cost, in the new
  // ET-block category so the flat store's accounting is untouched.
  const std::uint64_t block_faults = cache->take_block_faults();
  // Write-back model: a miss admission above may have evicted a dirty row,
  // whose deferred array write happens NOW — charge the flush into this
  // stage's ET-write cost so it lands in hardware time. Read-only streams
  // never dirty a row, so flushed stays 0 and the accounting is untouched.
  const HotEmbeddingCache::TierFlush tier_flush = cache->take_flushed_tiers();
  if (flushed_out != nullptr) *flushed_out = tier_flush;
  const double flushed = static_cast<double>(tier_flush.rows);
  if (pooled_hits == 0 && pooled_first_hits == 0 && row_hits == 0 &&
      parallel_hits == 0 && flushed == 0.0 && block_faults == 0 &&
      merged_rows == 0)
    return measured;

  // Replace each hit's CMA+bus cost with the hot-buffer cost, clamped so an
  // adjustment can never drive the measured ET cost negative (the CPU
  // oracle charges no hardware cost at all).
  const double ph = static_cast<double>(pooled_hits);
  const double pfh = static_cast<double>(pooled_first_hits);
  const double rh = static_cast<double>(row_hits);
  StageStats adjusted = measured;
  OpCost& et = adjusted.at(OpKind::kEtLookup);
  const device::Ns lat_removed = timing.pooled_miss.latency * ph +
                                 timing.pooled_first_miss.latency * pfh +
                                 timing.row_miss.latency * rh;
  const device::Pj pj_removed = timing.pooled_miss.energy * ph +
                                timing.pooled_first_miss.energy * pfh +
                                timing.row_miss.energy * rh;
  const double hits = ph + pfh + rh;
  // Parallel-bank hits (RowAccess::parallel_bank): the stage's measured
  // latency holds one bank-max term per group, so latency is credited
  // only for groups whose EVERY bank hit — that group's array read
  // vanishes and the buffer reads that replace it stay parallel (one
  // hit-latency term per group). Energy is credited per hit (banks are
  // summed there).
  const device::Ns parallel_lat_removed =
      timing.row_miss.latency * static_cast<double>(full_groups);
  const device::Ns parallel_lat_added =
      timing.hit.latency * static_cast<double>(full_groups);
  et.latency = device::max(et.latency - lat_removed - parallel_lat_removed,
                           device::Ns{0.0}) +
               timing.hit.latency * hits + parallel_lat_added;
  const double pll = static_cast<double>(parallel_hits);
  et.energy = device::Pj{std::max(
                  0.0, (et.energy - pj_removed -
                        timing.row_miss.energy * pll)
                           .value)} +
              timing.hit.energy * (hits + pll);
  if (merged_rows > 0) {
    // Subtract the reduced-away result returns, clamped like the hit
    // credits above so the ET cost can never go negative.
    const double m = static_cast<double>(merged_rows);
    et.latency = device::max(et.latency - timing.reduce_saving.latency * m,
                             device::Ns{0.0});
    et.energy = device::Pj{std::max(
        0.0, (et.energy - timing.reduce_saving.energy * m).value)};
  }
  if (flushed > 0.0) {
    OpCost& wr = adjusted.at(OpKind::kEtWrite);
    wr.latency += timing.row_write.latency * flushed;
    wr.energy += timing.row_write.energy * flushed;
    if (tier_flush.cold > 0) {
      // Flushes landing in the cold tier stream past the warm arrays.
      const double cold = static_cast<double>(tier_flush.cold);
      wr.latency += timing.cold_flush.latency * cold;
      wr.energy += timing.cold_flush.energy * cold;
    }
  }
  if (block_faults > 0) {
    OpCost& bf = adjusted.at(OpKind::kEtBlock);
    const double f = static_cast<double>(block_faults);
    bf.latency += timing.block_fetch.latency * f;
    bf.energy += timing.block_fetch.energy * f;
  }
  return adjusted;
}

OpCost StagePipeline::merge_cost(std::size_t slices, std::size_t k) const {
  // Each contributing shard ships k (id, score) pairs (8 bytes each) over
  // the RSC bus; the controller then runs a k-way tournament across slices.
  const std::size_t bytes = 8 * std::max<std::size_t>(k, 1);
  const std::size_t cycles_per_shard =
      (bytes * 8 + profile_.rsc_bus_bits - 1) / profile_.rsc_bus_bits;
  const double transfers =
      static_cast<double>(cycles_per_shard) * static_cast<double>(slices);
  // ceil(log2(slices)) tournament rounds; a single slice needs no merge.
  double rounds = 0.0;
  for (std::size_t span = 1; span < slices; span *= 2) rounds += 1.0;
  const double selects = static_cast<double>(k) * rounds;
  OpCost cost;
  cost.latency = profile_.rsc_cycle * transfers +
                 profile_.controller_cycle * selects;
  cost.energy = profile_.rsc_energy * transfers +
                profile_.controller_energy * selects;
  return cost;
}

std::vector<StagePipeline::QueryResult> StagePipeline::collect(
    BatchHandle handle, ServableBackend& servable, HotEmbeddingCache* cache,
    std::span<const CacheTiming> timing) {
  std::vector<QueryResult> results;
  collect_into(std::move(handle), servable, cache, timing, results);
  return results;
}

void StagePipeline::collect_into(BatchHandle handle,
                                 ServableBackend& servable,
                                 HotEmbeddingCache* cache,
                                 std::span<const CacheTiming> timing,
                                 std::vector<QueryResult>& results) {
  IMARS_REQUIRE(handle.valid(), "StagePipeline::collect: invalid handle");
  IMARS_REQUIRE(handle.state_->seq == next_collect_seq_,
                "StagePipeline::collect: handles must be collected in "
                "submission order");
  ++next_collect_seq_;
  IMARS_REQUIRE(timing.size() == 1 || timing.size() == shards(),
                "StagePipeline::collect: one CacheTiming, or one per shard");
  const auto timing_of = [&](std::size_t shard) -> const CacheTiming& {
    return timing.size() == 1 ? timing.front() : timing[shard];
  };
  auto st = std::move(handle.state_);
  st->done_future.wait();
  {
    std::lock_guard lock(st->err_mu);
    if (st->error) std::rethrow_exception(st->error);
  }

  const std::size_t n = st->batch.size();
  const std::size_t ns = shards();
  const PipelineSpec& spec = specs_[st->spec_idx];
  const PipelineSpec::Graph& graph = graphs_[st->spec_idx];
  const std::size_t base = offsets_[st->spec_idx];
  // Co-resident servables must never alias each other's hot-cache rows.
  const std::uint32_t table_base =
      static_cast<std::uint32_t>(st->spec_idx) << 16;
  const std::size_t stages = spec.stage_count();

  // Deterministic accounting in batch order: cache rewrite of ET costs,
  // then the event model (per-shard multi-stage pipeline with shared
  // ET-bank contention, as in core/throughput.hpp) composes hardware time.
  // Each query's stages are walked in topological order; a stage becomes
  // ready when its last predecessor ends, so the query's completion is its
  // critical path through the graph (bit-identical to the old chain walk
  // on linear specs, where ready is simply the previous stage's end).
  results.resize(n);
  stage_end_scratch_.resize(stages);
  auto& stage_end = stage_end_scratch_;
  // The top-k tie-break (score_order: score desc, item asc) is a strict
  // total order over distinct items, so any correct sorting algorithm
  // yields one answer — the optimized partial_sort below is
  // value-identical to the reference full sort.
  for (std::size_t qi = 0; qi < n; ++qi) {
    const Request& req = st->batch.requests[qi];
    QueryResult& out = results[qi];
    // Reused QueryResult slots carry the previous batch's values; every
    // field is either assigned below or reset here (the sharded walk
    // ACCUMULATES into stage_stats / routed counters, so those must start
    // from zero).
    out.request = req;
    out.batch_id = st->batch.id;
    out.batch_size = n;
    out.dispatch = st->batch.dispatch;
    out.home_shard = st->home[qi];
    out.stage_latency.resize(stages);
    out.stage_stats.assign(stages, StageStats{});
    out.work_items = 0;
    out.routed_items = 0;
    out.pinned_items = 0;

    device::Ns complete = st->batch.dispatch;
    for (std::size_t s : graph.order) {
      const auto& rec = st->rec[qi][s];
      device::Ns ready = st->batch.dispatch;
      for (std::size_t p : graph.preds[s])
        ready = device::max(ready, stage_end[p]);

      // Row-access lists exist only to feed the cache; skip them when no
      // cache is configured. The optimized path appends into a reused
      // scratch buffer (accesses_into); the reference path materializes
      // the pre-optimization per-stage vector.
      const auto stage_accesses =
          [&](std::size_t stage, std::span<const std::size_t> slice,
              std::vector<RowAccess>& ref_store)
          -> std::span<const RowAccess> {
        if (cache == nullptr) return {};
        if (reference_mode_) {
          ref_store = servable.accesses(stage, req, slice);
          return ref_store;
        }
        access_scratch_.clear();
        servable.accesses_into(stage, req, slice, access_scratch_);
        return access_scratch_;
      };

      if (spec.stages[s].kind == StageKind::kReplicated) {
        const std::size_t home = st->home[qi];
        // A consume_items stage's row traffic depends on WHICH candidates
        // its predecessors produced, so its fed item set doubles as the
        // accesses() slice (empty for ordinary replicated stages — the
        // pre-funnel contract).
        std::span<const std::size_t> fed{};
        const auto& fed_sources = graph.item_sources[s];
        if (fed_sources.size() == 1) {
          fed = st->rec[qi][fed_sources.front()].out_items;
        } else if (fed_sources.size() > 1) {
          fed_scratch_.clear();
          for (std::size_t src : fed_sources) {
            const auto& items = st->rec[qi][src].out_items;
            fed_scratch_.insert(fed_scratch_.end(), items.begin(),
                                items.end());
          }
          fed = fed_scratch_;
        }
        HotEmbeddingCache::TierFlush flushed;
        std::vector<RowAccess> ref_rows;
        const StageStats adj =
            adjust_stage(rec.rep_stats, stage_accesses(s, fed, ref_rows),
                         cache, timing_of(home), table_base,
                         spec.stages[s].reduce, &flushed);
        out.stage_stats[s] = adj;
        const device::Ns t = adj.total().latency;
        // Flush write-backs (kEtWrite) occupy the same in-memory arrays as
        // the lookups, so they extend the shared ET-bank claim — as do
        // cold-tier block fetches (kEtBlock), which stream through the
        // same banks; both are zero outside their features.
        const device::Ns et = adj.at(OpKind::kEtLookup).latency +
                              adj.at(OpKind::kEtWrite).latency +
                              adj.at(OpKind::kEtBlock).latency;
        ShardClocks& c = clocks_[home];
        const device::Ns unit_free = c.stage_free[base + s];
        const device::Ns shared_free = c.shared_free;
        // A stage with no ET traffic (e.g. a pure crossbar tower) neither
        // waits on nor claims the shard's shared ET banks — that is what
        // lets parallel feature towers genuinely overlap. Every pre-DAG
        // stage carries ET cost, so their timing is unchanged.
        const device::Ns start =
            et.value > 0.0 ? std::max({ready, unit_free, shared_free})
                           : std::max(ready, unit_free);
        const device::Ns end = start + t;
        c.stage_free[base + s] = end;
        if (et.value > 0.0) c.shared_free = start + et;
        // et <= t, so `end` dominates both commits.
        frontier_ = device::max(frontier_, end);
        usage_[home].stage_busy[base + s] += t;
        out.stage_latency[s] = end - ready;
        stage_end[s] = end;
        complete = device::max(complete, end);
        if (sink_ != nullptr) {
          if (flushed.rows > 0)
            sink_->on_cache_flush(home, start, flushed.rows, flushed.warm,
                                  flushed.cold);
          StageSpan span;
          span.slot = st->spec_idx;
          span.stage = s;
          span.name = spec.stages[s].name;
          span.shard = home;
          span.query = req.id;
          span.batch = st->batch.id;
          span.ready = ready;
          span.start = start;
          span.end = end;
          span.unit_wait = device::max(unit_free - ready, device::Ns{0.0});
          span.et_wait =
              et.value > 0.0
                  ? device::max(shared_free - device::max(ready, unit_free),
                                device::Ns{0.0})
                  : device::Ns{0.0};
          span.et_busy = et;
          sink_->on_stage(span);
        }
        continue;
      }

      // Sharded stage: slices run concurrently across shards; each occupies
      // its shard's stage unit and ET banks.
      device::Ns end = ready;
      std::size_t contributing = 0;
      for (std::size_t shard = 0; shard < ns; ++shard) {
        if (rec.slices.empty() || rec.slices[shard].empty()) continue;
        ++contributing;
        HotEmbeddingCache::TierFlush flushed;
        std::vector<RowAccess> ref_rows;
        const StageStats adj = adjust_stage(
            rec.shard_stats[shard],
            stage_accesses(s, rec.slices[shard], ref_rows), cache,
            timing_of(shard), table_base, spec.stages[s].reduce, &flushed);
        out.stage_stats[s].merge(adj);
        const device::Ns t = adj.total().latency;
        const device::Ns et = adj.at(OpKind::kEtLookup).latency +
                              adj.at(OpKind::kEtWrite).latency +
                              adj.at(OpKind::kEtBlock).latency;
        ShardClocks& c = clocks_[shard];
        const device::Ns unit_free = c.stage_free[base + s];
        const device::Ns shared_free = c.shared_free;
        const device::Ns start =
            et.value > 0.0 ? std::max({ready, unit_free, shared_free})
                           : std::max(ready, unit_free);
        const device::Ns slice_end = start + t;
        c.stage_free[base + s] = slice_end;
        if (et.value > 0.0) c.shared_free = start + et;
        frontier_ = device::max(frontier_, slice_end);
        usage_[shard].stage_busy[base + s] += t;
        end = device::max(end, slice_end);
        if (sink_ != nullptr) {
          if (flushed.rows > 0)
            sink_->on_cache_flush(shard, start, flushed.rows, flushed.warm,
                                  flushed.cold);
          StageSpan span;
          span.slot = st->spec_idx;
          span.stage = s;
          span.name = spec.stages[s].name;
          span.shard = shard;
          span.query = req.id;
          span.batch = st->batch.id;
          span.ready = ready;
          span.start = start;
          span.end = slice_end;
          span.unit_wait = device::max(unit_free - ready, device::Ns{0.0});
          span.et_wait =
              et.value > 0.0
                  ? device::max(shared_free - device::max(ready, unit_free),
                                device::Ns{0.0})
                  : device::Ns{0.0};
          span.et_busy = et;
          sink_->on_stage(span);
        }
      }
      // Placement telemetry: how much of the routed traffic the pin layer
      // placed. Skipped entirely on pin-free maps (read-only parity).
      if (map_.has_pins()) {
        for (const auto& slice : rec.slices)
          for (std::size_t key : slice) {
            ++out.routed_items;
            if (map_.is_pinned(key)) ++out.pinned_items;
          }
      }
      if (spec.stages[s].emit_topk > 0) {
        // Emitting stage: the per-shard partials ship to the controller
        // and merge into the global top-emit_topk item list BEFORE any
        // successor can start — the merge latency is on the produced item
        // set's critical path, so it lands in stage_end[s].
        const OpCost merge = merge_cost(
            std::max<std::size_t>(contributing, 1), spec.stages[s].emit_topk);
        out.stage_stats[s].at(OpKind::kComm) += merge;
        const device::Ns merge_start = end;
        end = end + merge.latency;
        if (sink_ != nullptr)
          sink_->on_stage_merge(st->spec_idx, s, spec.stages[s].name, req.id,
                                st->batch.id, merge_start, end);
      }
      if (s == graph.output_stage) {
        out.work_items = 0;
        for (const auto& slice : rec.slices) out.work_items += slice.size();
        if (spec.merge_topk) {
          // Merge unit: global top-k from the per-shard top-k lists.
          const OpCost merge =
              merge_cost(std::max<std::size_t>(contributing, 1), st->k);
          out.stage_stats[s].at(OpKind::kComm) += merge;
          end = end + merge.latency;
        }
      }
      out.stage_latency[s] = end - ready;
      stage_end[s] = end;
      complete = device::max(complete, end);
    }
    out.complete = complete;
    // Graphs without a sharded stage report the last replicated stage's
    // item output (the pre-DAG "current item set" semantics).
    if (graph.output_stage == PipelineSpec::kNoStage) {
      for (std::size_t s : graph.order)
        if (spec.stages[s].kind == StageKind::kReplicated)
          out.work_items = st->rec[qi][s].out_items.size();
    }

    if (reference_mode_) {
      std::vector<recsys::ScoredItem> all;
      for (std::size_t shard = 0; shard < ns; ++shard)
        all.insert(all.end(), st->partials[qi][shard].begin(),
                   st->partials[qi][shard].end());
      std::sort(all.begin(), all.end(), score_order);
      if (all.size() > st->k) all.resize(st->k);
      out.topk = std::move(all);
    } else {
      // Concat into reused scratch, order only the k survivors.
      topk_scratch_.clear();
      for (std::size_t shard = 0; shard < ns; ++shard)
        topk_scratch_.insert(topk_scratch_.end(),
                             st->partials[qi][shard].begin(),
                             st->partials[qi][shard].end());
      const std::size_t keep = std::min(st->k, topk_scratch_.size());
      std::partial_sort(topk_scratch_.begin(),
                        topk_scratch_.begin() +
                            static_cast<std::ptrdiff_t>(keep),
                        topk_scratch_.end(), score_order);
      out.topk.assign(topk_scratch_.begin(),
                      topk_scratch_.begin() +
                          static_cast<std::ptrdiff_t>(keep));
    }
  }

  if (!reference_mode_) {
    // Close the allocate/free cycle: the batch's request storage flows back
    // to its producer (set_request_recycler), and the State — with all its
    // per-query buffers — parks in the pool for the next submit. Its
    // pending_ entry is erased NOW: a pooled State never expires, so
    // leaving the weak pointer behind would grow the list without bound.
    if (request_recycler_) request_recycler_(std::move(st->batch.requests));
    st->batch.requests.clear();
    {
      std::lock_guard lock(pending_mu_);
      std::erase_if(pending_, [&](const auto& wp) {
        return wp.expired() || wp.lock() == st;
      });
    }
    state_pool_.push_back(std::move(st));
  }
}

std::vector<StagePipeline::QueryResult> StagePipeline::execute(
    const Batch& batch, ServableBackend& servable, std::size_t k,
    HotEmbeddingCache* cache, std::span<const CacheTiming> timing) {
  return collect(submit(batch, servable, k), servable, cache, timing);
}

}  // namespace imars::serve
