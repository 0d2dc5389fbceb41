// Frequency-aware hot-embedding cache with a write-back model.
//
// Recommendation ET traffic is Zipf-skewed (src/data/zipf.*): a small set
// of popular item rows absorbs most accesses. The serving runtime keeps a
// digital SRAM hot-row buffer at the controller periphery and serves hot
// UIET/ItET rows from it at device::DeviceProfile::cache_read cost instead
// of the CMA-array + RSC-bus cost (core::PerfModel::row_fetch /
// pooled_row). Admission is frequency-based (LFU over full access history,
// TinyLFU-style): a row is admitted only once its observed frequency
// exceeds the coldest resident row's, so one-off scans cannot flush the
// hot set.
//
// Write-back (embedding-update traffic, cf. MARM arXiv:2411.09425): an
// update to a *resident* row is absorbed into the periphery buffer — the
// row is marked dirty and the fill is charged at the buffer-write cost
// (DeviceProfile::cache_write) instead of the CMA row write. An update to
// a non-resident row writes through to the array (PerfModel::row_write).
// When a dirty row is evicted by frequency admission, its deferred array
// write finally happens: the eviction *flushes* the row, and the caller
// charges the flush into hardware time (take_flushed()). Updates bump the
// LFU frequency but never allocate on write — a pure update stream cannot
// flush the read-hot set. With capacity 0 every update degrades to plain
// write-through.
//
// Tiered embedding memory (RecFlash arXiv:2604.25338 frequency mapping):
// behind the hot periphery buffer sit a *warm* tier (rows resident in the
// FeFET/ReRAM CMA banks, served at the usual row_fetch/pooled_row cost)
// and a modeled *cold* bulk tier with block-granular fetch — a miss whose
// block is not warm-resident faults the whole block in, charged by the
// pipeline as one PerfModel::cold_block_fetch (take_block_faults()).
// Migration is frequency-driven and committed only at batch-dispatch
// boundaries (commit_migrations()), never at completion, so decisions are
// deterministic phased or deferred: a cold fault admits its block warm
// immediately (counters/costs), but capacity demotions are deferred to the
// next commit, which walks a FIFO of unpinned blocks and grants one
// reprieve to any block still hotter than the settled-min LFU bound of
// the hot tier (the frequency of the coldest hot-resident row at the last
// admission). Write-back flushes land in the row's owning tier: warm if
// the block is resident or pinned, cold otherwise (charged the extra
// stream-out by the pipeline). Both tiers disabled (either knob 0) is
// bit-identical to the flat row store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/observe.hpp"
#include "util/flat_map.hpp"

namespace imars::serve {

struct HotCacheConfig {
  std::size_t capacity_rows = 0;  ///< 0 disables the cache (all misses)
  // --- tiered embedding memory (both knobs > 0 to enable) ---------------
  /// Warm-tier capacity in rows (block-granular internally). 0 disables
  /// tiering: the store degrades to the flat (pre-tier) behavior.
  std::size_t warm_capacity_rows = 0;
  /// Rows pulled per cold-tier block fault. 0 disables tiering.
  std::size_t cold_block_rows = 0;
  /// Minimum lifetime access count before a row may be promoted into the
  /// hot periphery buffer (tiered mode only; 0 = no threshold).
  std::uint64_t promote_min_freq = 0;
  /// Online migration: cold faults admit their block warm and commits
  /// demote over-capacity blocks. Off = only pinned blocks stay warm
  /// (unpinned traffic streams through the cold tier, faulting per miss).
  bool migrate = true;

  bool tiering_enabled() const noexcept {
    return warm_capacity_rows > 0 && cold_block_rows > 0;
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  // --- write-back model -----------------------------------------------
  std::uint64_t update_hits = 0;    ///< updates absorbed in the buffer
  std::uint64_t update_misses = 0;  ///< updates written through to the CMA
  std::uint64_t flushes = 0;        ///< dirty rows written back on eviction
  // --- tiered embedding memory (all zero with tiering disabled) ---------
  std::uint64_t warm_hits = 0;     ///< misses served from a warm block
  std::uint64_t cold_faults = 0;   ///< block faults against the cold tier
  std::uint64_t cold_rows_fetched = 0;  ///< rows pulled by block faults
  std::uint64_t warm_evictions = 0;     ///< blocks demoted warm -> cold
  std::uint64_t promotions = 0;    ///< rows admitted hot (tiered mode)
  std::uint64_t flushes_warm = 0;  ///< flushes landing in a warm block
  std::uint64_t flushes_cold = 0;  ///< flushes streaming out to cold

  std::uint64_t accesses() const noexcept { return hits + misses; }
  double hit_rate() const noexcept {
    const std::uint64_t n = accesses();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
  std::uint64_t updates() const noexcept { return update_hits + update_misses; }
  /// Fraction of update writes the periphery buffer absorbed.
  double write_hit_rate() const noexcept {
    const std::uint64_t n = updates();
    return n == 0 ? 0.0
                  : static_cast<double>(update_hits) / static_cast<double>(n);
  }
};

class HotEmbeddingCache {
 public:
  explicit HotEmbeddingCache(const HotCacheConfig& cfg);

  const HotCacheConfig& config() const noexcept { return cfg_; }

  /// Records one access to row `row` of table `table`; returns true on a
  /// cache hit. Updates frequency counters and the resident set. Admitting
  /// a hotter row may evict a dirty resident — the flush is recorded for
  /// take_flushed().
  bool access(std::uint32_t table, std::uint32_t row);

  /// Records one embedding-update write; returns true when the buffer
  /// absorbed it (row resident: marked dirty, charged at buffer-fill cost)
  /// and false on write-through (not resident, or cache disabled: charged
  /// at the CMA row-write cost). Bumps the LFU frequency but never
  /// allocates, so a write flood cannot evict the read-hot set.
  bool update(std::uint32_t table, std::uint32_t row);

  /// Dirty-row flushes recorded since the last call (evictions of rows
  /// holding a deferred array write); clears the counter. Callers charge
  /// each flush at the row-write cost into the hardware time of whatever
  /// operation triggered the eviction.
  std::uint64_t take_flushed();

  /// Per-tier breakdown of the pending flushes: `rows` mirrors what
  /// take_flushed() would return, `warm`/`cold` split it by destination
  /// tier (both zero with tiering disabled). Clears all three counters —
  /// callers use either this or take_flushed(), not both.
  struct TierFlush {
    std::uint64_t rows = 0;
    std::uint64_t warm = 0;
    std::uint64_t cold = 0;
  };
  TierFlush take_flushed_tiers();

  /// Cold-tier block faults recorded since the last call; clears the
  /// counter. Callers charge each fault at the block-fetch cost
  /// (PerfModel::cold_block_fetch over config().cold_block_rows) into the
  /// hardware time of the stage that missed.
  std::uint64_t take_block_faults();

  /// Commits deferred tier migrations at a batch-dispatch boundary (`at`
  /// is the dispatch time, observer-only): demotes FIFO-order unpinned
  /// warm blocks down to capacity, granting one reprieve to blocks still
  /// hotter than the hot tier's settled-min LFU bound. Called by the
  /// runtime before collecting each batch — never at completion — so the
  /// decision sequence depends only on the submission order and is
  /// identical phased or deferred. No-op with tiering disabled.
  void commit_migrations(device::Ns at);

  /// Pins the blocks containing `keys` (key = table<<32 | row) as
  /// permanently warm-resident: never demoted, not FIFO-tracked, but they
  /// occupy warm capacity. Static tier placement for benches; pins beyond
  /// capacity leave migration no room (unpinned blocks then stream
  /// through). Call before first use.
  void pin_warm(std::span<const std::uint64_t> keys);

  bool tiering_enabled() const noexcept { return tier_on_; }
  /// True when the block holding (table, row) is warm-resident or pinned.
  bool warm_resident(std::uint32_t table, std::uint32_t row) const;

  const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }

  /// Attaches a pure-observer sink (nullptr detaches): evictions (with
  /// their dirty flag) and update absorption are reported as they happen.
  /// Observation never alters admission, eviction or the statistics.
  void set_observer(ObserverSink* sink) noexcept { sink_ = sink; }

  /// Reference (pre-optimization) bookkeeping: node-based hash maps for
  /// the frequency history / resident set and a heap settle on every
  /// full-cache miss — exactly the data structures and work the cache had
  /// before the hot-path rework. Every decision and statistic is identical
  /// (the scaling bench's parity grid asserts it run for run); only the
  /// host cost differs. Set by the runtime under
  /// ServingConfig::reference_host_path. Must be chosen before first use.
  void set_reference_bookkeeping(bool on) noexcept { reference_ = on; }

  std::size_t resident_rows() const noexcept {
    return reference_ ? resident_ref_.size() : resident_count_;
  }
  std::size_t dirty_rows() const noexcept {
    return reference_ ? dirty_ref_.size() : dirty_.size();
  }
  bool contains(std::uint32_t table, std::uint32_t row) const;
  bool dirty(std::uint32_t table, std::uint32_t row) const;

 private:
  static std::uint64_t key_of(std::uint32_t table, std::uint32_t row) {
    return (static_cast<std::uint64_t>(table) << 32) | row;
  }
  /// Key of the cold block holding `key`: the row component rounded down
  /// to a block boundary (same table bits).
  std::uint64_t block_of(std::uint64_t key) const noexcept {
    const std::uint64_t row = key & 0xffffffffULL;
    return (key & ~0xffffffffULL) | (row - row % cfg_.cold_block_rows);
  }

  /// Pops stale heap entries until the top reflects a current resident
  /// frequency; returns false when the resident set is empty.
  bool settle_heap();

  /// Drops `key` from the resident set; a dirty row records its flush.
  void evict(std::uint64_t key);

  /// Tier bookkeeping for one hot-buffer miss at lifetime frequency
  /// `freq`: a warm-resident (or pinned) block is a warm hit and refreshes
  /// the block heat; anything else is a cold block fault, which admits the
  /// block warm when migration is on (demotion deferred to the next
  /// commit). Shared verbatim by both bookkeeping modes, so tier decisions
  /// are mode-independent.
  void touch_tiers(std::uint64_t key, std::uint64_t freq);
  /// Destination tier of a row leaving the hot buffer (flush/evict).
  Tier dest_tier(std::uint64_t key) const;
  /// Shared flush/evict tail of evict()/evict_ref().
  void note_evict(std::uint64_t key, bool was_dirty);

  // Reference-bookkeeping twins (pre-optimization data structures).
  bool access_ref(std::uint64_t key);
  bool update_ref(std::uint64_t key);
  bool settle_heap_ref();
  void evict_ref(std::uint64_t key);

  using HeapEntry = std::pair<std::uint64_t, std::uint64_t>;  // (freq, key)

  HotCacheConfig cfg_;
  CacheStats stats_;
  ObserverSink* sink_ = nullptr;  ///< pure observer; never feeds back
  // access() is the single hottest call in StagePipeline::collect(), so
  // the frequency history and the resident set share ONE open-addressing
  // table (util::FlatMap64): the resident set's per-key frequency is
  // always the lifetime frequency (every touch of a resident row syncs
  // it), so a slot packs {resident bit | lifetime freq} and an access is a
  // single probe. Eviction clears the bit — the frequency history must
  // survive the eviction anyway — so admission churn never erases or
  // re-inserts a key. None of this changes any decision the cache makes.
  static constexpr std::uint64_t kResidentBit = 1ULL << 63;
  static constexpr std::uint64_t kFreqMask = kResidentBit - 1;
  util::FlatMap64 table_;          // key -> resident bit | lifetime freq
  std::size_t resident_count_ = 0;
  /// Lower bound on the coldest resident frequency (monotone: frequencies
  /// only grow and admissions replace the min with a hotter row). Misses
  /// at or below it skip the admission settle entirely.
  std::uint64_t settled_min_ = 0;
  // Reference-bookkeeping state (populated only when reference_ is set):
  // the node-based containers the cache used before the hot-path rework.
  bool reference_ = false;
  std::unordered_map<std::uint64_t, std::uint64_t> freq_ref_;
  std::unordered_map<std::uint64_t, std::uint64_t> resident_ref_;
  std::unordered_set<std::uint64_t> dirty_ref_;
  util::FlatSet64 dirty_;          // resident rows awaiting flush
  std::uint64_t pending_flushes_ = 0;        // since last take_flushed()
  std::uint64_t pending_flush_warm_ = 0;     // tier split of the above
  std::uint64_t pending_flush_cold_ = 0;
  // Lazy min-heap over resident frequencies (stale entries skipped).
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
  // --- tiered embedding memory -----------------------------------------
  // The warm tier is block-granular: one FlatMap64 slot per resident
  // block packs {pin bit | reprieve bit | block heat}, where heat is the
  // max lifetime frequency seen through the block. The FIFO holds every
  // unpinned resident block in admission order; commit_migrations() pops
  // from the front. Shared (not duplicated) by the reference-bookkeeping
  // mode — like heap_ — so both modes make bit-identical tier decisions.
  static constexpr std::uint64_t kPinBit = 1ULL << 63;
  static constexpr std::uint64_t kChanceBit = 1ULL << 62;
  static constexpr std::uint64_t kHeatMask = kChanceBit - 1;
  bool tier_on_ = false;               ///< both tier knobs nonzero
  std::size_t warm_capacity_blocks_ = 0;
  std::size_t pinned_blocks_ = 0;
  util::FlatMap64 warm_;               ///< block key -> pin|chance|heat
  std::deque<std::uint64_t> warm_fifo_;  ///< unpinned residents, FIFO order
  /// Settled-min LFU bound shared with the tier layer: the frequency of
  /// the coldest hot-resident row at the last hot admission. Updated at
  /// the same decision point in both bookkeeping modes (admissions are
  /// mode-identical), so commit_migrations() sees the same bound either
  /// way. Distinct from settled_min_, which the reference path never
  /// maintains.
  std::uint64_t tier_bound_ = 0;
  std::uint64_t pending_block_faults_ = 0;  // since last take_block_faults()
  std::uint64_t faults_since_commit_ = 0;   // for the migrate trace instant
};

}  // namespace imars::serve
