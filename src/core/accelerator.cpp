#include "core/accelerator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/calibration.hpp"
#include "util/error.hpp"

namespace imars::core {

using device::Component;
using device::Ns;
using device::Pj;
using recsys::OpCost;

namespace {

// Row-to-array addressing under the bank's placement policy (ArchConfig::
// RowPlacement). `n_cmas` is the bank's array count, `cma_rows` = R.
std::size_t cma_of(RowPlacement p, std::size_t row, std::size_t n_cmas,
                   std::size_t cma_rows) {
  return p == RowPlacement::kSequential ? row / cma_rows : row % n_cmas;
}

std::size_t local_of(RowPlacement p, std::size_t row, std::size_t n_cmas,
                     std::size_t cma_rows) {
  return p == RowPlacement::kSequential ? row % cma_rows : row / n_cmas;
}

std::size_t entry_of(RowPlacement p, std::size_t cma_id, std::size_t local,
                     std::size_t n_cmas, std::size_t cma_rows) {
  return p == RowPlacement::kSequential ? cma_id * cma_rows + local
                                        : local * n_cmas + cma_id;
}

}  // namespace

tensor::Vector PooledResult::dequantized() const {
  tensor::Vector out(lanes.size());
  const float div = (mean_pool && count > 0) ? static_cast<float>(count) : 1.0f;
  for (std::size_t i = 0; i < lanes.size(); ++i)
    out[i] = scale * static_cast<float>(lanes[i]) / div;
  return out;
}

ImarsAccelerator::ImarsAccelerator(const ArchConfig& arch,
                                   const device::DeviceProfile& profile)
    : arch_(arch),
      profile_(profile),
      mapping_(arch),
      rsc_(profile_, &ledger_),
      ibc_(profile_, &ledger_),
      controller_(profile_, &ledger_),
      mat_tree_(profile_, &ledger_, arch.cmas_per_mat, arch.emb_dim),
      bank_tree_(profile_, &ledger_, arch.bank_fan_in, arch.emb_dim) {
  IMARS_REQUIRE(arch.cma_rows == profile.cma_rows &&
                    arch.cma_cols == profile.cma_cols,
                "ImarsAccelerator: ArchConfig / DeviceProfile geometry mismatch");
  IMARS_REQUIRE(arch.lsh_bits <= arch.cma_cols,
                "ImarsAccelerator: signatures wider than one CMA are not "
                "supported by the functional machine (use PerfModel for "
                "longer-signature studies)");
  IMARS_REQUIRE(arch.emb_dim * 8 == arch.cma_cols,
                "ImarsAccelerator: one embedding row must fill one CMA row");
}

ImarsAccelerator::BankState& ImarsAccelerator::bank(std::size_t table_id) {
  IMARS_REQUIRE(table_id < banks_.size(), "ImarsAccelerator: bad table id");
  return banks_[table_id];
}

const ImarsAccelerator::BankState& ImarsAccelerator::bank(
    std::size_t table_id) const {
  IMARS_REQUIRE(table_id < banks_.size(), "ImarsAccelerator: bad table id");
  return banks_[table_id];
}

std::size_t ImarsAccelerator::table_rows(std::size_t table_id) const {
  return bank(table_id).rows;
}

std::size_t ImarsAccelerator::active_mats() const {
  std::size_t mats = 0;
  for (const auto& b : banks_) {
    mats += mapping_.mats_for_cmas(b.data_cmas.size() + b.sig_cmas.size());
  }
  return mats;
}

std::size_t ImarsAccelerator::active_cmas() const {
  std::size_t n = 0;
  for (const auto& b : banks_) n += b.data_cmas.size() + b.sig_cmas.size();
  return n;
}

std::size_t ImarsAccelerator::load_uiet(const std::string& name,
                                        const tensor::QMatrix& table) {
  IMARS_REQUIRE(banks_.size() < arch_.banks,
                "ImarsAccelerator: out of banks (" +
                    std::to_string(arch_.banks) + ")");
  IMARS_REQUIRE(table.cols() == arch_.emb_dim,
                "ImarsAccelerator: table dim != emb_dim");
  BankState b;
  b.name = name;
  b.scale = table.params().scale;
  b.rows = table.rows();
  const std::size_t n_cmas = mapping_.cmas_for_rows(table.rows());
  IMARS_REQUIRE(mapping_.mats_for_cmas(n_cmas) <= arch_.mats_per_bank,
                "ImarsAccelerator: table '" + name + "' exceeds bank capacity");
  b.placement = arch_.placement;
  b.data_cmas.reserve(n_cmas);
  for (std::size_t i = 0; i < n_cmas; ++i)
    b.data_cmas.emplace_back(profile_, &ledger_);
  for (std::size_t r = 0; r < table.rows(); ++r) {
    b.data_cmas[cma_of(b.placement, r, n_cmas, arch_.cma_rows)].write_row_i8(
        local_of(b.placement, r, n_cmas, arch_.cma_rows), table.row(r));
  }
  banks_.push_back(std::move(b));
  return banks_.size() - 1;
}

std::size_t ImarsAccelerator::load_itet(
    const std::string& name, const tensor::QMatrix& table,
    std::span<const util::BitVec> signatures) {
  IMARS_REQUIRE(signatures.size() == table.rows(),
                "ImarsAccelerator: one signature per ItET entry required");
  const std::size_t id = load_uiet(name, table);
  BankState& b = banks_[id];
  b.has_sigs = true;
  const std::size_t n_cmas = b.data_cmas.size();
  b.sig_cmas.reserve(n_cmas);
  for (std::size_t i = 0; i < n_cmas; ++i)
    b.sig_cmas.emplace_back(profile_, &ledger_);
  for (std::size_t r = 0; r < table.rows(); ++r) {
    const auto& sig = signatures[r];
    IMARS_REQUIRE(sig.size() == arch_.lsh_bits,
                  "ImarsAccelerator: signature width != lsh_bits");
    util::BitVec row(arch_.cma_cols);
    row.copy_from(sig, 0, sig.size(), 0);
    b.sig_cmas[cma_of(b.placement, r, n_cmas, arch_.cma_rows)].write_row(
        local_of(b.placement, r, n_cmas, arch_.cma_rows), row);
  }
  // Signature arrays live in TCAM mode from here on; unused tail columns of
  // narrower signatures are ternary don't-cares in a real array — the query
  // below pads with the stored value convention (zeros vs zeros), so they
  // never mismatch.
  for (auto& c : b.sig_cmas) c.set_mode(cma::Mode::kTcam);
  return id;
}

PreparedLookup ImarsAccelerator::prepare_lookup(
    std::span<const LookupRequest> reqs, TimingMode mode) const {
  IMARS_REQUIRE(!reqs.empty(), "ImarsAccelerator: no lookup requests");
  PreparedLookup out;
  out.mode_ = mode;
  out.banks_.reserve(reqs.size());
  out.results_.reserve(reqs.size());
  std::vector<std::size_t> cmas;  // physical CMA of each index, sorted
  for (const auto& req : reqs) {
    const BankState& b = bank(req.table_id);
    IMARS_REQUIRE(!req.indices.empty(), "ImarsAccelerator: empty lookup");
    for (auto idx : req.indices)
      IMARS_REQUIRE(idx < b.rows, "ImarsAccelerator: lookup index " +
                                      std::to_string(idx) +
                                      " out of range for '" + b.name + "' (" +
                                      std::to_string(b.rows) + " rows)");

    // ---- Functional pooling: sum int8 lanes of all requested rows. ------
    PooledResult result;
    result.scale = b.scale;
    result.count = req.indices.size();
    result.mean_pool = req.mean_pool;
    result.lanes.assign(arch_.emb_dim, 0);
    const std::size_t n_cmas = b.data_cmas.size();
    cmas.clear();
    for (auto idx : req.indices) {
      const std::size_t c = cma_of(b.placement, idx, n_cmas, arch_.cma_rows);
      b.data_cmas[c].peek_accumulate(
          local_of(b.placement, idx, n_cmas, arch_.cma_rows), result.lanes);
      cmas.push_back(c);
    }
    out.results_.push_back(std::move(result));

    // ---- Access pattern: rows per physical CMA (ascending CMA id; the
    // groups serialize within an array) and the contributing mats. --------
    std::sort(cmas.begin(), cmas.end());
    PreparedLookup::BankAccess access;
    access.table_id = req.table_id;
    access.indices = req.indices.size();
    access.group_lo = out.group_rows_.size();
    std::size_t mats = 0;
    for (std::size_t i = 0; i < cmas.size();) {
      std::size_t j = i + 1;
      while (j < cmas.size() && cmas[j] == cmas[i]) ++j;
      out.group_rows_.push_back(j - i);
      if (i == 0 || cmas[i] / arch_.cmas_per_mat !=
                        cmas[i - 1] / arch_.cmas_per_mat)
        ++mats;
      i = j;
    }
    access.group_hi = out.group_rows_.size();
    // Worst case: one array -> one mat.
    if (mode == TimingMode::kActualPlacement) access.mats = mats;
    out.banks_.push_back(access);
    out.total_indices_ += req.indices.size();
  }
  return out;
}

Ns ImarsAccelerator::charge_bank(const PreparedLookup& lookup,
                                 const PreparedLookup::BankAccess& access) {
  const BankState& b = bank(access.table_id);
  const auto& p = profile_;
  Ns array_phase{0.0};

  if (lookup.mode_ == TimingMode::kWorstCaseSameArray) {
    // Paper model (Sec IV-C1): all L lookups collide in one array and
    // serialize as read + (L-1) x (read + write + add).
    const std::size_t L = access.indices;
    ledger_.charge(Component::kCmaRam,
                   p.cma_read.energy * static_cast<double>(L), L);
    if (L > 1) {
      ledger_.charge(Component::kCmaRam,
                     p.cma_write.energy * static_cast<double>(L - 1), L - 1);
      ledger_.charge(Component::kCmaAdd,
                     p.cma_add.energy * static_cast<double>(L - 1), L - 1);
    }
    array_phase =
        p.cma_read.latency * static_cast<double>(L) +
        (p.cma_write.latency + p.cma_add.latency) * static_cast<double>(L - 1);
    // One mode reconfiguration of the (single) worst-case array.
    ledger_.charge(Component::kController, p.controller_energy);
  } else {
    // Actual placement: groups in different CMAs run in parallel; within a
    // CMA a single row is a RAM read, multiple rows run through the GPCiM
    // accumulator (one add per row).
    for (std::size_t g = access.group_lo; g < access.group_hi; ++g) {
      const std::size_t rows = lookup.group_rows_[g];
      Ns group{0.0};
      if (rows == 1) {
        ledger_.charge(Component::kCmaRam, p.cma_read.energy);
        group = p.cma_read.latency;
      } else {
        ledger_.charge(Component::kCmaAdd,
                       p.cma_add.energy * static_cast<double>(rows), rows);
        group = p.cma_add.latency * static_cast<double>(rows);
      }
      // Mode reconfiguration of the group's array.
      ledger_.charge(Component::kController, p.controller_energy);
      array_phase = device::max(array_phase, group);
    }
  }
  const std::size_t mats = access.mats;

  // Intra-mat trees run in parallel across mats: one pass.
  Ns tree_lat{0.0};
  {
    // Charge one pass per contributing mat (parallel in time).
    for (std::size_t m = 0; m < mats; ++m)
      ledger_.charge(Component::kIntraMatTree, p.intra_mat_add.energy);
    tree_lat = p.intra_mat_add.latency;
  }

  // Mat outputs stream over the IBC to the intra-bank tree under the
  // controller's schedule; serialized shots, multi-round accumulation.
  const auto groups = controller_.schedule(1, mats, arch_.bank_fan_in);
  Ns ibc_lat{0.0};
  for (const auto& g : groups) ibc_lat += ibc_.transfer_words(g.count);
  const std::size_t rounds = bank_tree_.rounds_for(mats);
  Ns bank_tree_lat{0.0};
  if (mats > 1) {
    ledger_.charge(Component::kIntraBankTree,
                   p.intra_bank_add.energy * static_cast<double>(rounds),
                   rounds);
    bank_tree_lat = p.intra_bank_add.latency * static_cast<double>(rounds);
  } else {
    // Single mat: data still crosses the intra-bank stage once (Table III
    // includes the intra-bank addition in every ET lookup).
    ledger_.charge(Component::kIntraBankTree, p.intra_bank_add.energy);
    bank_tree_lat = p.intra_bank_add.latency;
  }

  // Peripheral overhead of every array belonging to the activated table.
  const std::size_t active =
      b.data_cmas.size() + b.sig_cmas.size();
  ledger_.charge(Component::kPeripheral,
                 Pj{kPeripheralPjPerActiveCmaPerOp * static_cast<double>(active)},
                 active);

  return array_phase + tree_lat + ibc_lat + bank_tree_lat;
}

std::vector<PooledResult> ImarsAccelerator::lookup_pooled(
    std::span<const LookupRequest> reqs, TimingMode mode,
    recsys::OpCost* cost) {
  PreparedLookup lookup = prepare_lookup(reqs, mode);
  charge_lookup(lookup, cost);
  return std::move(lookup.results_);
}

void ImarsAccelerator::charge_lookup(const PreparedLookup& lookup,
                                     recsys::OpCost* cost) {
  // Capture (not a total() delta): the measured energy must not depend on
  // what the ledger accumulated before this call — see EnergyLedger.
  device::ScopedEnergyCapture capture(ledger_);

  Ns slowest_bank{0.0};
  for (const auto& access : lookup.banks_)
    slowest_bank = device::max(slowest_bank, charge_bank(lookup, access));

  // RSC traffic: index distribution in, one 256-bit pooled vector out per
  // bank; serialized on the shared bus.
  Ns comm = rsc_.transfer(lookup.total_indices_ * 4);
  for (std::size_t i = 0; i < lookup.banks_.size(); ++i)
    comm += rsc_.transfer(32);

  const Pj captured = capture.take();
  if (cost != nullptr) {
    cost->latency += slowest_bank + comm;
    cost->energy += captured;
  }
}

PooledResult ImarsAccelerator::read_row(std::size_t table_id, std::size_t row,
                                        recsys::OpCost* cost) {
  BankState& b = bank(table_id);
  IMARS_REQUIRE(row < b.rows, "ImarsAccelerator::read_row: out of range");
  device::ScopedEnergyCapture capture(ledger_);

  auto& arr =
      b.data_cmas[cma_of(b.placement, row, b.data_cmas.size(), arch_.cma_rows)];
  Ns lat{0.0};
  const auto lanes = arr.read_row_i8(
      local_of(b.placement, row, b.data_cmas.size(), arch_.cma_rows), &lat);
  // One row = emb_dim int8 lanes on the RSC bus (PerfModel::row_fetch
  // mirrors this).
  Ns comm = rsc_.transfer(arch_.emb_dim);

  PooledResult result;
  result.scale = b.scale;
  result.count = 1;
  result.lanes.assign(lanes.begin(), lanes.end());
  const Pj captured = capture.take();
  if (cost != nullptr) {
    cost->latency += lat + comm;
    cost->energy += captured;
  }
  return result;
}

std::vector<std::size_t> ImarsAccelerator::nns(std::size_t itet_id,
                                               const util::BitVec& query,
                                               std::size_t radius,
                                               recsys::OpCost* cost) {
  BankState& b = bank(itet_id);
  IMARS_REQUIRE(b.has_sigs, "ImarsAccelerator::nns: table has no signatures");
  IMARS_REQUIRE(query.size() == arch_.lsh_bits,
                "ImarsAccelerator::nns: query width != lsh_bits");
  device::ScopedEnergyCapture capture(ledger_);

  util::BitVec padded(arch_.cma_cols);
  padded.copy_from(query, 0, query.size(), 0);

  // All signature arrays search in parallel: latency is one search plus the
  // priority-encode/controller pass; matches aggregate across arrays.
  std::vector<std::size_t> matches;
  Ns search_lat{0.0};
  for (std::size_t a = 0; a < b.sig_cmas.size(); ++a) {
    const auto r = b.sig_cmas[a].search(padded, radius);
    search_lat = device::max(search_lat, r.latency);
    for (auto row : r.matches) {
      const std::size_t id =
          entry_of(b.placement, a, row, b.sig_cmas.size(), arch_.cma_rows);
      if (id < b.rows) matches.push_back(id);
    }
  }
  std::sort(matches.begin(), matches.end());
  ledger_.charge(Component::kController, profile_.controller_energy);
  ledger_.charge(
      Component::kPeripheral,
      Pj{kSearchPeripheralPjPerActiveCma * static_cast<double>(b.sig_cmas.size())},
      b.sig_cmas.size());

  const Pj captured = capture.take();
  if (cost != nullptr) {
    cost->latency += search_lat + profile_.controller_cycle;
    cost->energy += captured;
  }
  return matches;
}

std::vector<std::size_t> ImarsAccelerator::nns_topk(std::size_t itet_id,
                                                    const util::BitVec& query,
                                                    std::size_t k,
                                                    recsys::OpCost* cost) {
  BankState& b = bank(itet_id);
  IMARS_REQUIRE(b.has_sigs, "ImarsAccelerator::nns_topk: no signatures");
  IMARS_REQUIRE(k > 0, "ImarsAccelerator::nns_topk: k must be positive");

  // Binary-search the threshold; every probe is a full parallel search
  // (each charging all signature arrays through nns()).
  std::size_t lo = 0, hi = arch_.lsh_bits;
  std::vector<std::size_t> matched;
  recsys::OpCost total;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    recsys::OpCost probe;
    auto m = nns(itet_id, query, mid, &probe);
    total.latency += probe.latency;  // probes serialize
    total.energy += probe.energy;
    if (m.size() >= k) {
      matched = std::move(m);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (matched.size() < k) {
    // k exceeds the table: widest threshold matches everything.
    recsys::OpCost probe;
    matched = nns(itet_id, query, arch_.lsh_bits, &probe);
    total.latency += probe.latency;
    total.energy += probe.energy;
  }

  // Order the matched superset by true Hamming distance (the host reads the
  // per-threshold match flags; functionally equivalent, deterministic).
  util::BitVec padded(arch_.cma_cols);
  padded.copy_from(query, 0, query.size(), 0);
  std::vector<std::size_t> dist(matched.size());
  for (std::size_t i = 0; i < matched.size(); ++i) {
    const std::size_t id = matched[i];
    const auto sig =
        b.sig_cmas[cma_of(b.placement, id, b.sig_cmas.size(), arch_.cma_rows)]
            .peek_row(
                local_of(b.placement, id, b.sig_cmas.size(), arch_.cma_rows));
    dist[i] = sig.hamming(padded);
  }
  std::vector<std::size_t> order(matched.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
    if (dist[a] != dist[c]) return dist[a] < dist[c];
    return matched[a] < matched[c];
  });
  std::vector<std::size_t> out;
  out.reserve(std::min(k, matched.size()));
  for (std::size_t i = 0; i < order.size() && out.size() < k; ++i)
    out.push_back(matched[order[i]]);

  if (cost != nullptr) {
    cost->latency += total.latency;
    cost->energy += total.energy;
  }
  return out;
}

std::vector<std::size_t> ImarsAccelerator::topk_ctr(
    std::span<const float> scores, std::size_t k, recsys::OpCost* cost) {
  IMARS_REQUIRE(!scores.empty(), "ImarsAccelerator::topk_ctr: no scores");
  IMARS_REQUIRE(scores.size() <= arch_.cma_rows,
                "ImarsAccelerator::topk_ctr: more candidates than CTR-buffer rows");
  device::ScopedEnergyCapture capture(ledger_);

  if (!ctr_buffer_) ctr_buffer_ = std::make_unique<cma::Cma>(profile_, &ledger_);

  // Thermometer-encode each CTR into a CTR-buffer row: the higher the
  // score, the more ones, so Hamming distance to the all-ones query is
  // monotonically decreasing in the score (Sec III-C step (2e)).
  ctr_buffer_->set_mode(cma::Mode::kRam);
  Ns write_lat{0.0};
  std::vector<std::uint64_t> therm((arch_.cma_cols + 63) / 64);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const float s = std::clamp(scores[i], 0.0f, 1.0f);
    const auto ones = static_cast<std::size_t>(
        std::lround(static_cast<double>(s) * static_cast<double>(arch_.cma_cols)));
    for (std::size_t w = 0; w < therm.size(); ++w) {
      const std::size_t lo = w * 64;
      therm[w] = ones >= lo + 64 ? ~0ULL
                 : ones > lo    ? (1ULL << (ones - lo)) - 1
                                : 0ULL;
    }
    write_lat += ctr_buffer_->write_row(  // writes serialize
        i, util::BitVec::from_words(therm, arch_.cma_cols));
  }

  // Threshold sweep: binary-search the dummy-cell reference until at least
  // k matchlines fire (worst case log2(cols) searches).
  ctr_buffer_->set_mode(cma::Mode::kTcam);
  util::BitVec all_ones(arch_.cma_cols);
  all_ones.fill(true);

  Ns search_lat{0.0};
  std::size_t lo = 0, hi = arch_.cma_cols;
  std::vector<std::size_t> matched;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    // Row-valid bits at the priority encoder: the buffer persists across
    // queries, so rows at positions >= this query's candidate count are
    // stale leftovers of a previous (larger) ranking pass and must not
    // drain into the result — their matchlines would alias other items'
    // scores.
    auto r = ctr_buffer_->search(all_ones, mid, scores.size());
    search_lat += r.latency;
    if (r.matches.size() >= k) {
      matched = std::move(r.matches);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (matched.size() < k) {
    // Fewer candidates than k: the widest threshold matched everything.
    matched.resize(scores.size());
    std::iota(matched.begin(), matched.end(), 0);
  }

  // The matched set has >= k members (or everything); order by descending
  // score, deterministic tie-break on index, and truncate to k.
  std::sort(matched.begin(), matched.end(), [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  if (matched.size() > k) matched.resize(k);

  // Result ids leave on the RSC bus (2 B per id).
  Ns comm = rsc_.transfer(matched.size() * 2);
  ledger_.charge(Component::kPeripheral,
                 Pj{kSearchPeripheralPjPerActiveCma});

  // Park the buffer back in RAM mode once the ids have drained. The CTRL
  // block's schedule is predetermined (Sec III-A3), so the return switch
  // belongs to this pass — and it makes the per-query reconfiguration cost
  // a pure function of the query. Without it, set_mode's change-only charge
  // leaks the previous occupant's mode into this query's capture: the first
  // ranking pass on a fresh buffer pays one switch, every later pass two,
  // and *which* query ranks first on a shard is worker-scheduling order —
  // the one nondeterministic pJ in an otherwise bit-identical report.
  ctr_buffer_->set_mode(cma::Mode::kRam);

  const Pj captured = capture.take();
  if (cost != nullptr) {
    cost->latency += write_lat + search_lat + comm;
    cost->energy += captured;
  }
  return matched;
}

}  // namespace imars::core
