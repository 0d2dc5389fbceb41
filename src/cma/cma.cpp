#include "cma/cma.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/quant.hpp"

namespace imars::cma {

using device::Component;
using device::Ns;

namespace {
constexpr std::size_t kWordBits = 64;
constexpr std::size_t kLanesPerWord = kWordBits / 8;

/// int8 lane `b` (0..7) of a packed word.
std::int8_t lane_of(std::uint64_t word, std::size_t b) {
  return static_cast<std::int8_t>(word >> (8 * b));
}

/// Lanes held by word `w` of a row with `lanes` int8 lanes.
std::size_t lanes_in_word(std::size_t w, std::size_t lanes) {
  return std::min(kLanesPerWord, lanes - w * kLanesPerWord);
}
}  // namespace

Cma::Cma(const device::DeviceProfile& profile, device::EnergyLedger* ledger)
    : profile_(&profile),
      ledger_(ledger),
      rows_(profile.cma_rows),
      cols_(profile.cma_cols),
      words_per_row_((cols_ + kWordBits - 1) / kWordBits),
      data_(rows_ * words_per_row_, 0),
      xmask_(rows_ * words_per_row_, 0),
      valid_(rows_, false),
      writes_(rows_, 0) {
  IMARS_REQUIRE(ledger != nullptr, "Cma: ledger must not be null");
  IMARS_REQUIRE(cols_ % 8 == 0, "Cma: columns must be a multiple of 8");
}

void Cma::set_mode(Mode m) {
  if (m != mode_) {
    mode_ = m;
    ++mode_switches_;
    // Reconfiguration selects different peripherals (CAM SA vs RAM SA vs
    // accumulator); charged as one controller decision.
    ledger_->charge(Component::kController, profile_->controller_energy);
  }
}

void Cma::check_row(std::size_t row) const {
  IMARS_REQUIRE(row < rows_, "Cma: row " + std::to_string(row) +
                                 " out of range (rows " +
                                 std::to_string(rows_) + ")");
}

void Cma::require_mode(Mode m, const char* op) const {
  IMARS_REQUIRE(mode_ == m, std::string("Cma: operation '") + op +
                                "' requires a different array mode");
}

device::Ns Cma::write_row(std::size_t row, const util::BitVec& bits) {
  require_mode(Mode::kRam, "write_row");
  check_row(row);
  IMARS_REQUIRE(bits.size() == cols_, "Cma::write_row: width mismatch");
  std::copy(bits.words().begin(), bits.words().end(), row_words(row));
  return commit_write(row);
}

device::Ns Cma::commit_write(std::size_t row) {
  valid_[row] = true;
  ++writes_[row];
  ledger_->charge(Component::kCmaRam, profile_->cma_write.energy);
  return profile_->cma_write.latency;
}

void Cma::charge_read(std::size_t row, device::Ns* latency) const {
  require_mode(Mode::kRam, "read_row");
  check_row(row);
  IMARS_REQUIRE(valid_[row], "Cma::read_row: row never written");
  ledger_->charge(Component::kCmaRam, profile_->cma_read.energy);
  if (latency != nullptr) *latency = profile_->cma_read.latency;
}

util::BitVec Cma::read_row(std::size_t row, device::Ns* latency) const {
  charge_read(row, latency);
  return util::BitVec::from_words({row_words(row), words_per_row_}, cols_);
}

device::Ns Cma::write_row_i8(std::size_t row,
                             std::span<const std::int8_t> lanes) {
  IMARS_REQUIRE(lanes.size() == cols_ / 8, "Cma::write_row_i8: lane count");
  require_mode(Mode::kRam, "write_row");
  check_row(row);
  std::uint64_t* d = row_words(row);
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < lanes_in_word(w, lanes.size()); ++b)
      word |= std::uint64_t{static_cast<std::uint8_t>(
                  lanes[w * kLanesPerWord + b])}
              << (8 * b);
    d[w] = word;
  }
  return commit_write(row);
}

std::vector<std::int8_t> Cma::read_row_i8(std::size_t row,
                                          device::Ns* latency) const {
  charge_read(row, latency);
  std::vector<std::int8_t> lanes(cols_ / 8);
  const std::uint64_t* d = row_words(row);
  for (std::size_t w = 0; w < words_per_row_; ++w)
    for (std::size_t b = 0; b < lanes_in_word(w, lanes.size()); ++b)
      lanes[w * kLanesPerWord + b] = lane_of(d[w], b);
  return lanes;
}

void Cma::set_dont_care(std::size_t row, std::size_t col, bool dont_care) {
  require_mode(Mode::kRam, "set_dont_care");
  check_row(row);
  IMARS_REQUIRE(col < cols_, "Cma::set_dont_care: column out of range");
  const std::uint64_t bit = 1ULL << (col % kWordBits);
  std::uint64_t& word = xmask_[row * words_per_row_ + col / kWordBits];
  word = dont_care ? (word | bit) : (word & ~bit);
  // Programming the ternary mask is a write through the same drivers.
  ledger_->charge(Component::kCmaRam, profile_->cma_write.energy);
}

SearchResult Cma::search(const util::BitVec& query, std::size_t threshold,
                         std::size_t live_rows) const {
  require_mode(Mode::kTcam, "search");
  IMARS_REQUIRE(query.size() == cols_, "Cma::search: query width mismatch");

  SearchResult result;
  result.matchlines = util::BitVec(rows_);
  // All matchlines evaluate in parallel: one search is one array operation
  // regardless of row count (O(1) search, Sec II-B).
  ledger_->charge(Component::kCmaSearch, profile_->cma_search.energy);
  const std::uint64_t* q = query.words().data();
  const std::size_t live = std::min(rows_, live_rows);
  for (std::size_t r = 0; r < live; ++r) {
    if (!valid_[r]) continue;
    // Mismatch current only flows through cells that are binary (not X) and
    // differ from the query bit. Tail bits past cols_ are zero in both the
    // row and the query, so they never count.
    const std::uint64_t* d = row_words(r);
    const std::uint64_t* x = &xmask_[r * words_per_row_];
    std::size_t mismatches = 0;
    for (std::size_t w = 0; w < words_per_row_; ++w)
      mismatches +=
          static_cast<std::size_t>(util::popcount64((d[w] ^ q[w]) & ~x[w]));
    if (mismatches <= threshold) {
      result.matchlines.set(r, true);
      result.matches.push_back(r);
    }
  }
  // Search + priority-encoder pass.
  result.latency = profile_->cma_search.latency;
  return result;
}

std::optional<std::size_t> Cma::first_match(const SearchResult& r) {
  if (r.matches.empty()) return std::nullopt;
  return r.matches.front();
}

device::Ns Cma::add_rows(std::size_t dst_row, std::size_t a_row,
                         std::size_t b_row) {
  require_mode(Mode::kGpcim, "add_rows");
  check_row(dst_row);
  check_row(a_row);
  check_row(b_row);
  IMARS_REQUIRE(valid_[a_row] && valid_[b_row],
                "Cma::add_rows: source rows must be written");
  const std::size_t lanes = cols_ / 8;
  const std::uint64_t* a = row_words(a_row);
  const std::uint64_t* b = row_words(b_row);
  std::uint64_t* dst = row_words(dst_row);
  // Word w of dst depends only on word w of the sources, so dst may alias
  // either source.
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t word = 0;
    for (std::size_t l = 0; l < lanes_in_word(w, lanes); ++l) {
      const std::int8_t sum =
          util::sat_add_i8(lane_of(a[w], l), lane_of(b[w], l));
      word |= std::uint64_t{static_cast<std::uint8_t>(sum)} << (8 * l);
    }
    dst[w] = word;
  }
  valid_[dst_row] = true;
  ++writes_[dst_row];  // the in-memory add rewrites the destination row
  ledger_->charge(Component::kCmaAdd, profile_->cma_add.energy);
  return profile_->cma_add.latency;
}

device::Ns Cma::accumulate(std::size_t row,
                           std::span<std::int32_t> acc) const {
  require_mode(Mode::kGpcim, "accumulate");
  check_row(row);
  IMARS_REQUIRE(valid_[row], "Cma::accumulate: row never written");
  IMARS_REQUIRE(acc.size() == cols_ / 8, "Cma::accumulate: lane count");
  add_lanes(row, acc);
  ledger_->charge(Component::kCmaAdd, profile_->cma_add.energy);
  return profile_->cma_add.latency;
}

bool Cma::row_valid(std::size_t row) const {
  check_row(row);
  return valid_[row];
}

std::uint64_t Cma::row_writes(std::size_t row) const {
  check_row(row);
  return writes_[row];
}

std::uint64_t Cma::max_row_writes() const noexcept {
  std::uint64_t m = 0;
  for (auto w : writes_) m = std::max(m, w);
  return m;
}

double Cma::wearout_fraction() const noexcept {
  if (profile_->endurance_cycles == 0) return 0.0;
  return static_cast<double>(max_row_writes()) /
         static_cast<double>(profile_->endurance_cycles);
}

util::BitVec Cma::peek_row(std::size_t row) const {
  check_row(row);
  IMARS_REQUIRE(valid_[row], "Cma::peek_row: row never written");
  return util::BitVec::from_words({row_words(row), words_per_row_}, cols_);
}

void Cma::peek_accumulate(std::size_t row,
                          std::span<std::int32_t> acc) const {
  check_row(row);
  IMARS_REQUIRE(valid_[row], "Cma::peek_accumulate: row never written");
  IMARS_REQUIRE(acc.size() == cols_ / 8, "Cma::peek_accumulate: lane count");
  add_lanes(row, acc);
}

void Cma::add_lanes(std::size_t row,
                    std::span<std::int32_t> acc) const noexcept {
  const std::uint64_t* d = row_words(row);
  for (std::size_t w = 0; w < words_per_row_; ++w)
    for (std::size_t b = 0; b < lanes_in_word(w, acc.size()); ++b)
      acc[w * kLanesPerWord + b] += lane_of(d[w], b);
}

}  // namespace imars::cma
