// Functional + timed model of one FeFET-based Configurable Memory Array
// (Sec II-B, III-A1; circuit details in Reis et al., ASPDAC'21 [9]).
//
// A CMA is a 256x256 memory array that switches between three modes:
//   * RAM   — row-wise read/write through WL/BL drivers and RAM sense amps;
//   * TCAM  — all rows searched in parallel against a query on the search
//             lines; each cell XORs its stored bit with the query bit and
//             mismatch currents sum on the row's matchline. A CAM sense amp
//             compares the matchline current against a reference generated
//             by a dummy 1T+1FeFET cell, implementing *threshold* match:
//             row matches iff HammingDistance(row, query) <= threshold.
//             Ternary cells can store X (don't care), which never mismatches.
//   * GPCiM — two rows are activated simultaneously and an accumulator next
//             to the RAM sense amps produces their lane-wise integer sum
//             (32 lanes x int8 for the paper's 32-d embeddings).
//
// The functional behaviour here is bit-accurate; each operation charges the
// Table II figures of merit to an EnergyLedger and returns its latency so
// the caller can compose serial/parallel schedules.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "util/bitvec.hpp"

namespace imars::cma {

/// Operating mode of the array (one at a time; Sec II-B "CMAs can work as
/// either TCAM or GPCiM units at distinct times").
enum class Mode : std::uint8_t {
  kRam,
  kTcam,
  kGpcim,
};

/// Result of a TCAM threshold search.
struct SearchResult {
  util::BitVec matchlines;            ///< bit r set = row r matched
  std::vector<std::size_t> matches;   ///< matching row indices, ascending
  device::Ns latency;                 ///< search + priority-encode time
};

/// One 256x256 configurable memory array.
class Cma {
 public:
  /// Array with the profile's geometry. `ledger` (non-owning, required)
  /// receives all energy charges. The array keeps a pointer to `profile`,
  /// which must outlive it — arrays are instantiated by the thousands, so
  /// the owner (e.g. core::ImarsAccelerator) holds one stable copy.
  Cma(const device::DeviceProfile& profile, device::EnergyLedger* ledger);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  Mode mode() const noexcept { return mode_; }

  /// Switches operating mode. Reconfiguration itself is charged to the
  /// controller (peripheral mux select), not the array.
  void set_mode(Mode m);

  /// Number of mode switches so far (exposed for scheduling diagnostics).
  std::size_t mode_switches() const noexcept { return mode_switches_; }

  // --- RAM mode ---------------------------------------------------------

  /// Writes a full row. Requires RAM mode.
  device::Ns write_row(std::size_t row, const util::BitVec& bits);

  /// Reads a full row. Requires RAM mode.
  util::BitVec read_row(std::size_t row, device::Ns* latency = nullptr) const;

  /// Writes int8 lanes into a row (lane i occupies bits [8i, 8i+8)).
  device::Ns write_row_i8(std::size_t row, std::span<const std::int8_t> lanes);

  /// Reads int8 lanes from a row.
  std::vector<std::int8_t> read_row_i8(std::size_t row,
                                       device::Ns* latency = nullptr) const;

  // --- TCAM mode --------------------------------------------------------

  /// Marks a stored bit as ternary don't-care (never mismatches) or
  /// restores it to binary. Requires RAM mode (mask programming uses the
  /// write path).
  void set_dont_care(std::size_t row, std::size_t col, bool dont_care);

  /// Threshold search: returns all valid rows with Hamming distance
  /// <= threshold from `query` (don't-care cells never mismatch).
  /// Requires TCAM mode. Invalid (never-written) rows do not match, and
  /// neither do rows at or past `live_rows`: the row-valid bits at the
  /// priority encoder, for arrays whose leading rows hold the current
  /// contents and later rows are stale. One search charge either way.
  SearchResult search(const util::BitVec& query, std::size_t threshold,
                      std::size_t live_rows = SIZE_MAX) const;

  /// Priority encoder over the last search: lowest matching row index.
  static std::optional<std::size_t> first_match(const SearchResult& r);

  // --- GPCiM mode -------------------------------------------------------

  /// In-memory addition: dst_row = saturate_i8(lane-wise a_row + b_row).
  /// All three rows live in this array. Requires GPCiM mode.
  device::Ns add_rows(std::size_t dst_row, std::size_t a_row,
                      std::size_t b_row);

  /// Reads row `row` and accumulates its int8 lanes into `acc` (int32 lanes)
  /// using the accumulator register beside the RAM sense amps. This is the
  /// pooling primitive: repeated accumulate() implements multi-lookup sum
  /// pooling without wearing out cells. Requires GPCiM mode.
  device::Ns accumulate(std::size_t row, std::span<std::int32_t> acc) const;

  /// True if the row has ever been written.
  bool row_valid(std::size_t row) const;

  // --- Endurance tracking -------------------------------------------------
  // FeFET cells endure a bounded number of polarization switches
  // (DeviceProfile::endurance_cycles). The array counts per-row writes so
  // mapping policies can be audited for wear hot-spots (embedding tables
  // are written rarely, but GPCiM staging patterns could concentrate
  // writes).

  /// Writes ever issued to `row`.
  std::uint64_t row_writes(std::size_t row) const;

  /// Maximum per-row write count across the array.
  std::uint64_t max_row_writes() const noexcept;

  /// Worst-row wear as a fraction of the profile's endurance budget.
  double wearout_fraction() const noexcept;

  // --- Simulator-internal access ----------------------------------------

  /// Unaccounted row read used by composite models that charge energy and
  /// latency at a coarser grain (see core::ImarsAccelerator, which applies
  /// the paper's worst-case ET-lookup cost model on top of functional
  /// access). Not part of the hardware API: no mode check, no charge.
  util::BitVec peek_row(std::size_t row) const;

  /// Unaccounted pooling: adds row `row`'s int8 lanes into `acc` (int32
  /// lanes, see accumulate) with no mode check and no charge (see peek_row).
  void peek_accumulate(std::size_t row, std::span<std::int32_t> acc) const;

 private:
  void check_row(std::size_t row) const;
  void require_mode(Mode m, const char* op) const;
  /// Marks `row` written and charges one RAM write; returns its latency.
  device::Ns commit_write(std::size_t row);
  /// Checks and charges one RAM read of `row`.
  void charge_read(std::size_t row, device::Ns* latency) const;
  /// Stored words of `row` (words_per_row_ of them, low word first).
  const std::uint64_t* row_words(std::size_t row) const noexcept {
    return &data_[row * words_per_row_];
  }
  std::uint64_t* row_words(std::size_t row) noexcept {
    return &data_[row * words_per_row_];
  }
  /// Adds the int8 lanes of `row` into `acc` (sizes already checked).
  void add_lanes(std::size_t row, std::span<std::int32_t> acc) const noexcept;

  const device::DeviceProfile* profile_;
  device::EnergyLedger* ledger_;
  std::size_t rows_;
  std::size_t cols_;
  Mode mode_ = Mode::kRam;
  std::size_t mode_switches_ = 0;

  std::size_t words_per_row_;
  // Row-major packed storage, rows_ x words_per_row_ 64-bit words, in
  // util::BitVec's word layout (bit c of a row = bit c%64 of word c/64;
  // tail bits past cols_ stay zero).
  std::vector<std::uint64_t> data_;   ///< stored bits
  std::vector<std::uint64_t> xmask_;  ///< don't-care mask (1 = X)
  std::vector<bool> valid_;          ///< row has been written
  std::vector<std::uint64_t> writes_;  ///< per-row write counts (endurance)
};

}  // namespace imars::cma
