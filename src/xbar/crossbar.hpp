// 256x128 crossbar array for matrix-vector multiplication (Sec III-A2).
//
// Crossbars hold the DNN-stack weights: every input (row) connects to every
// output (column) through a memory cell whose conductance encodes an int8
// weight; driving the rows with the input vector produces column currents
// proportional to the dot products. The functional model computes the exact
// integer gemv (the paper quantizes the DNN to int8 and evaluates crossbars
// with Neurosim's 45nm FeFET FoM, Table II row 7).
//
// Geometry convention: a tile holds `rows` input lanes x `cols` output
// lanes, i.e. it computes out[c] = sum_r w[r][c] * in[r].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "tensor/qtensor.hpp"

namespace imars::xbar {

/// One crossbar tile.
class Crossbar {
 public:
  Crossbar(const device::DeviceProfile& profile, device::EnergyLedger* ledger);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// Programs the tile with `w` (r x c <= rows x cols); unused cells are 0,
  /// including any a previous, larger block occupied. Programming cost is
  /// accounted as one-time CMA-RAM-class writes.
  void load_weights(const tensor::QMatrix& w);

  /// Tile gemv: out[c] = sum_r w[r][c] * in[r]; `in` size must equal rows().
  /// Returns cols() outputs; those outside the programmed block are 0.
  /// Charges one xbar matmul FoM; latency via out-parameter.
  std::vector<std::int32_t> gemv(std::span<const std::int8_t> in,
                                 device::Ns* latency) const;

  /// gemv's functional part over the input-row window [lo, lo + in.size()):
  /// out[c] += sum_r w[lo + r][c] * in[r] for the programmed block's columns
  /// (`out` covers at least those). Charges nothing; charge() adds the cost
  /// of the gemv it belongs to.
  void accumulate(std::span<const std::int8_t> in, std::size_t lo,
                  std::span<std::int32_t> out) const;

  /// Charges what one gemv charges (one xbar matmul FoM); latency via
  /// out-parameter.
  void charge(device::Ns* latency) const;

  /// Stored weight (for tests).
  std::int8_t weight(std::size_t r, std::size_t c) const;

 private:
  const device::DeviceProfile* profile_;
  device::EnergyLedger* ledger_;
  std::size_t rows_;
  std::size_t cols_;
  // Only the programmed block is stored (every other cell is 0), transposed
  // so each output column's weights are contiguous: column c occupies
  // w_[c * stride_, c * stride_ + block_rows_), zero-padded to stride_ =
  // block_rows_ rounded up to whole gemv row chunks. int16 cells let the
  // chunked dot product compile to multiply-add-pairs vector code.
  std::size_t block_rows_ = 0;
  std::size_t block_cols_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::int16_t> w_;
};

/// A weight matrix tiled over as many crossbars as needed.
///
/// Computes out = W x for W of arbitrary (out_dim x in_dim):
///   * input dimension is split into ceil(in/rows) row-tiles,
///   * output dimension into ceil(out/cols) column-tiles,
///   * all tiles evaluate in parallel (one xbar matmul latency),
///   * partial sums along the input split are merged by the digital
///     periphery (one controller cycle per merge level).
class TiledMatVec {
 public:
  /// W is (out_dim x in_dim) int8; layout is transposed internally to the
  /// crossbar's (input-row x output-col) orientation.
  TiledMatVec(const device::DeviceProfile& profile,
              device::EnergyLedger* ledger, const tensor::QMatrix& w);

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept { return out_dim_; }
  std::size_t tile_count() const noexcept { return tiles_.size(); }

  /// out[o] = sum_i W[o][i] * in[i], exact int32.
  std::vector<std::int32_t> gemv(std::span<const std::int8_t> in,
                                 device::Ns* latency) const;

  /// gemv's functional part over the input window [lo, lo + in.size()):
  /// out[o] += sum_i W[o][lo + i] * in[i] (`out` has out_dim() entries),
  /// evaluating only the row tiles and rows the window covers. The sums are
  /// exact int32, so a gemv splits into windows bit-exactly. Charges
  /// nothing; charge() adds the cost of the whole gemv.
  void accumulate(std::span<const std::int8_t> in, std::size_t lo,
                  std::span<std::int32_t> out) const;

  /// Charges what one gemv charges, in the same order: every tile's matmul
  /// and, when `latency` is non-null, the partial-sum merge; writes the
  /// gemv's latency.
  void charge(device::Ns* latency) const;

 private:
  const device::DeviceProfile* profile_;
  device::EnergyLedger* ledger_;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::size_t row_tiles_ = 0;
  std::size_t col_tiles_ = 0;
  std::vector<Crossbar> tiles_;  // row-tile major: tile(i,j) = tiles_[i*col_tiles_+j]
};

}  // namespace imars::xbar
