#include "xbar/crossbar.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace imars::xbar {

using device::Component;
using device::Ns;

namespace {
// Input rows per gemv dot-product chunk: a fixed trip count the compiler
// unrolls and vectorizes (int16 x int16 products summed pairwise to int32).
constexpr std::size_t kRowChunk = 16;
}  // namespace

Crossbar::Crossbar(const device::DeviceProfile& profile,
                   device::EnergyLedger* ledger)
    : profile_(&profile),
      ledger_(ledger),
      rows_(profile.xbar_rows),
      cols_(profile.xbar_cols) {
  IMARS_REQUIRE(ledger != nullptr, "Crossbar: ledger must not be null");
}

void Crossbar::load_weights(const tensor::QMatrix& w) {
  IMARS_REQUIRE(w.rows() <= rows_ && w.cols() <= cols_,
                "Crossbar::load_weights: block larger than tile");
  block_rows_ = w.rows();
  block_cols_ = w.cols();
  stride_ = (block_rows_ + kRowChunk - 1) / kRowChunk * kRowChunk;
  w_.assign(block_cols_ * stride_, 0);
  for (std::size_t r = 0; r < block_rows_; ++r)
    for (std::size_t c = 0; c < block_cols_; ++c)
      w_[c * stride_ + r] = w.at(r, c);
  // Cell programming: one row-write-equivalent per occupied row.
  ledger_->charge(Component::kCmaRam,
                  profile_->cma_write.energy * static_cast<double>(w.rows()),
                  w.rows());
}

std::vector<std::int32_t> Crossbar::gemv(std::span<const std::int8_t> in,
                                         device::Ns* latency) const {
  IMARS_REQUIRE(in.size() == rows_, "Crossbar::gemv: input size mismatch");
  std::vector<std::int32_t> out(cols_, 0);
  accumulate(in, 0, out);
  charge(latency);
  return out;
}

void Crossbar::accumulate(std::span<const std::int8_t> in, std::size_t lo,
                          std::span<std::int32_t> out) const {
  IMARS_REQUIRE(lo + in.size() <= rows_,
                "Crossbar::accumulate: window past the tile");
  IMARS_REQUIRE(out.size() >= block_cols_,
                "Crossbar::accumulate: output narrower than the block");
  // Cells outside the programmed block are 0: only its rows contribute.
  const std::size_t hi = std::min(lo + in.size(), block_rows_);
  if (lo >= hi) return;
  // The window's inputs, widened and zero-padded to whole row chunks
  // (chunk-aligned, so the padded range stays inside stride_).
  const std::size_t r_lo = lo / kRowChunk * kRowChunk;
  const std::size_t r_hi = (hi + kRowChunk - 1) / kRowChunk * kRowChunk;
  std::vector<std::int16_t> x(r_hi - r_lo, 0);
  std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(hi - lo),
            x.begin() + static_cast<std::ptrdiff_t>(lo - r_lo));
  for (std::size_t c = 0; c < block_cols_; ++c) {
    const std::int16_t* wc = &w_[c * stride_ + r_lo];
    std::int32_t acc = 0;
    for (std::size_t r0 = 0; r0 < x.size(); r0 += kRowChunk)
      for (std::size_t k = 0; k < kRowChunk; ++k)
        acc += static_cast<std::int32_t>(wc[r0 + k]) *
               static_cast<std::int32_t>(x[r0 + k]);
    out[c] += acc;
  }
}

void Crossbar::charge(device::Ns* latency) const {
  ledger_->charge(Component::kCrossbar, profile_->xbar_matmul.energy);
  if (latency != nullptr) *latency = profile_->xbar_matmul.latency;
}

std::int8_t Crossbar::weight(std::size_t r, std::size_t c) const {
  IMARS_REQUIRE(r < rows_ && c < cols_, "Crossbar::weight out of range");
  if (r >= block_rows_ || c >= block_cols_) return 0;
  return static_cast<std::int8_t>(w_[c * stride_ + r]);
}

TiledMatVec::TiledMatVec(const device::DeviceProfile& profile,
                         device::EnergyLedger* ledger,
                         const tensor::QMatrix& w)
    : profile_(&profile),
      ledger_(ledger),
      in_dim_(w.cols()),
      out_dim_(w.rows()) {
  IMARS_REQUIRE(ledger != nullptr, "TiledMatVec: ledger must not be null");
  IMARS_REQUIRE(in_dim_ > 0 && out_dim_ > 0, "TiledMatVec: empty matrix");

  const std::size_t tr = profile.xbar_rows;  // input lanes per tile
  const std::size_t tc = profile.xbar_cols;  // output lanes per tile
  row_tiles_ = (in_dim_ + tr - 1) / tr;
  col_tiles_ = (out_dim_ + tc - 1) / tc;

  tiles_.reserve(row_tiles_ * col_tiles_);
  for (std::size_t i = 0; i < row_tiles_; ++i) {
    for (std::size_t j = 0; j < col_tiles_; ++j) {
      // Tile (i,j) holds W[j*tc .. , i*tr ..]^T in (input-row, output-col)
      // orientation.
      const std::size_t in_lo = i * tr;
      const std::size_t in_hi = std::min(in_dim_, in_lo + tr);
      const std::size_t out_lo = j * tc;
      const std::size_t out_hi = std::min(out_dim_, out_lo + tc);
      tensor::QMatrix block(in_hi - in_lo, out_hi - out_lo, w.params());
      for (std::size_t r = in_lo; r < in_hi; ++r)
        for (std::size_t c = out_lo; c < out_hi; ++c)
          block.at(r - in_lo, c - out_lo) = w.at(c, r);
      tiles_.emplace_back(profile, ledger);
      tiles_.back().load_weights(block);
    }
  }
}

std::vector<std::int32_t> TiledMatVec::gemv(std::span<const std::int8_t> in,
                                            device::Ns* latency) const {
  IMARS_REQUIRE(in.size() == in_dim_, "TiledMatVec::gemv: input size");
  std::vector<std::int32_t> out(out_dim_, 0);
  accumulate(in, 0, out);
  charge(latency);
  return out;
}

void TiledMatVec::accumulate(std::span<const std::int8_t> in, std::size_t lo,
                             std::span<std::int32_t> out) const {
  IMARS_REQUIRE(lo + in.size() <= in_dim_,
                "TiledMatVec::accumulate: window past the input");
  IMARS_REQUIRE(out.size() == out_dim_, "TiledMatVec::accumulate: output size");
  const std::size_t tr = profile_->xbar_rows;
  const std::size_t tc = profile_->xbar_cols;
  const std::size_t hi = lo + in.size();
  // Row tiles the window overlaps; each sees its slice of the window at a
  // tile-local row offset. Rows past in_dim_ in the last tile are zero
  // padding and contribute nothing.
  for (std::size_t i = lo / tr; i * tr < hi; ++i) {
    const std::size_t a = std::max(lo, i * tr);
    const std::size_t b = std::min(hi, (i + 1) * tr);
    const auto slice = in.subspan(a - lo, b - a);
    for (std::size_t j = 0; j < col_tiles_; ++j) {
      const std::size_t out_lo = j * tc;
      tiles_[i * col_tiles_ + j].accumulate(
          slice, a - i * tr,
          out.subspan(out_lo, std::min(tc, out_dim_ - out_lo)));
    }
  }
}

void TiledMatVec::charge(device::Ns* latency) const {
  Ns tile_latency{0.0};
  for (const auto& tile : tiles_) {
    Ns lat{0.0};
    tile.charge(&lat);
    tile_latency = device::max(tile_latency, lat);
  }

  if (latency != nullptr) {
    // All tiles fire in parallel; partial sums along the input split merge
    // in a log2-depth digital reduction in the periphery.
    Ns merge{0.0};
    std::size_t levels = 0;
    for (std::size_t n = row_tiles_; n > 1; n = (n + 1) / 2) ++levels;
    merge = profile_->controller_cycle * static_cast<double>(levels);
    if (levels > 0)
      ledger_->charge(Component::kController,
                      profile_->controller_energy * static_cast<double>(levels),
                      levels);
    *latency = tile_latency + merge;
  }
}

}  // namespace imars::xbar
