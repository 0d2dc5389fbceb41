// Tests for the crossbar module: tile gemv vs integer oracle, tiling of
// larger matrices, XbarMlp quantized inference vs float reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "nn/mlp.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/xbar_mlp.hpp"

namespace imars {
namespace {

using device::Component;
using device::DeviceProfile;
using device::EnergyLedger;
using tensor::Matrix;
using tensor::QMatrix;
using tensor::Vector;

struct Fixture {
  DeviceProfile profile = DeviceProfile::fefet45();
  EnergyLedger ledger;
};

TEST(Crossbar, TileGeometry) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  EXPECT_EQ(xb.rows(), 256u);
  EXPECT_EQ(xb.cols(), 128u);
}

TEST(Crossbar, GemvMatchesIntegerOracle) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  util::Xoshiro256 rng(1);
  const Matrix w = Matrix::randn(64, 100, 1.0f, rng);  // fits in one tile
  const QMatrix wq = QMatrix::quantize(w);
  // Tile orientation: (input rows x output cols) = transpose of wq.
  QMatrix tile(100, 64, wq.params());
  for (std::size_t r = 0; r < 64; ++r)
    for (std::size_t c = 0; c < 100; ++c) tile.at(c, r) = wq.at(r, c);
  xb.load_weights(tile);

  std::vector<std::int8_t> in(256, 0);
  for (std::size_t i = 0; i < 100; ++i)
    in[i] = static_cast<std::int8_t>(static_cast<int>(rng.below(256)) - 128);
  in[0] = -128;
  in[1] = 127;

  device::Ns lat{0.0};
  const auto out = xb.gemv(in, &lat);
  EXPECT_DOUBLE_EQ(lat.value, 225.0);

  // Every tile column: the 64 programmed ones match the oracle, the
  // padding columns read 0.
  ASSERT_EQ(out.size(), xb.cols());
  for (std::size_t o = 0; o < xb.cols(); ++o) {
    std::int32_t acc = 0;
    if (o < 64)
      for (std::size_t i = 0; i < 100; ++i)
        acc += static_cast<std::int32_t>(wq.at(o, i)) * in[i];
    EXPECT_EQ(out[o], acc) << "output " << o;
  }
}

TEST(Crossbar, GemvAtInt8Extremes) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  // Full tile of -128 weights driven by -128 inputs: the largest magnitude
  // a tile column can reach, 256 * 16384.
  QMatrix tile(256, 128, util::QuantParams{1.0f});
  for (std::size_t r = 0; r < 256; ++r)
    for (std::size_t c = 0; c < 128; ++c)
      tile.at(r, c) = static_cast<std::int8_t>(c % 2 == 0 ? -128 : 127);
  xb.load_weights(tile);
  const auto out = xb.gemv(std::vector<std::int8_t>(256, -128), nullptr);
  for (std::size_t c = 0; c < 128; ++c)
    EXPECT_EQ(out[c], c % 2 == 0 ? 256 * 16384 : 256 * -16256) << c;
}

TEST(Crossbar, UnprogrammedRowsContributeNothing) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  QMatrix block(3, 5, util::QuantParams{1.0f});
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      block.at(r, c) = static_cast<std::int8_t>(r * 5 + c + 1);
  xb.load_weights(block);
  std::vector<std::int8_t> in(256, 127);  // rows 3.. are driven but unused
  in[0] = 1;
  in[1] = -1;
  in[2] = 2;
  const auto out = xb.gemv(in, nullptr);
  for (std::size_t c = 0; c < xb.cols(); ++c) {
    const std::int32_t want =
        c < 5 ? block.at(0, c) - block.at(1, c) + 2 * block.at(2, c) : 0;
    EXPECT_EQ(out[c], want) << "output " << c;
  }
  EXPECT_EQ(xb.weight(3, 0), 0);
  EXPECT_EQ(xb.weight(0, 5), 0);
}

TEST(Crossbar, ReloadingSmallerBlockClearsOldWeights) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  QMatrix big(256, 128, util::QuantParams{1.0f});
  for (std::size_t r = 0; r < 256; ++r)
    for (std::size_t c = 0; c < 128; ++c) big.at(r, c) = 7;
  xb.load_weights(big);
  QMatrix small(2, 3, util::QuantParams{1.0f});
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) small.at(r, c) = -1;
  xb.load_weights(small);

  const auto out = xb.gemv(std::vector<std::int8_t>(256, 1), nullptr);
  for (std::size_t c = 0; c < xb.cols(); ++c)
    EXPECT_EQ(out[c], c < 3 ? -2 : 0) << "output " << c;
  for (std::size_t r = 0; r < 256; ++r)
    for (std::size_t c = 0; c < 128; ++c)
      ASSERT_EQ(xb.weight(r, c), (r < 2 && c < 3) ? -1 : 0) << r << "," << c;
}

TEST(Crossbar, LoadRejectsOversizedBlock) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  EXPECT_THROW(xb.load_weights(QMatrix(300, 10, {})), Error);
  EXPECT_THROW(xb.load_weights(QMatrix(10, 200, {})), Error);
}

TEST(Crossbar, GemvChargesOneMatmul) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  const auto before = f.ledger.ops(Component::kCrossbar);
  (void)xb.gemv(std::vector<std::int8_t>(256, 0), nullptr);
  EXPECT_EQ(f.ledger.ops(Component::kCrossbar), before + 1);
}

// ---------- TiledMatVec -------------------------------------------------------

class TiledShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(TiledShapes, MatchesIntegerGemvOracle) {
  const auto [out_dim, in_dim] = GetParam();
  Fixture f;
  util::Xoshiro256 rng(7);
  const Matrix w = Matrix::randn(out_dim, in_dim, 1.0f, rng);
  const QMatrix wq = QMatrix::quantize(w);
  xbar::TiledMatVec tiled(f.profile, &f.ledger, wq);

  const std::size_t expected_tiles =
      ((in_dim + 255) / 256) * ((out_dim + 127) / 128);
  EXPECT_EQ(tiled.tile_count(), expected_tiles);

  std::vector<std::int8_t> in(in_dim);
  for (auto& v : in)
    v = static_cast<std::int8_t>(static_cast<int>(rng.below(200)) - 100);

  device::Ns lat{0.0};
  const auto out = tiled.gemv(in, &lat);
  const auto oracle = tensor::gemv_i8(wq, in);
  EXPECT_EQ(out, oracle);
  // Tiles run in parallel: latency is one matmul + log2 merge of row tiles.
  EXPECT_GE(lat.value, 225.0);
  EXPECT_LT(lat.value, 225.0 + 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{16, 16},
                      std::pair<std::size_t, std::size_t>{128, 256},
                      std::pair<std::size_t, std::size_t>{130, 260},
                      std::pair<std::size_t, std::size_t>{1, 300},
                      std::pair<std::size_t, std::size_t>{383, 100},
                      std::pair<std::size_t, std::size_t>{64, 700}));

TEST(TiledMatVec, InputSizeChecked) {
  Fixture f;
  xbar::TiledMatVec tiled(f.profile, &f.ledger,
                          QMatrix(10, 20, util::QuantParams{0.1f}));
  EXPECT_THROW((void)tiled.gemv(std::vector<std::int8_t>(19, 0), nullptr),
               Error);
}

// ---------- XbarMlp -----------------------------------------------------------

TEST(XbarMlp, TracksFloatMlpWithinQuantizationError) {
  Fixture f;
  util::Xoshiro256 rng(11);
  nn::Mlp mlp({24, 32, 16, 8}, nn::Activation::kIdentity, rng);

  std::vector<Vector> calib;
  for (int i = 0; i < 16; ++i) {
    Vector v(24);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    calib.push_back(v);
  }
  xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  EXPECT_EQ(qmlp.in_dim(), 24u);
  EXPECT_EQ(qmlp.out_dim(), 8u);
  EXPECT_EQ(qmlp.layer_count(), 3u);

  // Compare on fresh inputs from the calibration distribution.
  double err = 0.0, mag = 0.0;
  for (int t = 0; t < 20; ++t) {
    Vector v(24);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const Vector ref = mlp.infer(v);
    const Vector got = qmlp.infer(v, nullptr);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      err += std::fabs(ref[i] - got[i]);
      mag += std::fabs(ref[i]);
    }
  }
  // Relative L1 error of int8 inference stays below ~10%.
  EXPECT_LT(err / mag, 0.10);
}

TEST(XbarMlp, SigmoidOutputStaysInUnitInterval) {
  Fixture f;
  util::Xoshiro256 rng(12);
  nn::Mlp mlp({10, 16, 1}, nn::Activation::kSigmoid, rng);
  std::vector<Vector> calib(4, Vector(10, 0.5f));
  xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  for (int t = 0; t < 10; ++t) {
    Vector v(10);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
    const float y = qmlp.infer(v, nullptr)[0];
    EXPECT_GE(y, 0.0f);
    EXPECT_LE(y, 1.0f);
  }
}

TEST(XbarMlp, LatencyIncludesPerLayerOverhead) {
  Fixture f;
  util::Xoshiro256 rng(13);
  nn::Mlp mlp({8, 8, 8}, nn::Activation::kIdentity, rng);
  std::vector<Vector> calib(2, Vector(8, 0.25f));
  xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  device::Ns lat{0.0};
  (void)qmlp.infer(Vector(8, 0.1f), &lat);
  const double expected_min =
      2 * (f.profile.xbar_matmul.latency.value +
           f.profile.xbar_layer_overhead.value);
  EXPECT_GE(lat.value, expected_min - 1e-9);
}

TEST(XbarMlp, RequiresCalibration) {
  Fixture f;
  util::Xoshiro256 rng(14);
  nn::Mlp mlp({4, 4}, nn::Activation::kIdentity, rng);
  EXPECT_THROW(xbar::XbarMlp(f.profile, &f.ledger, mlp, {}), Error);
}

TEST(XbarMlp, TileCountMatchesAnalyticFormula) {
  Fixture f;
  util::Xoshiro256 rng(15);
  // Layer (196 -> 128): 1 row tile x 1 col tile; (128 -> 64): 1x1;
  // (64 -> 32): 1x1. Then a wide layer (383 -> 256): 2x2 = 4.
  nn::Mlp mlp({383, 256, 64}, nn::Activation::kIdentity, rng);
  std::vector<Vector> calib(2, Vector(383, 0.1f));
  xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  EXPECT_EQ(qmlp.tile_count(), 2u * 2u + 1u * 1u);
}

// Prepared inference (fixed lanes' first-layer sums precomputed, one lane
// window varying per call) must be infer() on the assembled input, bit for
// bit: outputs, latency, the captured energy and every per-component ledger
// energy and op count. in_dim 300 spans two row tiles; the 200-wide first
// layer spans two column tiles.
TEST(XbarMlp, PreparedInferenceEqualsInferOnAssembledInput) {
  const DeviceProfile profile = DeviceProfile::fefet45();
  util::Xoshiro256 rng(16);
  nn::Mlp mlp({300, 200, 64, 1}, nn::Activation::kSigmoid, rng);
  auto random_input = [&rng] {
    Vector v(300);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
  };
  std::vector<Vector> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_input());
  EnergyLedger full_ledger;
  EnergyLedger prep_ledger;
  const xbar::XbarMlp full(profile, &full_ledger, mlp, calib);
  const xbar::XbarMlp prep(profile, &prep_ledger, mlp, calib);
  full_ledger.clear();
  prep_ledger.clear();

  struct Window {
    std::size_t lo;
    std::size_t len;
  };
  // Lane 0, mid-input, straddling the 256-row tile boundary, whole input.
  for (const Window w : {Window{0, 32}, Window{100, 32}, Window{240, 32},
                         Window{0, 300}}) {
    SCOPED_TRACE("window " + std::to_string(w.lo) + "+" +
                 std::to_string(w.len));
    Vector x = random_input();
    const auto prepared = prep.prepare(x, w.lo, w.len);
    for (int trial = 0; trial < 5; ++trial) {
      Vector window(w.len);
      for (auto& v : window) v = static_cast<float>(rng.uniform(-1.5, 1.5));
      std::copy(window.begin(), window.end(),
                x.begin() + static_cast<std::ptrdiff_t>(w.lo));

      device::Ns full_lat{0.0};
      device::ScopedEnergyCapture full_cap(full_ledger);
      const Vector want = full.infer(x, &full_lat);
      const device::Pj full_pj = full_cap.take();

      device::Ns prep_lat{0.0};
      device::ScopedEnergyCapture prep_cap(prep_ledger);
      const Vector got = prep.infer(prepared, window, &prep_lat);
      const device::Pj prep_pj = prep_cap.take();

      EXPECT_EQ(got, want);
      EXPECT_EQ(prep_lat.value, full_lat.value);
      EXPECT_EQ(prep_pj.value, full_pj.value);
      for (std::size_t c = 0;
           c < static_cast<std::size_t>(Component::kCount); ++c) {
        const auto comp = static_cast<Component>(c);
        EXPECT_EQ(prep_ledger.energy(comp).value,
                  full_ledger.energy(comp).value)
            << device::component_name(comp);
        EXPECT_EQ(prep_ledger.ops(comp), full_ledger.ops(comp))
            << device::component_name(comp);
      }
    }
  }
}

TEST(XbarMlp, PreparedWindowIsChecked) {
  Fixture f;
  util::Xoshiro256 rng(17);
  nn::Mlp mlp({40, 8}, nn::Activation::kIdentity, rng);
  std::vector<Vector> calib(2, Vector(40, 0.5f));
  const xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  EXPECT_THROW((void)qmlp.prepare(Vector(40, 0.1f), 30, 11), Error);
  EXPECT_THROW((void)qmlp.prepare(Vector(39, 0.1f), 0, 8), Error);
  const auto prepared = qmlp.prepare(Vector(40, 0.1f), 8, 8);
  EXPECT_THROW((void)qmlp.infer(prepared, Vector(7, 0.1f), nullptr), Error);
}

// A gemv split into input windows sums to the whole gemv exactly.
TEST(TiledMatVec, WindowedAccumulateSumsToGemv) {
  Fixture f;
  util::Xoshiro256 rng(18);
  const QMatrix w = QMatrix::quantize(Matrix::randn(150, 300, 1.0f, rng));
  const xbar::TiledMatVec mv(f.profile, &f.ledger, w);
  std::vector<std::int8_t> in(300);
  for (auto& v : in)
    v = static_cast<std::int8_t>(static_cast<int>(rng.below(256)) - 128);
  const auto want = mv.gemv(in, nullptr);
  const double charged = f.ledger.total().value;

  std::vector<std::int32_t> got(150, 0);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{7},
                                std::size_t{250}, std::size_t{262},
                                std::size_t{300}}) {
    std::fill(got.begin(), got.end(), 0);
    mv.accumulate(std::span(in).first(cut), 0, got);
    mv.accumulate(std::span(in).subspan(cut), cut, got);
    EXPECT_EQ(got, want) << "cut " << cut;
  }
  // The functional part charges nothing.
  EXPECT_EQ(f.ledger.total().value, charged);
  EXPECT_THROW(mv.accumulate(std::span(in).first(10), 295, got), Error);
}

}  // namespace
}  // namespace imars
