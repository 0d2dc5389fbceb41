// Tests for the CMA functional model: RAM read/write, TCAM threshold search
// (vs brute-force Hamming oracle), GPCiM in-memory addition, mode rules,
// ternary cells, energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "cma/cma.hpp"
#include "util/error.hpp"
#include "util/quant.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using cma::Cma;
using cma::Mode;
using device::Component;
using device::DeviceProfile;
using device::EnergyLedger;
using util::BitVec;

struct Fixture {
  DeviceProfile profile = DeviceProfile::fefet45();
  EnergyLedger ledger;
  Cma array{profile, &ledger};
};

BitVec random_row(std::size_t bits, util::Xoshiro256& rng, double p = 0.5) {
  BitVec v(bits);
  for (std::size_t i = 0; i < bits; ++i) v.set(i, rng.bernoulli(p));
  return v;
}

TEST(Cma, GeometryFromProfile) {
  Fixture f;
  EXPECT_EQ(f.array.rows(), 256u);
  EXPECT_EQ(f.array.cols(), 256u);
  EXPECT_EQ(f.array.mode(), Mode::kRam);
}

TEST(Cma, WriteReadRoundTrip) {
  Fixture f;
  util::Xoshiro256 rng(1);
  const BitVec row = random_row(256, rng);
  f.array.write_row(7, row);
  EXPECT_TRUE(f.array.row_valid(7));
  EXPECT_EQ(f.array.read_row(7), row);
}

TEST(Cma, ReadUnwrittenRowThrows) {
  Fixture f;
  EXPECT_THROW(f.array.read_row(0), Error);
  EXPECT_FALSE(f.array.row_valid(0));
}

TEST(Cma, RowIndexOutOfRangeThrows) {
  Fixture f;
  EXPECT_THROW(f.array.write_row(256, BitVec(256)), Error);
}

TEST(Cma, WriteWidthMismatchThrows) {
  Fixture f;
  EXPECT_THROW(f.array.write_row(0, BitVec(128)), Error);
}

TEST(Cma, Int8LaneRoundTrip) {
  Fixture f;
  std::vector<std::int8_t> lanes(32);
  for (int i = 0; i < 32; ++i) lanes[i] = static_cast<std::int8_t>(i * 7 - 100);
  f.array.write_row_i8(3, lanes);
  EXPECT_EQ(f.array.read_row_i8(3), lanes);
}

TEST(Cma, ModeEnforcement) {
  Fixture f;
  f.array.write_row(0, BitVec(256));
  f.array.set_mode(Mode::kTcam);
  EXPECT_THROW(f.array.read_row(0), Error);
  EXPECT_THROW(f.array.write_row(1, BitVec(256)), Error);
  EXPECT_THROW(f.array.add_rows(2, 0, 0), Error);

  f.array.set_mode(Mode::kGpcim);
  EXPECT_THROW((void)f.array.search(BitVec(256), 0), Error);

  f.array.set_mode(Mode::kRam);
  EXPECT_THROW((void)f.array.search(BitVec(256), 0), Error);
}

TEST(Cma, ModeSwitchCountsAndCharges) {
  Fixture f;
  const auto before = f.ledger.energy(Component::kController).value;
  f.array.set_mode(Mode::kTcam);
  f.array.set_mode(Mode::kTcam);  // no-op
  f.array.set_mode(Mode::kRam);
  EXPECT_EQ(f.array.mode_switches(), 2u);
  EXPECT_GT(f.ledger.energy(Component::kController).value, before);
}

TEST(Cma, LatenciesComeFromProfile) {
  Fixture f;
  const auto wl = f.array.write_row(0, BitVec(256));
  EXPECT_DOUBLE_EQ(wl.value, f.profile.cma_write.latency.value);
  device::Ns rl{0.0};
  (void)f.array.read_row(0, &rl);
  EXPECT_DOUBLE_EQ(rl.value, f.profile.cma_read.latency.value);
}

TEST(Cma, EnergyAccountingPerOp) {
  Fixture f;
  f.array.write_row(0, BitVec(256));
  f.array.write_row(1, BitVec(256));
  (void)f.array.read_row(0);
  EXPECT_DOUBLE_EQ(f.ledger.energy(Component::kCmaRam).value,
                   2 * 49.1 + 3.2);
  EXPECT_EQ(f.ledger.ops(Component::kCmaRam), 3u);
}

// ---------- TCAM search -----------------------------------------------------

TEST(Cma, ExactMatchSearch) {
  Fixture f;
  util::Xoshiro256 rng(2);
  const BitVec a = random_row(256, rng);
  const BitVec b = random_row(256, rng);
  f.array.write_row(10, a);
  f.array.write_row(20, b);
  f.array.set_mode(Mode::kTcam);

  const auto r = f.array.search(a, 0);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0], 10u);
  EXPECT_TRUE(r.matchlines.get(10));
  EXPECT_FALSE(r.matchlines.get(20));
  EXPECT_EQ(Cma::first_match(r), std::optional<std::size_t>(10));
}

TEST(Cma, NoMatchGivesEmpty) {
  Fixture f;
  f.array.write_row(0, BitVec::from_string(std::string(256, '1')));
  f.array.set_mode(Mode::kTcam);
  const auto r = f.array.search(BitVec(256), 10);  // distance 256 > 10
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(Cma::first_match(r), std::nullopt);
}

TEST(Cma, UnwrittenRowsNeverMatch) {
  Fixture f;
  f.array.set_mode(Mode::kTcam);
  const auto r = f.array.search(BitVec(256), 256);  // matches everything valid
  EXPECT_TRUE(r.matches.empty());
}

// Property: TCAM threshold search == a per-bit brute-force reference, for
// random contents, random don't-care masks, never-written rows, random
// queries and every threshold in a sweep. The 200-column array (a multiple
// of 8 but not of 64) covers a partial tail word.
class CmaSearchProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CmaSearchProperty, MatchesBruteForce) {
  const std::size_t threshold = GetParam();
  for (const std::size_t cols : {256ul, 200ul}) {
    SCOPED_TRACE("cols " + std::to_string(cols));
    DeviceProfile profile = DeviceProfile::fefet45();
    profile.cma_cols = cols;
    EnergyLedger ledger;
    Cma array(profile, &ledger);
    util::Xoshiro256 rng(1000 + threshold + cols);

    std::vector<BitVec> rows, masks;
    std::vector<bool> written;
    for (std::size_t r = 0; r < 64; ++r) {
      rows.push_back(random_row(cols, rng));
      masks.push_back(random_row(cols, rng, 0.1));
      written.push_back(r % 7 != 3);
      if (written.back()) array.write_row(r, rows.back());
      for (std::size_t c = 0; c < cols; ++c)
        if (masks.back().get(c)) array.set_dont_care(r, c, true);
    }
    array.set_mode(Mode::kTcam);

    // Query biased toward row 0 so small thresholds sometimes hit.
    BitVec q = rows[0];
    for (std::size_t i = 0; i < threshold; ++i) q.flip(rng.below(cols));

    const auto result = array.search(q, threshold);
    std::vector<std::size_t> expected;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (!written[r]) continue;
      std::size_t mismatches = 0;
      for (std::size_t c = 0; c < cols; ++c)
        if (!masks[r].get(c) && rows[r].get(c) != q.get(c)) ++mismatches;
      if (mismatches <= threshold) expected.push_back(r);
    }
    EXPECT_EQ(result.matches, expected);
    for (std::size_t r = 0; r < array.rows(); ++r)
      EXPECT_EQ(result.matchlines.get(r),
                std::binary_search(expected.begin(), expected.end(), r))
          << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CmaSearchProperty,
                         ::testing::Values(0, 1, 4, 16, 64, 100, 128, 200,
                                           256));

TEST(Cma, TernaryDontCareNeverMismatches) {
  Fixture f;
  const BitVec stored = BitVec::from_string("1010" + std::string(252, '0'));
  f.array.write_row(0, stored);
  // Mark the first four cells as X.
  for (std::size_t c = 0; c < 4; ++c) f.array.set_dont_care(0, c, true);
  f.array.set_mode(Mode::kTcam);

  // Query differs in all four X positions: still an exact (distance-0) match.
  const BitVec q = BitVec::from_string("0101" + std::string(252, '0'));
  const auto r = f.array.search(q, 0);
  ASSERT_EQ(r.matches.size(), 1u);

  // Restoring binary behaviour makes it mismatch again.
  f.array.set_mode(Mode::kRam);
  for (std::size_t c = 0; c < 4; ++c) f.array.set_dont_care(0, c, false);
  f.array.set_mode(Mode::kTcam);
  EXPECT_TRUE(f.array.search(q, 3).matches.empty());
}

TEST(Cma, SearchChargesOneArrayOp) {
  Fixture f;
  f.array.write_row(0, BitVec(256));
  f.array.set_mode(Mode::kTcam);
  const auto before = f.ledger.ops(Component::kCmaSearch);
  (void)f.array.search(BitVec(256), 0);
  EXPECT_EQ(f.ledger.ops(Component::kCmaSearch), before + 1);
  EXPECT_DOUBLE_EQ(f.ledger.energy(Component::kCmaSearch).value, 13.8);
}

// Rows at or past the live bound (row-valid bits at the priority encoder)
// never match, whatever they hold; the search is still one array op.
TEST(Cma, LiveRowBoundMasksTrailingRows) {
  Fixture f;
  for (std::size_t r = 0; r < 40; ++r) f.array.write_row(r, BitVec(256));
  f.array.set_mode(Mode::kTcam);
  for (const std::size_t live : {std::size_t{0}, std::size_t{1},
                                 std::size_t{25}, std::size_t{40},
                                 std::size_t{1000}}) {
    const auto before_ops = f.ledger.ops(Component::kCmaSearch);
    const double before_pj = f.ledger.energy(Component::kCmaSearch).value;
    const auto r = f.array.search(BitVec(256), 0, live);
    std::vector<std::size_t> want(std::min<std::size_t>(live, 40));
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(r.matches, want) << "live " << live;
    for (std::size_t row = 0; row < 256; ++row)
      EXPECT_EQ(r.matchlines.get(row), row < want.size()) << "row " << row;
    EXPECT_EQ(f.ledger.ops(Component::kCmaSearch), before_ops + 1);
    EXPECT_DOUBLE_EQ(f.ledger.energy(Component::kCmaSearch).value - before_pj,
                     f.profile.cma_search.energy.value);
  }
}

// ---------- GPCiM ------------------------------------------------------------

TEST(Cma, AddRowsLaneWise) {
  Fixture f;
  std::vector<std::int8_t> a(32), b(32);
  for (int i = 0; i < 32; ++i) {
    a[i] = static_cast<std::int8_t>(i - 16);
    b[i] = static_cast<std::int8_t>(2 * i - 20);
  }
  f.array.write_row_i8(0, a);
  f.array.write_row_i8(1, b);
  f.array.set_mode(Mode::kGpcim);
  f.array.add_rows(2, 0, 1);
  f.array.set_mode(Mode::kRam);
  const auto sum = f.array.read_row_i8(2);
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(sum[i], util::sat_add_i8(a[i], b[i])) << "lane " << i;
}

TEST(Cma, AddRowsSaturates) {
  Fixture f;
  std::vector<std::int8_t> big(32, 100);
  f.array.write_row_i8(0, big);
  f.array.write_row_i8(1, big);
  f.array.set_mode(Mode::kGpcim);
  f.array.add_rows(2, 0, 1);
  f.array.set_mode(Mode::kRam);
  for (auto v : f.array.read_row_i8(2)) EXPECT_EQ(v, 127);
}

TEST(Cma, AddRowsRequiresWrittenSources) {
  Fixture f;
  f.array.write_row_i8(0, std::vector<std::int8_t>(32, 1));
  f.array.set_mode(Mode::kGpcim);
  EXPECT_THROW(f.array.add_rows(2, 0, 1), Error);
}

TEST(Cma, AccumulateSumsIntoWideLanes) {
  Fixture f;
  util::Xoshiro256 rng(3);
  std::vector<std::vector<std::int8_t>> rows;
  std::vector<std::int32_t> expected(32, 0);
  for (std::size_t r = 0; r < 10; ++r) {
    std::vector<std::int8_t> lanes(32);
    for (auto& v : lanes)
      v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
    rows.push_back(lanes);
    f.array.write_row_i8(r, lanes);
    for (int c = 0; c < 32; ++c) expected[c] += lanes[c];
  }
  f.array.set_mode(Mode::kGpcim);
  std::vector<std::int32_t> acc(32, 0);
  for (std::size_t r = 0; r < 10; ++r) f.array.accumulate(r, acc);
  EXPECT_EQ(acc, expected);
  // 10 in-memory adds charged.
  EXPECT_EQ(f.ledger.ops(Component::kCmaAdd), 10u);
}

TEST(Cma, PeekDoesNotCharge) {
  Fixture f;
  f.array.write_row_i8(0, std::vector<std::int8_t>(32, 5));
  const auto before = f.ledger.total().value;
  const auto ops_before = f.ledger.ops(Component::kCmaAdd);
  (void)f.array.peek_row(0);
  std::vector<std::int32_t> acc(32, 1);
  f.array.peek_accumulate(0, acc);  // no mode check: the array is in RAM mode
  EXPECT_EQ(acc, std::vector<std::int32_t>(32, 6));
  EXPECT_DOUBLE_EQ(f.ledger.total().value, before);
  EXPECT_EQ(f.ledger.ops(Component::kCmaAdd), ops_before);
}

// Lane paths on a 256-column array and on a 200-column one, whose last
// word holds a single lane.
TEST(Cma, LanePathsMatchLaneReference) {
  for (const std::size_t cols : {256ul, 200ul}) {
    SCOPED_TRACE("cols " + std::to_string(cols));
    DeviceProfile profile = DeviceProfile::fefet45();
    profile.cma_cols = cols;
    EnergyLedger ledger;
    Cma array(profile, &ledger);
    const std::size_t n = cols / 8;
    util::Xoshiro256 rng(4 + cols);
    std::vector<std::int8_t> a(n), b(n);
    for (std::size_t l = 0; l < n; ++l) {
      a[l] = static_cast<std::int8_t>(static_cast<int>(rng.below(256)) - 128);
      b[l] = static_cast<std::int8_t>(static_cast<int>(rng.below(256)) - 128);
    }
    a[0] = -128;
    a[n - 1] = 127;
    array.write_row_i8(9, a);
    array.write_row_i8(10, b);
    EXPECT_EQ(array.read_row_i8(9), a);

    std::vector<std::int32_t> peeked(n, -7);
    array.peek_accumulate(9, peeked);
    array.set_mode(Mode::kGpcim);
    std::vector<std::int32_t> charged(n, -7);
    array.accumulate(9, charged);
    EXPECT_EQ(peeked, charged);
    for (std::size_t l = 0; l < n; ++l) EXPECT_EQ(peeked[l], a[l] - 7);

    array.add_rows(9, 9, 10);  // destination aliases a source
    array.set_mode(Mode::kRam);
    const auto sum = array.read_row_i8(9);
    for (std::size_t l = 0; l < n; ++l)
      EXPECT_EQ(sum[l], util::sat_add_i8(a[l], b[l])) << "lane " << l;

    std::vector<std::int32_t> short_acc(n - 1, 0);
    EXPECT_THROW(array.peek_accumulate(9, short_acc), Error);
    EXPECT_THROW(array.peek_accumulate(11, peeked), Error);   // never written
    EXPECT_THROW(array.peek_accumulate(256, peeked), Error);  // out of range
  }
}

}  // namespace
}  // namespace imars
