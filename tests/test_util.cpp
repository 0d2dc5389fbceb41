// Unit + property tests for the util module: RNG, BitVec, quantization,
// statistics, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/bitvec.hpp"
#include "util/error.hpp"
#include "util/flat_map.hpp"
#include "util/quant.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace imars {
namespace {

using util::BitVec;

// ---------- RNG -----------------------------------------------------------

TEST(Rng, SplitMixIsDeterministic) {
  util::SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixDiffersAcrossSeeds) {
  util::SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, Hash64IsStable) {
  EXPECT_EQ(util::hash64(7, 9), util::hash64(7, 9));
  EXPECT_NE(util::hash64(7, 9), util::hash64(7, 10));
  EXPECT_NE(util::hash64(8, 9), util::hash64(7, 9));
}

TEST(Rng, XoshiroUniformRange) {
  util::Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, XoshiroUniformMeanApproxHalf) {
  util::Xoshiro256 rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, XoshiroBelowIsInRange) {
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, XoshiroBelowCoversAllValues) {
  util::Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsApproxStandard) {
  util::Xoshiro256 rng(11);
  util::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  util::Xoshiro256 rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// ---------- BitVec --------------------------------------------------------

TEST(BitVec, StartsAllZero) {
  BitVec v(300);
  EXPECT_EQ(v.size(), 300u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, SetGetFlipRoundTrip) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);   // word boundary
  v.set(129, true);  // last bit
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, FromStringMatchesToString) {
  const std::string s = "1010011100101";
  const BitVec v = BitVec::from_string(s);
  EXPECT_EQ(v.to_string(), s);
  EXPECT_EQ(v.popcount(), 7u);
}

TEST(BitVec, FromStringRejectsNonBinary) {
  EXPECT_THROW(BitVec::from_string("10x1"), Error);
}

TEST(BitVec, FillSetsEverythingAndClearsTail) {
  BitVec v(70);
  v.fill(true);
  EXPECT_EQ(v.popcount(), 70u);
  // Tail bits beyond size must not leak into popcount via operator~.
  const BitVec w = ~v;
  EXPECT_EQ(w.popcount(), 0u);
}

TEST(BitVec, HammingAgainstManual) {
  const BitVec a = BitVec::from_string("110010");
  const BitVec b = BitVec::from_string("011011");
  EXPECT_EQ(a.hamming(b), 3u);
  EXPECT_EQ(a.hamming(a), 0u);
}

TEST(BitVec, HammingSizeMismatchThrows) {
  EXPECT_THROW(BitVec(8).hamming(BitVec(9)), Error);
}

TEST(BitVec, XorEqualsHammingPopcount) {
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    BitVec a(257), b(257);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a.set(i, rng.bernoulli(0.5));
      b.set(i, rng.bernoulli(0.5));
    }
    EXPECT_EQ((a ^ b).popcount(), a.hamming(b));
  }
}

TEST(BitVec, AndOrDeMorgan) {
  util::Xoshiro256 rng(4);
  BitVec a(100), b(100);
  for (std::size_t i = 0; i < 100; ++i) {
    a.set(i, rng.bernoulli(0.5));
    b.set(i, rng.bernoulli(0.5));
  }
  EXPECT_EQ(~(a & b), (~a | ~b));
  EXPECT_EQ(~(a | b), (~a & ~b));
}

TEST(BitVec, ByteRoundTrip) {
  // Every offset, word-straddling ones (e.g. 60) included, against a
  // reference built from get(); set_byte must leave the other bits alone.
  const std::size_t nbits = 200;
  util::Xoshiro256 rng(11);
  BitVec v(nbits);
  for (std::size_t i = 0; i < nbits; ++i) v.set(i, rng.bernoulli(0.5));
  for (std::size_t begin = 0; begin + 8 <= nbits; ++begin) {
    std::uint8_t expected = 0;
    for (std::size_t b = 0; b < 8; ++b)
      if (v.get(begin + b)) expected |= static_cast<std::uint8_t>(1u << b);
    EXPECT_EQ(v.byte_at(begin), expected) << "offset " << begin;

    for (int x : {0, 1, 127, 128, 200, 255}) {
      BitVec w = v;
      w.set_byte(begin, static_cast<std::uint8_t>(x));
      EXPECT_EQ(w.byte_at(begin), static_cast<std::uint8_t>(x));
      for (std::size_t i = 0; i < nbits; ++i) {
        const bool want = (i >= begin && i < begin + 8)
                              ? ((x >> (i - begin)) & 1) != 0
                              : v.get(i);
        ASSERT_EQ(w.get(i), want) << "offset " << begin << " bit " << i;
      }
    }
  }
}

TEST(BitVec, CopyFromMatchesBitwiseReference) {
  util::Xoshiro256 rng(12);
  BitVec src(300);
  for (std::size_t i = 0; i < src.size(); ++i) src.set(i, rng.bernoulli(0.5));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.below(200);
    const std::size_t src_begin = rng.below(src.size() - len + 1);
    BitVec dst(260);
    for (std::size_t i = 0; i < dst.size(); ++i)
      dst.set(i, rng.bernoulli(0.5));
    const std::size_t dst_begin = rng.below(dst.size() - len + 1);
    BitVec expected = dst;
    for (std::size_t i = 0; i < len; ++i)
      expected.set(dst_begin + i, src.get(src_begin + i));
    dst.copy_from(src, src_begin, len, dst_begin);
    ASSERT_EQ(dst, expected) << "len " << len << " src " << src_begin
                             << " dst " << dst_begin;
  }
  // A self-copy reads the source range before overwriting it.
  BitVec self = BitVec::from_string("1100101100");
  self.copy_from(self, 0, 8, 2);
  EXPECT_EQ(self.to_string(), "1111001011");
}

TEST(BitVec, SliceAndCopyFrom) {
  const BitVec v = BitVec::from_string("11001010");
  const BitVec s = v.slice(2, 4);
  EXPECT_EQ(s.to_string(), "0010");
  BitVec d(10);
  d.copy_from(v, 0, 8, 1);
  EXPECT_EQ(d.to_string(), "0110010100");
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(16);
  EXPECT_THROW(v.get(16), Error);
  EXPECT_THROW(v.set(100, true), Error);
  EXPECT_THROW(v.slice(10, 8), Error);
  EXPECT_THROW(v.byte_at(9), Error);
}

TEST(BitVec, FromWordsUsesLowBits) {
  const std::uint64_t words[2] = {0xFFULL, 0x1ULL};
  const BitVec v = BitVec::from_words(words, 66);
  EXPECT_EQ(v.popcount(), 9u);
  EXPECT_TRUE(v.get(64));
  EXPECT_FALSE(v.get(65));
}

// ---------- Quantization ---------------------------------------------------

TEST(Quant, ChooseSymmetricMapsMaxTo127) {
  const float xs[] = {-2.0f, 0.5f, 1.0f};
  const auto p = util::choose_symmetric(xs);
  EXPECT_FLOAT_EQ(p.scale, 2.0f / 127.0f);
  EXPECT_EQ(p.quantize(-2.0f), -127);
  EXPECT_EQ(p.quantize(2.0f), 127);
}

TEST(Quant, ZeroInputGetsUnitScale) {
  const std::vector<float> xs(4, 0.0f);
  const auto p = util::choose_symmetric(xs);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
  EXPECT_EQ(p.quantize(0.0f), 0);
}

TEST(Quant, RoundTripErrorBounded) {
  util::Xoshiro256 rng(21);
  std::vector<float> xs(256);
  for (auto& x : xs) x = static_cast<float>(rng.uniform(-3.0, 3.0));
  const auto p = util::choose_symmetric(xs);
  const auto q = util::quantize(xs, p);
  const auto back = util::dequantize(q, p);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(back[i], xs[i], p.scale * 0.5f + 1e-6f);
  }
}

TEST(Quant, SaturatingAddClamps) {
  EXPECT_EQ(util::sat_add_i8(100, 100), 127);
  EXPECT_EQ(util::sat_add_i8(-100, -100), -127);
  EXPECT_EQ(util::sat_add_i8(50, -20), 30);
}

TEST(Quant, SatCastSymmetricRange) {
  EXPECT_EQ(util::sat_cast_i8(1000), 127);
  EXPECT_EQ(util::sat_cast_i8(-1000), -127);
  EXPECT_EQ(util::sat_cast_i8(-127), -127);
  EXPECT_EQ(util::sat_cast_i8(5), 5);
}

// ---------- Stats -----------------------------------------------------------

TEST(Stats, RunningStatsMatchesClosedForm) {
  util::RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 50), 2.5);
}

TEST(Stats, PercentileRejectsBadInput) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(util::percentile({}, 50), Error);
  EXPECT_THROW(util::percentile(xs, 101), Error);
}

// Tiny-sample audit: the interpolated rank p/100 * (n-1) stays inside
// [0, n-1] for every p in [0, 100], so high percentiles on the small
// streams the CI quick benches produce can never index past the sorted
// vector nor return 0 for a non-zero sample.
TEST(Stats, PercentileTinySamplesNeverEscapeTheData) {
  const std::vector<double> one = {7.5};
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(util::percentile(one, p), 7.5) << "p=" << p;

  const std::vector<double> two = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(util::percentile(two, 99), 19.9);
  EXPECT_DOUBLE_EQ(util::percentile(two, 100), 20.0);

  // For any small n, every percentile lies within [min, max] and p99 sits
  // in the top inter-sample gap (never truncated to a lower sample).
  for (std::size_t n = 1; n <= 99; ++n) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i)
      xs.push_back(static_cast<double>(i + 1));
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
      const double v = util::percentile(xs, p);
      EXPECT_GE(v, 1.0) << "n=" << n << " p=" << p;
      EXPECT_LE(v, static_cast<double>(n)) << "n=" << n << " p=" << p;
    }
    if (n >= 2) {
      EXPECT_GT(util::percentile(xs, 99), static_cast<double>(n - 1));
      EXPECT_GE(util::percentile(xs, 99), util::percentile(xs, 95));
    }
  }
}

// Randomized equivalence of the two percentile implementations: the
// nth_element-based percentile_select must return bit-identical values to
// the sort-based percentile on arbitrary streams. Heavy ties and
// duplicates are the adversarial case — a selection that mishandles equal
// elements around the interpolation rank diverges exactly there.
TEST(Stats, PercentileSelectMatchesSortOnHeavyTieStreams) {
  util::Xoshiro256 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.below(257);
    // Draw from a tiny value alphabet so long runs of ties straddle every
    // interpolation rank; a few trials use a wider alphabet as control.
    const std::uint64_t alphabet = (trial % 4 == 0) ? 1000 : 1 + rng.below(5);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      xs.push_back(static_cast<double>(rng.below(alphabet)) * 0.25);
    for (double p : {0.0, 100.0, 50.0, 95.0, 99.0}) {
      const double want = util::percentile(xs, p);
      std::vector<double> scratch = xs;  // percentile_select reorders
      const double got = util::percentile_select(scratch, p);
      EXPECT_DOUBLE_EQ(got, want)
          << "trial=" << trial << " n=" << n << " alphabet=" << alphabet
          << " p=" << p;
    }
  }
}

// ---------- FlatMap64 -------------------------------------------------------

TEST(FlatMap64, PointOperationsMatchReferenceMapUnderChurn) {
  util::FlatMap64 map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.below(512);  // force collisions + reuse
    switch (rng.below(4)) {
      case 0:
        ++map[key];
        ++ref[key];
        break;
      case 1:
        map.set(key, key * 3);
        ref[key] = key * 3;
        break;
      case 2:
        EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
        break;
      default: {
        const std::uint64_t* slot = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(slot != nullptr, it != ref.end());
        if (slot != nullptr) EXPECT_EQ(*slot, it->second);
        break;
      }
    }
    EXPECT_EQ(map.size(), ref.size());
  }
}

// Regression for the pointer-invalidation hazard: pointers returned by
// find()/operator[] are silently invalidated by any insert that rehashes
// and by any successful erase (backward-shift deletion moves survivors).
// generation() must tick on exactly those operations so callers holding a
// pointer across them (hot_cache.cpp's access()) can assert validity.
TEST(FlatMap64, GenerationTicksOnRehashAndEraseOnly) {
  util::FlatMap64 map;
  map.set(1, 10);  // initial rehash(64)
  const std::uint64_t after_first = map.generation();
  EXPECT_GE(after_first, 1u);

  // Non-rehashing mutations keep every pointer valid: the generation must
  // hold still. Initial capacity 64 rehashes above 48 entries.
  std::uint64_t gen = map.generation();
  for (std::uint64_t k = 2; k <= 40; ++k) map[k] = k;
  map.set(1, 11);            // overwrite: no structural change
  (void)map.find(7);         // lookups never mutate
  EXPECT_EQ(map.generation(), gen);

  // Growth past 3/4 load rehashes and bumps the generation.
  for (std::uint64_t k = 41; k <= 60; ++k) map[k] = k;
  EXPECT_GT(map.generation(), gen);

  // A successful erase bumps it (survivors may backward-shift)...
  gen = map.generation();
  EXPECT_TRUE(map.erase(17));
  EXPECT_EQ(map.generation(), gen + 1);
  // ...a failed erase does not (nothing moved).
  EXPECT_FALSE(map.erase(17));
  EXPECT_EQ(map.generation(), gen + 1);
}

// The documented safe pattern in hot_cache.cpp: a value reference from
// operator[] stays valid across finds and erases on OTHER containers, and
// the generation check proves it for any given interleaving.
TEST(FlatMap64, HeldReferenceSurvivesNonMutatingProbes) {
  util::FlatMap64 map;
  for (std::uint64_t k = 0; k < 30; ++k) map[k] = k;
  std::uint64_t& slot = map[5];
  const std::uint64_t gen = map.generation();
  (void)map.find(11);
  (void)map.contains(29);
  ASSERT_EQ(map.generation(), gen);  // still safe to dereference
  slot = 123;
  EXPECT_EQ(*map.find(5), 123u);
}

TEST(FlatSet64, InsertEraseContains) {
  util::FlatSet64 set;
  EXPECT_TRUE(set.empty());
  set.insert(42);
  set.insert(42);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(42));
  EXPECT_FALSE(set.contains(7));
  EXPECT_TRUE(set.erase(42));
  EXPECT_FALSE(set.erase(42));
  EXPECT_TRUE(set.empty());
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(util::pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg(ys);
  for (auto& y : neg) y = -y;
  EXPECT_NEAR(util::pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, SpearmanRobustToMonotoneTransform) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(std::exp(x));  // monotone, nonlinear
  EXPECT_NEAR(util::spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, AucPerfectAndRandom) {
  const std::vector<int> labels = {0, 0, 1, 1};
  const std::vector<double> good = {0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(util::auc(labels, good), 1.0);
  const std::vector<double> inverted = {0.9, 0.8, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(util::auc(labels, inverted), 0.0);
}

TEST(Stats, AucDegenerateLabelsGiveHalf) {
  const std::vector<int> labels = {1, 1};
  const std::vector<double> scores = {0.1, 0.9};
  EXPECT_DOUBLE_EQ(util::auc(labels, scores), 0.5);
}

// ---------- Table -----------------------------------------------------------

TEST(Table, RendersHeaderAndRows) {
  util::Table t("Demo");
  t.header({"A", "B"}).row({"1", "22"}).separator().row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("| A "), std::string::npos);
  EXPECT_NE(s.find("| 333 |"), std::string::npos);
}

TEST(Table, RowBeforeHeaderThrows) {
  util::Table t("x");
  EXPECT_THROW(t.row({"1"}), Error);
}

TEST(Table, NumTrimsTrailingZeros) {
  EXPECT_EQ(util::Table::num(1.5, 3), "1.5");
  EXPECT_EQ(util::Table::num(2.0, 2), "2");
  EXPECT_EQ(util::Table::num(0.125, 2), "0.12");  // round-half-to-even
}

TEST(Table, FactorUsesScientificForHuge) {
  EXPECT_EQ(util::Table::factor(16.8), "16.8x");
  const std::string f = util::Table::factor(38000.0);
  EXPECT_NE(f.find("e+"), std::string::npos);
}

}  // namespace
}  // namespace imars
