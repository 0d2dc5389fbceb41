// Tests for the functional iMARS machine: table loading, pooled lookups vs
// an integer oracle, the TCAM NNS vs brute force, CTR-buffer top-k, timing
// modes and energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>
#include <string>

#include "core/accelerator.hpp"
#include "core/calibration.hpp"
#include "lsh/lsh.hpp"
#include "nn/mlp.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "xbar/xbar_mlp.hpp"

namespace imars {
namespace {

using core::ArchConfig;
using core::ImarsAccelerator;
using core::LookupRequest;
using core::TimingMode;
using device::Component;
using device::DeviceProfile;
using tensor::Matrix;
using tensor::QMatrix;

QMatrix random_table(std::size_t rows, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return QMatrix::quantize(Matrix::randn(rows, 32, 0.5f, rng));
}

struct Fixture {
  DeviceProfile profile = DeviceProfile::fefet45();
  ArchConfig arch;
  ImarsAccelerator acc{arch, profile};
};

TEST(Accelerator, GeometryChecks) {
  DeviceProfile profile = DeviceProfile::fefet45();
  ArchConfig bad;
  bad.cma_rows = 128;  // mismatch with profile
  EXPECT_THROW(ImarsAccelerator(bad, profile), Error);

  ArchConfig bad2;
  bad2.lsh_bits = 512;  // functional machine caps at one CMA width
  EXPECT_THROW(ImarsAccelerator(bad2, profile), Error);
}

TEST(Accelerator, LoadUietCensus) {
  Fixture f;
  const auto t0 = f.acc.load_uiet("small", random_table(100, 1));
  const auto t1 = f.acc.load_uiet("big", random_table(6040, 2));
  EXPECT_EQ(t0, 0u);
  EXPECT_EQ(t1, 1u);
  EXPECT_EQ(f.acc.table_count(), 2u);
  EXPECT_EQ(f.acc.table_rows(0), 100u);
  EXPECT_EQ(f.acc.table_rows(1), 6040u);
  EXPECT_EQ(f.acc.active_banks(), 2u);
  EXPECT_EQ(f.acc.active_cmas(), 1u + 24u);  // ceil(100/256) + ceil(6040/256)
  EXPECT_EQ(f.acc.active_mats(), 2u);
}

TEST(Accelerator, LoadRejectsOversize) {
  Fixture f;
  // One bank holds M*C*R = 4*32*256 = 32768 rows.
  EXPECT_THROW(f.acc.load_uiet("huge", random_table(40000, 3)), Error);
}

TEST(Accelerator, LoadRejectsWrongDim) {
  Fixture f;
  util::Xoshiro256 rng(4);
  const QMatrix narrow = QMatrix::quantize(Matrix::randn(10, 16, 1.0f, rng));
  EXPECT_THROW(f.acc.load_uiet("narrow", narrow), Error);
}

TEST(Accelerator, OutOfBanksThrows) {
  DeviceProfile profile = DeviceProfile::fefet45();
  ArchConfig arch;
  arch.banks = 1;
  ImarsAccelerator acc(arch, profile);
  acc.load_uiet("a", random_table(10, 5));
  EXPECT_THROW(acc.load_uiet("b", random_table(10, 6)), Error);
}

// ---------- lookup + pool ----------------------------------------------------

TEST(Accelerator, SingleLookupMatchesTable) {
  Fixture f;
  const QMatrix table = random_table(500, 7);
  const auto id = f.acc.load_uiet("t", table);
  f.acc.reset_energy();

  for (std::size_t row : {0ul, 255ul, 256ul, 499ul}) {
    const LookupRequest req{id, {row}, false};
    recsys::OpCost cost;
    const auto out = f.acc.lookup_pooled(std::span(&req, 1),
                                         TimingMode::kActualPlacement, &cost);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0].scale, table.params().scale);
    for (std::size_t c = 0; c < 32; ++c)
      EXPECT_EQ(out[0].lanes[c], static_cast<std::int32_t>(table.at(row, c)));
    EXPECT_GT(cost.latency.value, 0.0);
    EXPECT_GT(cost.energy.value, 0.0);
  }
}

TEST(Accelerator, PooledLookupEqualsIntegerSum) {
  Fixture f;
  const QMatrix table = random_table(1000, 8);
  const auto id = f.acc.load_uiet("t", table);

  util::Xoshiro256 rng(9);
  std::vector<std::size_t> indices;
  for (int i = 0; i < 17; ++i) indices.push_back(rng.below(1000));

  const LookupRequest req{id, indices, true};
  const auto out = f.acc.lookup_pooled(std::span(&req, 1),
                                       TimingMode::kActualPlacement, nullptr);
  std::vector<std::int32_t> expected(32, 0);
  for (auto idx : indices)
    for (std::size_t c = 0; c < 32; ++c)
      expected[c] += static_cast<std::int32_t>(table.at(idx, c));
  EXPECT_EQ(out[0].lanes, expected);
  EXPECT_EQ(out[0].count, indices.size());
  EXPECT_TRUE(out[0].mean_pool);

  // Dequantized mean = scale * sum / n.
  const auto v = out[0].dequantized();
  EXPECT_NEAR(v[0],
              table.params().scale * static_cast<float>(expected[0]) / 17.0f,
              1e-6f);
}

TEST(Accelerator, MultiBankLatencyIsMaxPlusBus) {
  Fixture f;
  const auto id0 = f.acc.load_uiet("a", random_table(300, 10));
  const auto id1 = f.acc.load_uiet("b", random_table(300, 11));
  f.acc.reset_energy();

  const std::vector<LookupRequest> one = {{id0, {5}, false}};
  recsys::OpCost c1;
  (void)f.acc.lookup_pooled(one, TimingMode::kActualPlacement, &c1);

  const std::vector<LookupRequest> two = {{id0, {5}, false}, {id1, {7}, false}};
  recsys::OpCost c2;
  (void)f.acc.lookup_pooled(two, TimingMode::kActualPlacement, &c2);

  // Banks in parallel: two banks cost only one extra RSC beat, not 2x.
  EXPECT_LT(c2.latency.value, 1.5 * c1.latency.value);
  EXPECT_GT(c2.latency.value, c1.latency.value);
}

TEST(Accelerator, WorstCaseTimingDominatesActual) {
  Fixture f;
  const auto id = f.acc.load_uiet("t", random_table(2000, 12));
  // Spread indices across CMAs: actual placement parallelizes them, the
  // worst-case model serializes read+write+add chains.
  std::vector<std::size_t> indices = {0, 300, 600, 900, 1200, 1500, 1800, 1999};
  const LookupRequest req{id, indices, true};

  recsys::OpCost actual, worst;
  (void)f.acc.lookup_pooled(std::span(&req, 1), TimingMode::kActualPlacement,
                            &actual);
  (void)f.acc.lookup_pooled(std::span(&req, 1),
                            TimingMode::kWorstCaseSameArray, &worst);
  EXPECT_GT(worst.latency.value, actual.latency.value);

  // Functional result is identical in both modes.
  const auto a = f.acc.lookup_pooled(std::span(&req, 1),
                                     TimingMode::kActualPlacement, nullptr);
  const auto w = f.acc.lookup_pooled(std::span(&req, 1),
                                     TimingMode::kWorstCaseSameArray, nullptr);
  EXPECT_EQ(a[0].lanes, w[0].lanes);
}

TEST(Accelerator, LookupOutOfRangeThrows) {
  Fixture f;
  const auto id = f.acc.load_uiet("t", random_table(100, 13));
  const LookupRequest req{id, {100}, false};
  EXPECT_THROW((void)f.acc.lookup_pooled(std::span(&req, 1),
                                         TimingMode::kActualPlacement, nullptr),
               Error);
  const LookupRequest empty{id, {}, false};
  EXPECT_THROW((void)f.acc.lookup_pooled(std::span(&empty, 1),
                                         TimingMode::kActualPlacement, nullptr),
               Error);
}

TEST(Accelerator, PeripheralEnergyScalesWithActiveArrays) {
  Fixture f;
  const auto small = f.acc.load_uiet("small", random_table(100, 14));   // 1 CMA
  const auto big = f.acc.load_uiet("big", random_table(6000, 15));      // 24 CMAs
  f.acc.reset_energy();

  const LookupRequest rs{small, {3}, false};
  recsys::OpCost cs;
  (void)f.acc.lookup_pooled(std::span(&rs, 1), TimingMode::kActualPlacement, &cs);

  const LookupRequest rb{big, {3}, false};
  recsys::OpCost cb;
  (void)f.acc.lookup_pooled(std::span(&rb, 1), TimingMode::kActualPlacement, &cb);

  // Same op on a 24x bigger table costs ~24x the peripheral energy.
  EXPECT_GT(cb.energy.value, 10.0 * cs.energy.value);
}

TEST(Accelerator, ReadRowMatchesTable) {
  Fixture f;
  const QMatrix table = random_table(700, 16);
  const auto id = f.acc.load_uiet("t", table);
  recsys::OpCost cost;
  const auto out = f.acc.read_row(id, 650, &cost);
  for (std::size_t c = 0; c < 32; ++c)
    EXPECT_EQ(out.lanes[c], static_cast<std::int32_t>(table.at(650, c)));
  EXPECT_GT(cost.latency.value, 0.0);
  EXPECT_THROW((void)f.acc.read_row(id, 700, nullptr), Error);
}

// ---------- NNS ----------------------------------------------------------------

TEST(Accelerator, NnsMatchesBruteForceHamming) {
  Fixture f;
  const QMatrix table = random_table(900, 17);
  const lsh::RandomHyperplaneLsh hasher(32, 256, 99);
  const Matrix deq = table.dequantize();
  std::vector<util::BitVec> sigs;
  for (std::size_t r = 0; r < deq.rows(); ++r)
    sigs.push_back(hasher.encode(deq.row(r)));
  const auto id = f.acc.load_itet("ItET", table, sigs);
  f.acc.reset_energy();

  util::Xoshiro256 rng(18);
  for (std::size_t radius : {64ul, 96ul, 120ul}) {
    tensor::Vector q(32);
    for (auto& x : q) x = static_cast<float>(rng.normal());
    const auto qsig = hasher.encode(q);

    recsys::OpCost cost;
    const auto got = f.acc.nns(id, qsig, radius, &cost);
    const auto expected = [&] {
      std::vector<std::size_t> out;
      for (std::size_t r = 0; r < sigs.size(); ++r)
        if (sigs[r].hamming(qsig) <= radius) out.push_back(r);
      return out;
    }();
    EXPECT_EQ(got, expected) << "radius " << radius;
    // O(1) search: latency is search + encode, independent of row count.
    EXPECT_LT(cost.latency.value, 2.0);
  }
}

TEST(Accelerator, NnsRequiresSignatures) {
  Fixture f;
  const auto id = f.acc.load_uiet("t", random_table(100, 19));
  EXPECT_THROW((void)f.acc.nns(id, util::BitVec(256), 10, nullptr), Error);
}

TEST(Accelerator, NnsEnergyCountsAllSignatureArrays) {
  Fixture f;
  const QMatrix table = random_table(900, 20);  // 4 data CMAs -> 4 sig CMAs
  const lsh::RandomHyperplaneLsh hasher(32, 256, 98);
  const Matrix deq = table.dequantize();
  std::vector<util::BitVec> sigs;
  for (std::size_t r = 0; r < deq.rows(); ++r)
    sigs.push_back(hasher.encode(deq.row(r)));
  const auto id = f.acc.load_itet("ItET", table, sigs);
  f.acc.reset_energy();

  recsys::OpCost cost;
  (void)f.acc.nns(id, sigs[0], 5, &cost);
  // 4 searched arrays at 13.8 pJ each, plus periphery.
  EXPECT_GE(cost.energy.value, 4 * 13.8);
  EXPECT_EQ(f.acc.ledger().ops(Component::kCmaSearch), 4u);
}

// ---------- top-k -----------------------------------------------------------------

TEST(Accelerator, TopkCtrSelectsHighestScores) {
  Fixture f;
  const std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.7f, 0.2f, 0.95f};
  recsys::OpCost cost;
  const auto top = f.acc.topk_ctr(scores, 3, &cost);
  EXPECT_EQ(top, (std::vector<std::size_t>{5, 1, 3}));
  EXPECT_GT(cost.latency.value, 0.0);
}

TEST(Accelerator, TopkCtrHandlesKLargerThanN) {
  Fixture f;
  const std::vector<float> scores = {0.3f, 0.6f};
  const auto top = f.acc.topk_ctr(scores, 10, nullptr);
  EXPECT_EQ(top, (std::vector<std::size_t>{1, 0}));
}

TEST(Accelerator, TopkCtrRejectsOversizedBatch) {
  Fixture f;
  const std::vector<float> scores(300, 0.5f);  // > 256 CTR-buffer rows
  EXPECT_THROW((void)f.acc.topk_ctr(scores, 5, nullptr), Error);
}

TEST(Accelerator, TopkCtrQuantizedTiesKeepIndexOrder) {
  Fixture f;
  // Scores closer than 1/256 quantize to the same thermometer code; the
  // final host-side sort on raw scores still orders them deterministically.
  const std::vector<float> scores = {0.5f, 0.5f + 1e-6f, 0.4f};
  const auto top = f.acc.topk_ctr(scores, 2, nullptr);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 0u);
}

TEST(Accelerator, TopkCtrThermometerFillsWholeWords) {
  Fixture f;
  // Scores whose thermometer codes end exactly on a 64-bit word boundary
  // (64/128/192/256 ones), each next to a slightly lower score.
  const std::vector<float> scores = {0.25f, 0.2f, 0.5f,  0.45f,
                                     0.75f, 0.7f, 1.0f, 0.95f};
  std::vector<std::size_t> by_score(scores.size());
  std::iota(by_score.begin(), by_score.end(), 0);
  std::sort(by_score.begin(), by_score.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
  for (std::size_t k = 1; k <= scores.size(); ++k) {
    const std::vector<std::size_t> expected(by_score.begin(),
                                            by_score.begin() + k);
    EXPECT_EQ(f.acc.topk_ctr(scores, k, nullptr), expected) << "k " << k;
  }
}

// The CTR buffer persists across queries: a ranking over fewer candidates
// than the previous one leaves stale rows behind, which must never drain
// into its result.
TEST(Accelerator, TopkCtrIgnoresStaleRowsOfALargerPass) {
  Fixture f;
  util::Xoshiro256 rng(35);
  std::vector<float> big(200);
  for (auto& s : big) s = static_cast<float>(rng.uniform());
  big[150] = 1.0f;  // a stale row that would beat every live one
  (void)f.acc.topk_ctr(big, 20, nullptr);

  const std::vector<float> small = {0.2f, 0.6f, 0.1f, 0.4f, 0.3f};
  std::vector<std::size_t> want(small.size());
  std::iota(want.begin(), want.end(), 0);
  std::sort(want.begin(), want.end(), [&](std::size_t a, std::size_t b) {
    if (small[a] != small[b]) return small[a] > small[b];
    return a < b;
  });
  want.resize(3);
  EXPECT_EQ(f.acc.topk_ctr(small, 3, nullptr), want);
}

TEST(Accelerator, ResetEnergyClearsLedger) {
  Fixture f;
  (void)f.acc.load_uiet("t", random_table(100, 21));
  EXPECT_GT(f.acc.ledger().total().value, 0.0);
  f.acc.reset_energy();
  EXPECT_DOUBLE_EQ(f.acc.ledger().total().value, 0.0);
}

// ---------- charge pinning ---------------------------------------------------
//
// The functional kernels (TCAM search, lane pooling, crossbar gemv) may be
// rewritten for host speed, but what they charge is part of the model. These
// golden values were recorded with the bit-at-a-time kernels; every op below
// must reproduce its OpCost latency, OpCost energy, ledger total and
// per-component op counts exactly (not within a tolerance).

struct Charges {
  std::string op;
  double latency_ns;
  double energy_pj;
  double ledger_pj;
  std::array<std::size_t, static_cast<std::size_t>(Component::kCount)> ops;
};

Charges charges_of(const std::string& op, const recsys::OpCost& cost,
                   const device::EnergyLedger& ledger) {
  Charges c{op, cost.latency.value, cost.energy.value, ledger.total().value,
            {}};
  for (std::size_t i = 0; i < c.ops.size(); ++i)
    c.ops[i] = ledger.ops(static_cast<Component>(i));
  return c;
}

// C++ initializer for `c`, round-trip exact, for re-pinning on purpose.
std::string initializer(const Charges& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"%s\", %.17g, %.17g, %.17g, {",
                c.op.c_str(), c.latency_ns, c.energy_pj, c.ledger_pj);
  std::string s = buf;
  for (std::size_t i = 0; i < c.ops.size(); ++i)
    s += (i ? ", " : "") + std::to_string(c.ops[i]);
  return s + "}},";
}

// Every op runs on a freshly reset ledger, so each record is that op alone.
std::vector<Charges> measure_charges() {
  std::vector<Charges> out;
  const DeviceProfile profile = DeviceProfile::fefet45();
  const lsh::RandomHyperplaneLsh hasher(32, 256, 77);
  for (const auto placement :
       {core::RowPlacement::kSequential, core::RowPlacement::kStriped}) {
    const std::string tag =
        placement == core::RowPlacement::kSequential ? "seq." : "striped.";
    ArchConfig arch;
    arch.placement = placement;
    ImarsAccelerator acc(arch, profile);
    const auto uiet = acc.load_uiet("u", random_table(700, 31));
    const QMatrix items = random_table(900, 32);
    const Matrix deq = items.dequantize();
    std::vector<util::BitVec> sigs;
    for (std::size_t r = 0; r < deq.rows(); ++r)
      sigs.push_back(hasher.encode(deq.row(r)));
    const auto itet = acc.load_itet("i", items, sigs);

    // Duplicates and same-array collisions under both placements.
    const std::vector<LookupRequest> reqs = {
        {uiet, {3, 3, 17, 256, 300, 511, 512, 699, 4, 5, 6, 258}, true},
        {itet, {0, 1, 255, 256, 899}, false}};
    for (const auto mode :
         {TimingMode::kActualPlacement, TimingMode::kWorstCaseSameArray}) {
      acc.reset_energy();
      recsys::OpCost cost;
      (void)acc.lookup_pooled(reqs, mode, &cost);
      out.push_back(charges_of(
          tag + (mode == TimingMode::kActualPlacement ? "lookup.actual"
                                                      : "lookup.worst"),
          cost, acc.ledger()));
    }

    tensor::Vector q(32);
    util::Xoshiro256 rng(33);
    for (auto& x : q) x = static_cast<float>(rng.normal());
    const util::BitVec qsig = hasher.encode(q);
    {
      acc.reset_energy();
      recsys::OpCost cost;
      (void)acc.nns(itet, qsig, 100, &cost);
      out.push_back(charges_of(tag + "nns", cost, acc.ledger()));
    }
    {
      acc.reset_energy();
      recsys::OpCost cost;
      (void)acc.nns_topk(itet, qsig, 10, &cost);
      out.push_back(charges_of(tag + "nns_topk", cost, acc.ledger()));
    }
    {
      std::vector<float> scores(40);
      for (auto& s : scores) s = static_cast<float>(rng.uniform());
      acc.reset_energy();
      recsys::OpCost cost;
      (void)acc.topk_ctr(scores, 8, &cost);
      out.push_back(charges_of(tag + "topk_ctr", cost, acc.ledger()));
    }
  }

  // Multi-tile layers with partial tiles, then a 1-wide output layer.
  device::EnergyLedger ledger;
  util::Xoshiro256 rng(34);
  nn::Mlp mlp({300, 130, 1}, nn::Activation::kSigmoid, rng);
  std::vector<tensor::Vector> calib(4, tensor::Vector(300));
  for (auto& v : calib)
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const xbar::XbarMlp qmlp(profile, &ledger, mlp, calib);
  ledger.clear();
  recsys::OpCost cost;
  (void)qmlp.infer(calib[0], &cost.latency);
  cost.energy = ledger.total();
  out.push_back(charges_of("xbar_mlp.infer", cost, ledger));
  return out;
}

// Op counts in device::Component order: cma_ram, cma_search, cma_add,
// mat_tree, bank_tree, crossbar, rsc_bus, ibc, controller, peripheral.
const std::vector<Charges> kGoldenCharges = {
    {"seq.lookup.actual", 119, 30316.400000000001, 30316.400000000001,
     {2, 0, 15, 2, 2, 0, 5, 2, 8, 11}},
    {"seq.lookup.worst",
     273.10000000000002, 31098.900000000001, 31098.900000000001,
     {32, 0, 15, 2, 2, 0, 5, 2, 4, 11}},
    {"seq.nns", 1.2, 1395.7, 1395.7,
     {0, 4, 0, 0, 0, 0, 0, 0, 1, 4}},
    {"seq.nns_topk", 9.5999999999999996, 11165.600000000002, 11165.6,
     {0, 32, 0, 0, 0, 0, 0, 0, 8, 32}},
    {"seq.topk_ctr", 403.60000000000002, 2422.3999999999987, 2422.3999999999987,
     {40, 8, 0, 0, 0, 0, 1, 0, 2, 1}},
    {"striped.lookup.actual", 119, 30421.200000000001, 30421.200000000001,
     {1, 0, 16, 2, 2, 0, 5, 2, 8, 11}},
    {"striped.lookup.worst",
     273.10000000000002, 31098.900000000001, 31098.900000000001,
     {32, 0, 15, 2, 2, 0, 5, 2, 4, 11}},
    {"striped.nns", 1.2, 1395.7, 1395.7,
     {0, 4, 0, 0, 0, 0, 0, 0, 1, 4}},
    {"striped.nns_topk", 9.5999999999999996, 11165.600000000002, 11165.6,
     {0, 32, 0, 0, 0, 0, 0, 0, 8, 32}},
    {"striped.topk_ctr",
     403.60000000000002, 2422.3999999999987, 2422.3999999999987,
     {40, 8, 0, 0, 0, 0, 1, 0, 2, 1}},
    {"xbar_mlp.infer", 1561, 669.5, 669.5,
     {0, 0, 0, 0, 0, 5, 0, 0, 1, 2}},
};

TEST(AcceleratorCharges, MatchGoldenExactly) {
  const auto got = measure_charges();
  std::string measured;
  for (const auto& c : got) measured += initializer(c) + "\n";
  ASSERT_EQ(got.size(), kGoldenCharges.size()) << "measured:\n" << measured;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Charges& want = kGoldenCharges[i];
    const Charges& have = got[i];
    SCOPED_TRACE(initializer(have));
    EXPECT_EQ(have.op, want.op);
    EXPECT_EQ(have.latency_ns, want.latency_ns);
    EXPECT_EQ(have.energy_pj, want.energy_pj);
    EXPECT_EQ(have.ledger_pj, want.ledger_pj);
    EXPECT_EQ(have.ops, want.ops);
  }
}

}  // namespace
}  // namespace imars
