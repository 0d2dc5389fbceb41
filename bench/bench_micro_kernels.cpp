// Hot-kernel microbenchmarks: host wall-clock cost of the functional
// simulator's inner loops (how fast the reproduction runs, not what the
// modeled hardware takes). Each kernel is first checked against a naive
// reference on the same inputs; any mismatch exits nonzero.
//
// Kernels: TCAM threshold search over a full 256x256 array, 32 GPCiM
// accumulates, full-tile and partial-tile crossbar gemv, a pooled 32-row
// ImarsAccelerator::lookup_pooled, one ranking-DNN inference that updates
// only the 32 item lanes of a prepared input (checked against a full
// XbarMlp::infer), and a 20-candidate CTR-buffer top-k over a buffer a
// 256-candidate pass left full (checked against a sort).
//
// Emits BENCH_kernels.json (bench/harness.hpp JsonReport): one record per
// kernel with its median ns/op over several timed batches.
// IMARS_BENCH_QUICK=1 runs 10x fewer repetitions.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cma/cma.hpp"
#include "core/accelerator.hpp"
#include "harness.hpp"
#include "nn/mlp.hpp"
#include "tensor/qtensor.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/xbar_mlp.hpp"

using namespace imars;

namespace {

std::uint64_t g_sink = 0;  // keeps timed results observable

/// Median ns per call of `op` over 5 batches of `reps` calls.
double ns_per_op(const std::function<void()>& op, std::size_t reps) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) op();
    const auto t1 = std::chrono::steady_clock::now();
    batches.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(reps));
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

util::BitVec random_bits(std::size_t n, util::Xoshiro256& rng, double p) {
  util::BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(p));
  return v;
}

std::int8_t random_i8(util::Xoshiro256& rng) {
  return static_cast<std::int8_t>(static_cast<int>(rng.below(256)) - 128);
}

struct Kernel {
  std::string name;
  bool matches = false;
  std::function<void()> op;
  std::size_t reps = 0;
};

Kernel bench_search(const device::DeviceProfile& profile,
                    device::EnergyLedger* ledger) {
  auto array = std::make_shared<cma::Cma>(profile, ledger);
  util::Xoshiro256 rng(2);
  std::vector<util::BitVec> rows, masks;
  for (std::size_t r = 0; r < array->rows(); ++r) {
    rows.push_back(random_bits(array->cols(), rng, 0.5));
    masks.push_back(random_bits(array->cols(), rng, 0.05));
    array->write_row(r, rows.back());
    for (std::size_t c = 0; c < array->cols(); ++c)
      if (masks.back().get(c)) array->set_dont_care(r, c, true);
  }
  array->set_mode(cma::Mode::kTcam);
  const util::BitVec query = random_bits(array->cols(), rng, 0.5);
  constexpr std::size_t kThreshold = 116;

  std::vector<std::size_t> expected;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::size_t mismatches = 0;
    for (std::size_t c = 0; c < array->cols(); ++c)
      if (!masks[r].get(c) && rows[r].get(c) != query.get(c)) ++mismatches;
    if (mismatches <= kThreshold) expected.push_back(r);
  }
  const auto got = array->search(query, kThreshold);
  return {"cma_search_256x256", got.matches == expected && !expected.empty(),
          [array, query] {
            g_sink += array->search(query, kThreshold).matches.size();
          },
          20000};
}

Kernel bench_accumulate(const device::DeviceProfile& profile,
                        device::EnergyLedger* ledger) {
  auto array = std::make_shared<cma::Cma>(profile, ledger);
  util::Xoshiro256 rng(3);
  const std::size_t lanes = array->cols() / 8;
  std::vector<std::int32_t> expected(lanes, 0);
  for (std::size_t r = 0; r < 32; ++r) {
    std::vector<std::int8_t> row(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      row[l] = random_i8(rng);
      expected[l] += row[l];
    }
    array->write_row_i8(r, row);
  }
  array->set_mode(cma::Mode::kGpcim);
  std::vector<std::int32_t> acc(lanes, 0);
  for (std::size_t r = 0; r < 32; ++r) array->accumulate(r, acc);
  return {"cma_accumulate_x32", acc == expected,
          [array, acc]() mutable {
            for (std::size_t r = 0; r < 32; ++r) array->accumulate(r, acc);
            g_sink += static_cast<std::uint64_t>(acc[0]);
          },
          50000};
}

Kernel bench_gemv(const std::string& name,
                  const device::DeviceProfile& profile,
                  device::EnergyLedger* ledger, std::size_t block_rows,
                  std::size_t block_cols, std::uint64_t seed) {
  auto xb = std::make_shared<xbar::Crossbar>(profile, ledger);
  util::Xoshiro256 rng(seed);
  tensor::QMatrix w(block_rows, block_cols, util::QuantParams{1.0f});
  for (std::size_t r = 0; r < block_rows; ++r)
    for (std::size_t c = 0; c < block_cols; ++c) w.at(r, c) = random_i8(rng);
  xb->load_weights(w);
  std::vector<std::int8_t> in(xb->rows());
  for (auto& v : in) v = random_i8(rng);

  // Every tile column: the programmed block's dot products, 0 elsewhere.
  std::vector<std::int32_t> expected(xb->cols(), 0);
  for (std::size_t c = 0; c < block_cols; ++c)
    for (std::size_t r = 0; r < block_rows; ++r)
      expected[c] += static_cast<std::int32_t>(w.at(r, c)) * in[r];
  return {name, xb->gemv(in, nullptr) == expected,
          [xb, in] {
            g_sink += static_cast<std::uint64_t>(xb->gemv(in, nullptr)[0]);
          },
          20000};
}

Kernel bench_lookup(const device::DeviceProfile& profile) {
  auto acc = std::make_shared<core::ImarsAccelerator>(core::ArchConfig{},
                                                      profile);
  util::Xoshiro256 rng(6);
  tensor::QMatrix table(3952, 32, util::QuantParams{0.01f});
  for (std::size_t r = 0; r < table.rows(); ++r)
    for (std::size_t c = 0; c < table.cols(); ++c)
      table.at(r, c) = random_i8(rng);
  core::LookupRequest req{acc->load_uiet("items", table), {}, false};
  std::vector<std::int32_t> expected(32, 0);
  for (int i = 0; i < 32; ++i) {
    req.indices.push_back(rng.below(table.rows()));
    for (std::size_t c = 0; c < 32; ++c)
      expected[c] += table.at(req.indices.back(), c);
  }
  const auto got = acc->lookup_pooled(
      std::span(&req, 1), core::TimingMode::kActualPlacement, nullptr);
  return {"lookup_pooled_32rows", got[0].lanes == expected,
          [acc, req] {
            recsys::OpCost cost;
            g_sink += acc->lookup_pooled(std::span(&req, 1),
                                         core::TimingMode::kActualPlacement,
                                         &cost)[0].count;
          },
          20000};
}

// The paper's ranking DNN (228 -> 128 -> 1): 5 pooled feature segments,
// the 32-lane item segment at lane 160, the history segment, 4 dense lanes.
Kernel bench_item_update(const device::DeviceProfile& profile,
                         device::EnergyLedger* ledger) {
  util::Xoshiro256 rng(7);
  const nn::Mlp mlp({228, 128, 1}, nn::Activation::kSigmoid, rng);
  auto random_input = [&rng] {
    tensor::Vector v(228);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
  };
  std::vector<tensor::Vector> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_input());
  auto dnn = std::make_shared<xbar::XbarMlp>(profile, ledger, mlp, calib);
  constexpr std::size_t kItemLo = 160;
  constexpr std::size_t kItemLen = 32;
  tensor::Vector x = random_input();
  auto prepared = std::make_shared<xbar::XbarMlp::PreparedInput>(
      dnn->prepare(x, kItemLo, kItemLen));
  const tensor::Vector item(x.begin() + kItemLo,
                            x.begin() + kItemLo + kItemLen);

  device::Ns full_lat{0.0}, item_lat{0.0};
  const auto full = dnn->infer(x, &full_lat);
  const auto got = dnn->infer(*prepared, item, &item_lat);
  return {"xbar_infer_item_update",
          got == full && item_lat.value == full_lat.value,
          [dnn, prepared, item] {
            g_sink += static_cast<std::uint64_t>(
                dnn->infer(*prepared, item, nullptr)[0] * 1e6f);
          },
          20000};
}

Kernel bench_topk_after_full(const device::DeviceProfile& profile) {
  auto acc = std::make_shared<core::ImarsAccelerator>(core::ArchConfig{},
                                                      profile);
  util::Xoshiro256 rng(8);
  std::vector<float> full(256);
  for (auto& s : full) s = static_cast<float>(rng.uniform());
  (void)acc->topk_ctr(full, 20, nullptr);  // leaves 256 rows in the buffer

  constexpr std::size_t kTop = 5;
  std::vector<float> scores(20);
  for (auto& s : scores) s = static_cast<float>(rng.uniform());
  std::vector<std::size_t> expected(scores.size());
  std::iota(expected.begin(), expected.end(), 0);
  std::sort(expected.begin(), expected.end(),
            [&](std::size_t a, std::size_t b) {
              if (scores[a] != scores[b]) return scores[a] > scores[b];
              return a < b;
            });
  expected.resize(kTop);
  return {"topk_ctr_20_after_256",
          acc->topk_ctr(scores, kTop, nullptr) == expected,
          [acc, scores] {
            g_sink += acc->topk_ctr(scores, kTop, nullptr)[0];
          },
          20000};
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const auto profile = device::DeviceProfile::fefet45();
  device::EnergyLedger ledger;

  std::vector<Kernel> kernels;
  kernels.push_back(bench_search(profile, &ledger));
  kernels.push_back(bench_accumulate(profile, &ledger));
  kernels.push_back(bench_gemv("xbar_gemv_full_256x128", profile, &ledger,
                               256, 128, 4));
  // The rank MLP's 128 -> 1 output layer: one programmed column.
  kernels.push_back(bench_gemv("xbar_gemv_partial_128x1", profile, &ledger,
                               128, 1, 5));
  kernels.push_back(bench_lookup(profile));
  kernels.push_back(bench_item_update(profile, &ledger));
  kernels.push_back(bench_topk_after_full(profile));

  bench::JsonReport json("kernels");
  bool ok = true;
  std::cout << "kernel                      ns/op      reference\n";
  for (const auto& k : kernels) {
    const std::size_t reps = quick ? k.reps / 10 : k.reps;
    const double ns = ns_per_op(k.op, reps);
    std::cout << k.name << std::string(28 - k.name.size(), ' ') << ns
              << (k.matches ? "      match\n" : "      MISMATCH\n");
    json.record(k.name)
        .set("ns_per_op", ns)
        .set("reps", reps)
        .set("matches_reference", k.matches ? 1 : 0);
    ok = ok && k.matches;
  }
  std::cerr << "[bench] sink " << g_sink << "\n";
  if (!json.write()) return 1;
  if (!ok) {
    std::cerr << "[bench] FAIL: a kernel disagrees with its naive reference\n";
    return 1;
  }
  return 0;
}
