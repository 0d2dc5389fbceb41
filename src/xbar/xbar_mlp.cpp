#include "xbar/xbar_mlp.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/quant.hpp"

namespace imars::xbar {

using device::Ns;

namespace {

// Max-abs over a set of vectors; guards against all-zero calibration.
float max_abs(std::span<const tensor::Vector> vs) {
  float m = 0.0f;
  for (const auto& v : vs)
    for (float x : v) m = std::max(m, std::fabs(x));
  return m > 0.0f ? m : 1.0f;
}

}  // namespace

XbarMlp::XbarMlp(const device::DeviceProfile& profile,
                 device::EnergyLedger* ledger, const nn::Mlp& mlp,
                 std::span<const tensor::Vector> calibration)
    : profile_(&profile),
      ledger_(ledger),
      in_dim_(mlp.in_dim()),
      out_dim_(mlp.out_dim()) {
  IMARS_REQUIRE(!calibration.empty(), "XbarMlp: calibration inputs required");
  for (const auto& v : calibration)
    IMARS_REQUIRE(v.size() == in_dim_, "XbarMlp: calibration dim mismatch");

  // Propagate the calibration set through the float model to observe the
  // activation range at every layer boundary.
  std::vector<tensor::Vector> acts(calibration.begin(), calibration.end());
  std::vector<float> act_scale(mlp.layer_count() + 1, 1.0f);
  act_scale[0] = max_abs(acts) / 127.0f;
  for (std::size_t li = 0; li < mlp.layer_count(); ++li) {
    for (auto& v : acts) v = mlp.layer(li).infer(v);
    act_scale[li + 1] = max_abs(acts) / 127.0f;
  }

  layers_.reserve(mlp.layer_count());
  for (std::size_t li = 0; li < mlp.layer_count(); ++li) {
    const nn::Dense& dense = mlp.layer(li);
    const tensor::QMatrix wq = tensor::QMatrix::quantize(dense.weight());
    const float w_scale = wq.params().scale;
    const float in_scale = act_scale[li];

    std::vector<std::int32_t> bias_q(dense.out_dim());
    for (std::size_t o = 0; o < dense.out_dim(); ++o) {
      bias_q[o] = static_cast<std::int32_t>(
          std::lround(dense.bias()[o] / (in_scale * w_scale)));
    }

    layers_.push_back(Layer{
        TiledMatVec(profile, ledger, wq),
        std::move(bias_q),
        in_scale,
        w_scale,
        act_scale[li + 1],
        dense.activation(),
        li + 1 == mlp.layer_count(),
    });
  }
}

std::size_t XbarMlp::tile_count() const noexcept {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.matvec.tile_count();
  return n;
}

std::vector<std::int8_t> XbarMlp::quantize_input(
    std::span<const float> x) const {
  const util::QuantParams qp{layers_.front().in_scale};
  std::vector<std::int8_t> q(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) q[i] = qp.quantize(x[i]);
  return q;
}

tensor::Vector XbarMlp::infer(std::span<const float> x,
                              device::Ns* latency) const {
  IMARS_REQUIRE(x.size() == in_dim_, "XbarMlp::infer: input dim mismatch");
  const TiledMatVec& first = layers_.front().matvec;
  std::vector<std::int32_t> acc(first.out_dim(), 0);
  first.accumulate(quantize_input(x), 0, acc);
  return finish(std::move(acc), latency);
}

XbarMlp::PreparedInput XbarMlp::prepare(std::span<const float> x,
                                        std::size_t lo,
                                        std::size_t len) const {
  IMARS_REQUIRE(x.size() == in_dim_, "XbarMlp::prepare: input dim mismatch");
  IMARS_REQUIRE(lo + len <= in_dim_, "XbarMlp::prepare: window past the input");
  std::vector<std::int8_t> q = quantize_input(x);
  std::fill(q.begin() + static_cast<std::ptrdiff_t>(lo),
            q.begin() + static_cast<std::ptrdiff_t>(lo + len), 0);
  const TiledMatVec& first = layers_.front().matvec;
  PreparedInput p{lo, len, std::vector<std::int32_t>(first.out_dim(), 0)};
  first.accumulate(q, 0, p.partial);
  return p;
}

tensor::Vector XbarMlp::infer(const PreparedInput& in,
                              std::span<const float> window,
                              device::Ns* latency) const {
  IMARS_REQUIRE(window.size() == in.window_len,
                "XbarMlp::infer: window width mismatch");
  std::vector<std::int32_t> acc = in.partial;
  layers_.front().matvec.accumulate(quantize_input(window), in.window_lo, acc);
  return finish(std::move(acc), latency);
}

tensor::Vector XbarMlp::finish(std::vector<std::int32_t> acc,
                               device::Ns* latency) const {
  Ns total{0.0};
  tensor::Vector out_f;
  std::vector<std::int8_t> q;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    Ns lat{0.0};
    if (li == 0)
      layer.matvec.charge(&lat);
    else
      acc = layer.matvec.gemv(q, &lat);
    total += lat + profile_->xbar_layer_overhead;
    ledger_->charge(device::Component::kPeripheral,
                    profile_->xbar_layer_energy);
    for (std::size_t o = 0; o < acc.size(); ++o) acc[o] += layer.bias_q[o];

    const float acc_scale = layer.in_scale * layer.w_scale;
    if (layer.is_last) {
      // Final layer: dequantize; identity or sigmoid handled in float by the
      // digital periphery.
      out_f.resize(acc.size());
      for (std::size_t o = 0; o < acc.size(); ++o) {
        float v = acc_scale * static_cast<float>(acc[o]);
        if (layer.act == nn::Activation::kSigmoid)
          v = 1.0f / (1.0f + std::exp(-v));
        else if (layer.act == nn::Activation::kRelu)
          v = std::max(v, 0.0f);
        out_f[o] = v;
      }
    } else {
      // ReLU as int32 clamp, then requantize into the next layer's scale.
      const float requant = acc_scale / layer.out_scale;
      std::vector<std::int8_t> next(acc.size());
      for (std::size_t o = 0; o < acc.size(); ++o) {
        std::int32_t v = acc[o];
        if (layer.act == nn::Activation::kRelu && v < 0) v = 0;
        next[o] = util::sat_cast_i8(static_cast<std::int32_t>(
            std::lround(static_cast<float>(v) * requant)));
      }
      q = std::move(next);
    }
  }
  if (latency != nullptr) *latency = total;
  return out_f;
}

}  // namespace imars::xbar
