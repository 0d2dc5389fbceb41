// int8 MLP inference on crossbar banks.
//
// Maps a float-trained nn::Mlp onto TiledMatVec crossbar layers:
//   * weights are quantized per-layer (symmetric int8),
//   * activations are quantized per-layer with scales calibrated from
//     representative inputs (max-abs calibration),
//   * biases fold into the int32 accumulator domain,
//   * ReLU happens in the periphery as an int32 clamp before requantize,
//   * the final layer returns float (identity or sigmoid evaluated by the
//     digital periphery, as in the paper's Neurosim-based DNN-stack eval).
//
// Layers execute back-to-back: each layer's tiles fire in parallel, layers
// serialize — the composition the paper uses for the DNN stack (Sec IV-C3).
#pragma once

#include <span>
#include <vector>

#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "nn/mlp.hpp"
#include "xbar/crossbar.hpp"

namespace imars::xbar {

/// A quantized MLP resident in crossbar arrays.
class XbarMlp {
 public:
  /// Quantizes `mlp` and programs the crossbars. `calibration` supplies
  /// representative inputs for activation-scale calibration (>= 1 needed).
  XbarMlp(const device::DeviceProfile& profile, device::EnergyLedger* ledger,
          const nn::Mlp& mlp,
          std::span<const tensor::Vector> calibration);

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept { return out_dim_; }
  std::size_t layer_count() const noexcept { return layers_.size(); }

  /// Total crossbar tiles programmed (for Table I style mapping stats).
  std::size_t tile_count() const noexcept;

  /// Runs int8 inference; returns float outputs and the end-to-end latency
  /// (sum of layer latencies) via out-parameter.
  tensor::Vector infer(std::span<const float> x, device::Ns* latency) const;

  /// An input whose lanes outside one window stay fixed across inferences,
  /// with the first layer's int32 sums over those lanes precomputed.
  struct PreparedInput {
    std::size_t window_lo = 0;
    std::size_t window_len = 0;
    std::vector<std::int32_t> partial;  ///< first-layer sums, window zeroed
  };

  /// Quantizes `x` with the window lanes [lo, lo + len) zeroed (their
  /// values in `x` are ignored) and evaluates the first layer over the
  /// remaining lanes. Charges nothing: every infer() of the result charges
  /// a whole inference.
  PreparedInput prepare(std::span<const float> x, std::size_t lo,
                        std::size_t len) const;

  /// infer() of the prepared input with its window lanes set to `window`:
  /// the same outputs, latency and ledger charges (same order), bit for
  /// bit. The activation scale is static per layer and quantize(0) == 0,
  /// so the window's quantized lanes add to the fixed lanes' exact int32
  /// first-layer sums; only the window's crossbar rows are evaluated here.
  tensor::Vector infer(const PreparedInput& in, std::span<const float> window,
                       device::Ns* latency) const;

 private:
  struct Layer {
    TiledMatVec matvec;
    std::vector<std::int32_t> bias_q;  // bias in accumulator domain
    float in_scale = 1.0f;             // activation quant scale (input side)
    float w_scale = 1.0f;              // weight quant scale
    float out_scale = 1.0f;            // next layer's activation scale
    nn::Activation act = nn::Activation::kIdentity;
    bool is_last = false;
  };

  /// Quantizes input lanes with the first layer's activation scale.
  std::vector<std::int8_t> quantize_input(std::span<const float> x) const;

  /// Completes an inference from the first layer's int32 sums (bias not
  /// yet added): charges the first layer, then runs every later one.
  tensor::Vector finish(std::vector<std::int32_t> acc,
                        device::Ns* latency) const;

  const device::DeviceProfile* profile_ = nullptr;
  device::EnergyLedger* ledger_ = nullptr;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::vector<Layer> layers_;
};

}  // namespace imars::xbar
