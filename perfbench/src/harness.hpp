// Shared machinery of the end-to-end benchmark: host clocks, the metric
// set, the forwarding ServableBackend that times every servable call, the
// Workload interface, and the workload-agnostic run (timed windows,
// traced pass, rate ladder).
//
// Everything is timed from outside the library, around calls into its
// public API; the library is used exactly as an application would use it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "serve/load_gen.hpp"
#include "serve/runtime.hpp"
#include "serve/stage_pipeline.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
/// Process CPU time (user + system, all threads), seconds.
double process_cpu_seconds();
/// Peak resident set size of the process, MiB.
double peak_rss_mib();

/// Named metric values in insertion order (each name set once).
class Metrics {
 public:
  void set(const std::string& name, double value);
  const std::vector<std::pair<std::string, double>>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

/// Host seconds of one set-up, split by phase.
struct SetupTimes {
  double data_s = 0.0;     ///< dataset synthesis + model inputs
  double train_s = 0.0;    ///< model training
  double load_s = 0.0;     ///< quantize + load CMAs, build replicas/indexes
  double runtime_s = 0.0;  ///< ServingRuntime construction
  double total() const { return data_s + train_s + load_s + runtime_s; }
};

/// Forwarding ServableBackend that counts and times every call into the
/// wrapped servable, per stage. Worker threads of different shards call
/// concurrently, so the tallies are atomics. Purely observational: every
/// call forwards its arguments unchanged and returns the inner result.
class ProbeServable final : public imars::serve::ServableBackend {
 public:
  explicit ProbeServable(imars::serve::ServableBackend& inner);

  struct Tally {
    std::uint64_t calls = 0;
    double host_us = 0.0;
  };
  /// Per-stage calls and host time of run_replicated / run_replicated_fed /
  /// run_sharded, spec order.
  std::vector<Tally> stage_tallies() const;
  /// Calls and host time of accesses / accesses_into / update_accesses.
  Tally access_tally() const;
  void reset();

  std::string_view name() const override { return inner_.name(); }
  const imars::serve::PipelineSpec& spec() const override {
    return inner_.spec();
  }
  std::size_t shards() const override { return inner_.shards(); }
  std::vector<std::size_t> initial_items(
      const imars::serve::Request& req) const override {
    return inner_.initial_items(req);
  }
  std::vector<std::size_t> run_replicated(
      std::size_t stage, std::size_t shard, const imars::serve::Request& req,
      imars::recsys::StageStats* stats) override;
  std::vector<std::size_t> run_replicated_fed(
      std::size_t stage, std::size_t shard, const imars::serve::Request& req,
      std::span<const std::size_t> fed,
      imars::recsys::StageStats* stats) override;
  std::vector<imars::recsys::ScoredItem> run_sharded(
      std::size_t stage, std::size_t shard, const imars::serve::Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      imars::recsys::StageStats* stats) override;
  std::vector<imars::serve::RowAccess> accesses(
      std::size_t stage, const imars::serve::Request& req,
      std::span<const std::size_t> slice) const override;
  void accesses_into(std::size_t stage, const imars::serve::Request& req,
                     std::span<const std::size_t> slice,
                     std::vector<imars::serve::RowAccess>& out) const override;
  std::vector<imars::serve::RowAccess> update_accesses(
      const imars::serve::Request& req) const override;
  std::vector<std::size_t> profile_items(
      const imars::serve::Request& req) override {
    return inner_.profile_items(req);
  }
  std::vector<imars::device::Ns> stage_cost_estimate(std::size_t k) override {
    return inner_.stage_cost_estimate(k);
  }

 private:
  struct AtomicTally {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  void note(AtomicTally& t, Clock::time_point t0) const;

  imars::serve::ServableBackend& inner_;
  std::unique_ptr<AtomicTally[]> stages_;
  std::size_t stage_count_;
  mutable AtomicTally access_;
};

/// Outcome of the serial reference pass over the operating-point stream.
struct OracleResult {
  std::size_t mismatched = 0;  ///< served top-k differs from the reference
  double quality = 0.0;        ///< output_quality (see the workload)
  double filter_host_us = 0.0; ///< mean host us per reference filter call
  double rank_host_us = 0.0;   ///< mean host us per reference rank call
  double score_host_us = 0.0;  ///< mean host us per reference CTR score
};

/// GPU-model vs iMARS comparison by the serial single-query method.
struct PaperGap {
  double imars_latency_us = 0.0;
  double imars_energy_uj = 0.0;
  double gpu_latency_us = 0.0;
  double gpu_energy_uj = 0.0;
  double paper_latency_gain = 0.0;  ///< the paper's GPU/iMARS latency ratio
  double paper_energy_gain = 0.0;
  double latency_gap() const;       ///< |ln(measured gain / paper gain)|
  double energy_gap() const;
};

/// One benchmark workload: builds its fabric and answers the workload-
/// specific questions (reference outputs, output quality, paper gap);
/// run_workload() below does the rest identically for every workload.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds (or rebuilds, dropping the previous build) the deployed
  /// system: data, model, replicas, runtime. Users/samples are bound to the
  /// servable, so runtime().run(gen) serves a stream.
  virtual void setup(SetupTimes& times) = 0;
  virtual imars::serve::ServingRuntime& runtime() = 0;
  virtual const imars::serve::ServingConfig& serving_config() const = 0;
  virtual const imars::core::ArchConfig& arch() const = 0;
  virtual const imars::device::DeviceProfile& profile() const = 0;

  /// The fixed operating-point stream (generated from the workload's
  /// seed); the simulated figures come from one pass over it.
  virtual imars::serve::LoadGenConfig op_load() const = 0;
  /// Requests per pass of the host-timing window: a prefix of the
  /// operating-point stream, short enough that a window holds many passes.
  virtual std::size_t host_pass_requests() const = 0;
  /// Open loop: fixed offered-rate ladder (ascending) and the p99 limit
  /// the capacity search holds it to. Closed loop: empty ladder.
  virtual std::vector<double> rate_ladder() const { return {}; }
  virtual double p99_limit_us() const { return 0.0; }

  /// Serial, unsharded reference calls for every served request of `op`.
  virtual OracleResult oracle(const imars::serve::ServeReport& op) = 0;
  virtual PaperGap paper_gap() = 0;
  /// Ledgers of the fabric's replicas (device-component accounting).
  virtual std::vector<imars::device::EnergyLedger*> replica_ledgers() = 0;
};

/// What one run reports: the output checks' verdict (reasons on stderr),
/// the oracle's request counts and every metric measured.
struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;  ///< requests of the operating-point stream
  std::size_t failed = 0;     ///< unserved or differing from the reference
  Metrics metrics;
};

struct RunOptions {
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where the traced pass's timeline goes
};

/// Runs one workload: set-ups, simulated pass, timed window, capacity
/// search, oracle, paper comparison and, with `trace`, the traced pass and
/// window that give the per-layer metrics.
RunResult run_workload(Workload& w, const RunOptions& opt);

/// Deterministic per-workload seed mixing (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
