// Dynamic batching policy: coalesce queued requests into batches under a
// max-latency deadline.
//
// A batch closes when either trigger fires:
//   * size trigger      — max_batch requests are pending;
//   * deadline trigger  — the oldest pending request has waited max_wait.
//
// The policy is a pure object over simulated-hardware timestamps (device
// nanoseconds), so the runtime's event loop and the unit tests drive it
// deterministically; the worker threads only execute the batches it emits.
//
// Two policies live here:
//   * DynamicBatcher — the single-tenant policy above (PR 1/2).
//   * QosBatcher     — the multi-tenant, class-aware policy: one queue per
//     priority class, each with its own size/deadline triggers, preemptive
//     close for latency-critical classes (close early so the end-to-end
//     deadline survives the expected service time), and weighted admission
//     so a flood of bulk-class requests cannot starve interactive classes.
//     Configured with a single class it reduces bit-identically to
//     DynamicBatcher (same batch composition, ids and close times).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "device/units.hpp"
#include "serve/observe.hpp"

namespace imars::serve {

/// One recommendation request entering the serving runtime.
struct Request {
  std::size_t id = 0;         ///< global sequence number
  std::size_t user = 0;       ///< index into the user-context population
  std::size_t client = 0;     ///< closed-loop client that issued it
  std::size_t qos_class = 0;  ///< priority class (index into the class table)
  /// Embedding-update write (fire-and-forget row writes instead of a
  /// query): bypasses the batcher; the runtime charges its write traffic
  /// through the write-back cache model. Never set on read-only streams.
  bool is_update = false;
  device::Ns enqueue;         ///< simulated arrival time
  /// Per-session personalization state, filled by the load generator's
  /// session mode (serve/session_table.*): how many queries this user's
  /// live session has issued (1 = the arrival query) and whether the
  /// session was created by this request. Inert defaults — a non-session
  /// stream carries 0/false and nothing downstream changes.
  std::uint32_t session_seq = 0;
  bool session_fresh = false;
};

/// A closed batch, ready for dispatch to the shard router. All requests of
/// a batch belong to one QoS class.
struct Batch {
  std::size_t id = 0;
  std::size_t qos_class = 0;
  device::Ns dispatch;  ///< simulated close/dispatch time
  /// Why the batch closed (observability: batch spans attribute tail
  /// latency to the close decision). Pure telemetry — nothing downstream
  /// reads it back into scheduling.
  CloseTrigger trigger = CloseTrigger::kSize;
  std::vector<Request> requests;

  std::size_t size() const noexcept { return requests.size(); }
};

struct DynamicBatcherConfig {
  std::size_t max_batch = 8;        ///< size trigger
  device::Ns max_wait{200000.0};    ///< deadline trigger (200 us default)
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(const DynamicBatcherConfig& cfg);

  const DynamicBatcherConfig& config() const noexcept { return cfg_; }

  /// Adds a request (arrival order must be non-decreasing in enqueue time).
  void add(const Request& r);

  std::size_t pending() const noexcept { return pending_.size(); }
  bool empty() const noexcept { return pending_.empty(); }

  /// Simulated time at which the deadline trigger fires for the current
  /// oldest request; nullopt when nothing is pending.
  std::optional<device::Ns> deadline() const;

  /// Closes and returns a batch if either trigger has fired by `now`.
  std::optional<Batch> poll(device::Ns now);

  /// Unconditionally closes the remaining requests (end-of-stream drain).
  std::optional<Batch> flush(device::Ns now);

 private:
  Batch close_batch(device::Ns now, std::size_t count, CloseTrigger trigger);

  DynamicBatcherConfig cfg_;
  std::deque<Request> pending_;
  std::size_t next_batch_id_ = 0;
};

// --- Multi-tenant QoS batching ---------------------------------------------

/// One priority class (tenant) of the multi-tenant batcher.
struct QosClassConfig {
  std::string name = "default";
  std::size_t max_batch = 8;      ///< per-class size trigger
  device::Ns max_wait{200000.0};  ///< per-class deadline trigger
  /// End-to-end latency SLO (enqueue to merged top-k). When positive the
  /// class is latency-critical: its batch closes *preemptively* once
  /// waiting any longer would leave less than `service_estimate` of slack
  /// (close time = enqueue + max(0, deadline - service_estimate), capped by
  /// max_wait), and the runtime's admission queue serves it
  /// earliest-deadline-first while it stays inside its weight entitlement.
  device::Ns deadline{0.0};
  /// Expected dispatch-to-complete time of one of this class's batches,
  /// used by the preemptive close above. A static, configured estimate (the
  /// benches probe it with a calibration run) so batching decisions never
  /// depend on completion feedback — the arrival stream alone fixes every
  /// close decision, which keeps deferred and phased collection
  /// bit-identical. Left unset (0) on a latency-critical class, the
  /// runtime defaults it from the servable's probed stage-graph critical
  /// path (StagePipeline::service_estimate) — still static, so the
  /// determinism contract is preserved.
  device::Ns service_estimate{0.0};
  /// Device-time entitlement relative to the other classes. Weight 0 marks
  /// a scavenger class: it is only ever admitted when no other class has
  /// pending work.
  double weight = 1.0;
  /// Admission-accounting cost of one request (virtual-time units). Classes
  /// whose per-request device cost differs materially should scale this so
  /// weighted admission tracks device time rather than request count.
  double request_cost = 1.0;
  /// Which servable of the runtime serves this class (index into the
  /// servable table; classes may share one).
  std::size_t servable = 0;
};

struct QosBatcherConfig {
  std::vector<QosClassConfig> classes;  ///< at least one
  /// Device-time admission window: a closed batch is released to the
  /// pipeline only once the device backlog frontier is within this horizon
  /// of simulated "now"; held batches wait in the runtime's ready queue
  /// where admission order (deadline classes first within entitlement, then
  /// weighted virtual time) is decided. Non-positive = ungated: batches
  /// release the instant they close, which is exactly the PR 2 single-queue
  /// behavior.
  device::Ns admit_window{0.0};

  bool gated() const noexcept { return admit_window.value > 0.0; }

  /// The single-class (class-blind) table equivalent to a DynamicBatcher.
  static QosBatcherConfig single(const DynamicBatcherConfig& cfg);
};

/// Class-aware batching policy: one FIFO queue per class. Like
/// DynamicBatcher it is a pure object over device timestamps; the runtime's
/// event loop drives it. With one configured class it is class-blind (all
/// requests route to class 0, whatever their label) and reproduces
/// DynamicBatcher's batch stream bit-identically.
class QosBatcher {
 public:
  explicit QosBatcher(const QosBatcherConfig& cfg);

  const QosBatcherConfig& config() const noexcept { return cfg_; }
  std::size_t num_classes() const noexcept { return cfg_.classes.size(); }

  /// Adds a request; routes by `r.qos_class` (must index the class table
  /// unless the table has a single class). Arrivals are kept sorted by
  /// enqueue time per class — a slightly out-of-order add (a gated closed
  /// loop completing a held batch early) is inserted in order, after any
  /// equal timestamps.
  void add(const Request& r);

  std::size_t pending() const noexcept;
  std::size_t pending(std::size_t cls) const;
  bool empty() const noexcept { return pending() == 0; }

  /// Earliest future time at which any *admissible* class's deadline
  /// trigger fires (a weight-0 class is suppressed while any other class
  /// has pending requests); nullopt when nothing is pending.
  std::optional<device::Ns> deadline() const;

  /// Closes and returns one batch whose trigger has fired by `now`,
  /// weight-0 classes last and simultaneous fires resolved by weighted
  /// virtual time (cumulative admitted request_cost / weight, ties to the
  /// lower class index). Call repeatedly until nullopt — several classes
  /// can fire on one event.
  std::optional<Batch> poll(device::Ns now);

  /// Unconditionally closes up to max_batch requests of one class
  /// (end-of-stream drain), in the same admission order as poll().
  std::optional<Batch> flush(device::Ns now);

  /// Weighted virtual time of a class (admission accounting); weight-0
  /// classes report +inf.
  double virtual_time(std::size_t cls) const;

  /// Returns drained `Batch::requests` storage to the spare pool so the
  /// next close_batch reuses its capacity instead of allocating. Purely a
  /// memory-recycling hint: batch ids, composition and close times are
  /// identical whether or not anything is ever recycled (the optimized
  /// runtime feeds it, the reference path never calls it).
  void recycle(std::vector<Request>&& storage);

 private:
  /// Time at which the class's deadline/preemptive trigger fires for its
  /// current oldest request (its size trigger is checked separately).
  device::Ns trigger_time(std::size_t cls) const;
  bool admissible(std::size_t cls) const;
  std::optional<std::size_t> pick(device::Ns now, bool fired_only) const;
  Batch close_batch(std::size_t cls, device::Ns now, CloseTrigger trigger);
  /// The close reason a poll() of class `cls` at `now` reports: size if
  /// the queue fills the batch, otherwise the fired deadline — preemptive
  /// when the wait budget was clamped by end-to-end-deadline slack.
  CloseTrigger poll_trigger(std::size_t cls) const;

  QosBatcherConfig cfg_;
  std::vector<std::deque<Request>> queues_;  ///< one per class
  std::vector<double> admitted_cost_;        ///< per class, request_cost sum
  std::vector<std::vector<Request>> spares_; ///< recycled batch storage
  std::size_t next_batch_id_ = 0;
};

}  // namespace imars::serve
