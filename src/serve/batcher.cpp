#include "serve/batcher.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace imars::serve {

DynamicBatcher::DynamicBatcher(const DynamicBatcherConfig& cfg) : cfg_(cfg) {
  IMARS_REQUIRE(cfg_.max_batch >= 1, "DynamicBatcher: max_batch must be >= 1");
  IMARS_REQUIRE(cfg_.max_wait.value >= 0.0,
                "DynamicBatcher: max_wait must be non-negative");
}

void DynamicBatcher::add(const Request& r) {
  IMARS_REQUIRE(pending_.empty() || pending_.back().enqueue <= r.enqueue,
                "DynamicBatcher::add: arrivals must be time-ordered");
  pending_.push_back(r);
}

std::optional<device::Ns> DynamicBatcher::deadline() const {
  if (pending_.empty()) return std::nullopt;
  return pending_.front().enqueue + cfg_.max_wait;
}

std::optional<Batch> DynamicBatcher::poll(device::Ns now) {
  if (pending_.empty()) return std::nullopt;
  if (pending_.size() >= cfg_.max_batch)
    return close_batch(now, cfg_.max_batch, CloseTrigger::kSize);
  if (now >= *deadline())
    return close_batch(now, pending_.size(), CloseTrigger::kDeadline);
  return std::nullopt;
}

std::optional<Batch> DynamicBatcher::flush(device::Ns now) {
  if (pending_.empty()) return std::nullopt;
  return close_batch(now, std::min(pending_.size(), cfg_.max_batch),
                     CloseTrigger::kFlush);
}

Batch DynamicBatcher::close_batch(device::Ns now, std::size_t count,
                                  CloseTrigger trigger) {
  Batch b;
  b.id = next_batch_id_++;
  // Class-blind: the batch may mix labels, so it carries class 0 — the
  // same value a single-class QosBatcher emits for the identical stream.
  b.qos_class = 0;
  b.dispatch = now;
  b.trigger = trigger;
  b.requests.assign(pending_.begin(),
                    pending_.begin() + static_cast<std::ptrdiff_t>(count));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(count));
  return b;
}

// --- QosBatcher -------------------------------------------------------------

QosBatcherConfig QosBatcherConfig::single(const DynamicBatcherConfig& cfg) {
  QosClassConfig cls;
  cls.max_batch = cfg.max_batch;
  cls.max_wait = cfg.max_wait;
  QosBatcherConfig out;
  out.classes.push_back(std::move(cls));
  return out;
}

QosBatcher::QosBatcher(const QosBatcherConfig& cfg)
    : cfg_(cfg),
      queues_(cfg.classes.size()),
      admitted_cost_(cfg.classes.size(), 0.0) {
  IMARS_REQUIRE(!cfg_.classes.empty(), "QosBatcher: need at least one class");
  for (const auto& c : cfg_.classes) {
    IMARS_REQUIRE(c.max_batch >= 1, "QosBatcher: max_batch must be >= 1");
    IMARS_REQUIRE(c.max_wait.value >= 0.0,
                  "QosBatcher: max_wait must be non-negative");
    IMARS_REQUIRE(c.weight >= 0.0, "QosBatcher: weight must be non-negative");
    IMARS_REQUIRE(c.request_cost > 0.0,
                  "QosBatcher: request_cost must be positive");
  }
}

void QosBatcher::add(const Request& r) {
  // A single-class table is class-blind: every label lands in class 0, so
  // the same labeled stream can be replayed against a QoS table and the
  // PR 2 baseline.
  const std::size_t cls = queues_.size() == 1 ? 0 : r.qos_class;
  IMARS_REQUIRE(cls < queues_.size(),
                "QosBatcher::add: qos_class outside the class table");
  auto& q = queues_[cls];
  if (q.empty() || q.back().enqueue <= r.enqueue) {
    q.push_back(r);
    return;
  }
  // Slightly out-of-order arrival: under gated admission a held batch can
  // complete (in device time) before an already-added arrival, so a
  // closed-loop client's next request may predate its class's newest
  // queue entry. Insert in enqueue order (stable: after equal times) so
  // the front stays the oldest request and the trigger math holds; the
  // in-order fast path above keeps ordered streams bit-identical.
  const auto pos = std::upper_bound(
      q.begin(), q.end(), r, [](const Request& a, const Request& b) {
        return a.enqueue.value < b.enqueue.value;
      });
  q.insert(pos, r);
}

std::size_t QosBatcher::pending() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

std::size_t QosBatcher::pending(std::size_t cls) const {
  IMARS_REQUIRE(cls < queues_.size(), "QosBatcher: class out of range");
  return queues_[cls].size();
}

device::Ns QosBatcher::trigger_time(std::size_t cls) const {
  const auto& c = cfg_.classes[cls];
  const device::Ns enqueue = queues_[cls].front().enqueue;
  device::Ns wait_budget = c.max_wait;
  if (c.deadline.value > 0.0) {
    // Preemptive close: leave at least service_estimate of slack before the
    // end-to-end deadline (never negative — an already-late request closes
    // at the next event).
    const device::Ns slack = device::max(c.deadline - c.service_estimate,
                                         device::Ns{0.0});
    wait_budget = std::min(wait_budget, slack);
  }
  return enqueue + wait_budget;
}

bool QosBatcher::admissible(std::size_t cls) const {
  if (cfg_.classes[cls].weight > 0.0) return true;
  // Scavenger class: admitted only when every paying (positive-weight)
  // class is drained. Scavengers never block each other — otherwise two
  // pending scavengers would deadlock the batcher.
  for (std::size_t c = 0; c < queues_.size(); ++c)
    if (c != cls && cfg_.classes[c].weight > 0.0 && !queues_[c].empty())
      return false;
  return true;
}

double QosBatcher::virtual_time(std::size_t cls) const {
  IMARS_REQUIRE(cls < queues_.size(), "QosBatcher: class out of range");
  const double w = cfg_.classes[cls].weight;
  if (w <= 0.0) return std::numeric_limits<double>::infinity();
  return admitted_cost_[cls] / w;
}

std::optional<device::Ns> QosBatcher::deadline() const {
  std::optional<device::Ns> earliest;
  for (std::size_t cls = 0; cls < queues_.size(); ++cls) {
    if (queues_[cls].empty() || !admissible(cls)) continue;
    const device::Ns t = trigger_time(cls);
    if (!earliest || t < *earliest) earliest = t;
  }
  return earliest;
}

std::optional<std::size_t> QosBatcher::pick(device::Ns now,
                                            bool fired_only) const {
  std::optional<std::size_t> best;
  for (std::size_t cls = 0; cls < queues_.size(); ++cls) {
    const auto& q = queues_[cls];
    if (q.empty() || !admissible(cls)) continue;
    if (fired_only) {
      const bool fired = q.size() >= cfg_.classes[cls].max_batch ||
                         now >= trigger_time(cls);
      if (!fired) continue;
    }
    // Weighted admission: lowest virtual time first (ties to the lower
    // class index); weight-0 classes carry +inf and so go last.
    if (!best || virtual_time(cls) < virtual_time(*best)) best = cls;
  }
  return best;
}

CloseTrigger QosBatcher::poll_trigger(std::size_t cls) const {
  const QosClassConfig& c = cfg_.classes[cls];
  if (queues_[cls].size() >= c.max_batch) return CloseTrigger::kSize;
  // The fired trigger was the wait-budget deadline; it counts as
  // preemptive when end-to-end-deadline slack clamped the budget below the
  // class's own max_wait (the close happened EARLY to protect the SLO).
  // The boundary is deliberately STRICT: when
  // `deadline - service_estimate == max_wait` exactly, the close fires at
  // enqueue + max_wait — the very instant the plain deadline trigger would
  // have fired anyway — so nothing happened early and it is classified
  // kDeadline. kPreemptive is reserved for closes the SLO clamp actually
  // moved, which keeps the per-trigger counts feeding check_trace's
  // sum invariant attributable (pinned by
  // QosBatcher.ExactSlackEqualToMaxWaitClassifiesAsDeadline).
  if (c.deadline.value > 0.0) {
    const device::Ns slack =
        device::max(c.deadline - c.service_estimate, device::Ns{0.0});
    if (slack < c.max_wait) return CloseTrigger::kPreemptive;
  }
  return CloseTrigger::kDeadline;
}

std::optional<Batch> QosBatcher::poll(device::Ns now) {
  const auto cls = pick(now, /*fired_only=*/true);
  if (!cls) return std::nullopt;
  return close_batch(*cls, now, poll_trigger(*cls));
}

std::optional<Batch> QosBatcher::flush(device::Ns now) {
  const auto cls = pick(now, /*fired_only=*/false);
  if (!cls) return std::nullopt;
  return close_batch(*cls, now, CloseTrigger::kFlush);
}

void QosBatcher::recycle(std::vector<Request>&& storage) {
  storage.clear();
  spares_.push_back(std::move(storage));
}

Batch QosBatcher::close_batch(std::size_t cls, device::Ns now,
                              CloseTrigger trigger) {
  auto& q = queues_[cls];
  const std::size_t count = std::min(q.size(), cfg_.classes[cls].max_batch);
  Batch b;
  b.id = next_batch_id_++;
  b.qos_class = cls;
  b.dispatch = now;
  b.trigger = trigger;
  if (!spares_.empty()) {
    // Reuse drained batch storage (capacity only; contents were cleared).
    b.requests = std::move(spares_.back());
    spares_.pop_back();
  }
  b.requests.assign(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(count));
  q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(count));
  admitted_cost_[cls] +=
      cfg_.classes[cls].request_cost * static_cast<double>(count);
  return b;
}

}  // namespace imars::serve
