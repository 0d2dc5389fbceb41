#include "serve/shard_router.hpp"

#include "util/error.hpp"

namespace imars::serve {

using recsys::StageStats;

PipelineSpec ShardRouter::pipeline_spec() {
  PipelineSpec spec;
  spec.stages = {{"filter", StageKind::kReplicated, {}},
                 {"rank", StageKind::kSharded, {}}};
  spec.merge_topk = true;
  return spec;
}

ShardRouter::ShardRouter(const core::BackendFactory& factory,
                         std::size_t shards, TrafficSpec traffic)
    : spec_(pipeline_spec()), traffic_(std::move(traffic)) {
  IMARS_REQUIRE(shards >= 1, "ShardRouter: need at least one shard");
  // Uniform replicas ignore the slot; any profile placeholder works.
  const std::vector<device::DeviceProfile> slots(shards,
                                                 device::DeviceProfile{});
  shards_ = core::build_replicas(core::per_slot(factory), slots);
}

ShardRouter::ShardRouter(const core::ShardedBackendFactory& factory,
                         std::span<const device::DeviceProfile> profiles,
                         TrafficSpec traffic)
    : spec_(pipeline_spec()), traffic_(std::move(traffic)) {
  IMARS_REQUIRE(!profiles.empty(), "ShardRouter: need at least one shard");
  shards_ = core::build_replicas(factory, profiles);
}

void ShardRouter::bind_users(std::span<const recsys::UserContext> users) {
  IMARS_REQUIRE(!users.empty(), "ShardRouter: empty user population");
  users_ = users;
}

void ShardRouter::override_spec(PipelineSpec spec) {
  IMARS_REQUIRE(spec.stage_count() == spec_.stage_count() &&
                    spec.merge_topk == spec_.merge_topk &&
                    spec.resolve() == spec_.resolve(),
                "ShardRouter::override_spec: spec must resolve to the "
                "canonical filter->rank graph");
  for (std::size_t s = 0; s < spec.stage_count(); ++s)
    IMARS_REQUIRE(spec.stages[s].kind == spec_.stages[s].kind,
                  "ShardRouter::override_spec: stage kind mismatch");
  spec_ = std::move(spec);
}

recsys::FilterRankBackend& ShardRouter::backend(std::size_t shard) {
  IMARS_REQUIRE(shard < shards_.size(), "ShardRouter: shard out of range");
  return *shards_[shard];
}

const recsys::UserContext& ShardRouter::user_of(const Request& req) const {
  IMARS_REQUIRE(req.user < users_.size(),
                "ShardRouter: user out of range (bind_users first)");
  return users_[req.user];
}

std::vector<device::Ns> ShardRouter::probe_rank_cost(
    const recsys::UserContext& probe, std::span<const std::size_t> items) {
  std::vector<device::Ns> costs;
  costs.reserve(shards_.size());
  for (auto& shard : shards_) {
    StageStats stats;
    (void)shard->rank(probe, items, std::max<std::size_t>(items.size(), 1),
                      &stats);
    costs.push_back(stats.total().latency);
  }
  return costs;
}

std::vector<device::Ns> ShardRouter::stage_cost_estimate(std::size_t k) {
  if (users_.empty()) return {};
  const auto& probe = users_.front();
  auto& shard = *shards_.front();
  StageStats filter_stats;
  const auto candidates = shard.filter(probe, &filter_stats);
  StageStats rank_stats;
  if (!candidates.empty())
    (void)shard.rank(probe, candidates, std::max<std::size_t>(k, 1),
                     &rank_stats);
  return {filter_stats.total().latency, rank_stats.total().latency};
}

std::vector<std::size_t> ShardRouter::run_replicated(std::size_t stage,
                                                     std::size_t shard,
                                                     const Request& req,
                                                     StageStats* stats) {
  IMARS_REQUIRE(stage == 0, "ShardRouter: filter is stage 0");
  return shards_[shard]->filter(user_of(req), stats);
}

std::vector<recsys::ScoredItem> ShardRouter::run_sharded(
    std::size_t stage, std::size_t shard, const Request& req,
    std::span<const std::size_t> slice, std::size_t k, StageStats* stats) {
  IMARS_REQUIRE(stage == 1, "ShardRouter: rank is stage 1");
  return shards_[shard]->rank(user_of(req), slice, k, stats);
}

namespace {

/// Appends one pooled pass over the user's feature rows + history. The
/// first row of each table's chain is marked (its in-array cost is a bare
/// read, not a read+write+add increment).
void append_pooled_pass(const recsys::UserContext& user,
                        std::span<const std::size_t> features,
                        std::vector<RowAccess>& out) {
  auto add_feature = [&](std::size_t f) {
    bool first = true;
    for (std::size_t idx : user.sparse[f]) {
      out.push_back({ShardRouter::kUietTableBase + static_cast<std::uint32_t>(f),
                     static_cast<std::uint32_t>(idx), true, first});
      first = false;
    }
  };
  if (features.empty()) {
    for (std::size_t f = 0; f < user.sparse.size(); ++f) add_feature(f);
  } else {
    for (std::size_t f : features) add_feature(f);
  }
  bool first = true;
  for (std::size_t item : user.history) {
    out.push_back({ShardRouter::kItetTable, static_cast<std::uint32_t>(item),
                   true, first});
    first = false;
  }
}

}  // namespace

std::vector<RowAccess> ShardRouter::filter_accesses(
    const recsys::UserContext& user) const {
  std::vector<RowAccess> out;
  append_pooled_pass(user, traffic_.filter_features, out);
  return out;
}

std::vector<RowAccess> ShardRouter::rank_accesses(
    const recsys::UserContext& user,
    std::span<const std::size_t> slice) const {
  // The modeled hardware re-runs the pooled rank lookups once per candidate
  // item (backend.cpp (2b): the simulator pools once and charges every
  // repeat); mirror that so the adjustment matches the measured
  // per-candidate ET cost.
  std::vector<RowAccess> out;
  for (std::size_t item : slice) {
    append_pooled_pass(user, traffic_.rank_features, out);
    out.push_back({kItetTable, static_cast<std::uint32_t>(item), false});
  }
  return out;
}

std::vector<RowAccess> ShardRouter::accesses(
    std::size_t stage, const Request& req,
    std::span<const std::size_t> slice) const {
  std::vector<RowAccess> out;
  accesses_into(stage, req, slice, out);
  return out;
}

void ShardRouter::accesses_into(std::size_t stage, const Request& req,
                                std::span<const std::size_t> slice,
                                std::vector<RowAccess>& out) const {
  const auto& user = user_of(req);
  if (stage == 0) {
    append_pooled_pass(user, traffic_.filter_features, out);
    return;
  }
  for (std::size_t item : slice) {
    append_pooled_pass(user, traffic_.rank_features, out);
    out.push_back({kItetTable, static_cast<std::uint32_t>(item), false});
  }
}

std::vector<RowAccess> ShardRouter::update_accesses(const Request& req) const {
  return filter_accesses(user_of(req));
}

std::vector<std::size_t> ShardRouter::profile_items(const Request& req) {
  StageStats stats;  // observational probe; costs discarded
  return shards_.front()->filter(user_of(req), &stats);
}

}  // namespace imars::serve
