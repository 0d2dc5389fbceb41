// The benchmark's workloads. The seed fixes each workload's request stream;
// see perfbench/README.md for why each exists and what it exercises.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// Paper-scale MovieLens, two-stage filter->rank through ShardRouter,
/// open-loop Poisson, read-only, hot cache holding the hot set.
std::unique_ptr<Workload> make_ml_paper(std::uint64_t seed);

/// The full retrieve->filter->rank->re-rank funnel on the same MovieLens
/// replicas, closed loop at a fixed client count.
std::unique_ptr<Workload> make_ml_funnel(std::uint64_t seed);

/// Synthetic Criteo through DLRM on CtrServable, hot/warm/cold tiers with
/// online migration, 20% embedding-update writes, open-loop Poisson.
std::unique_ptr<Workload> make_criteo_tiered_rw(std::uint64_t seed);

}  // namespace perfbench
