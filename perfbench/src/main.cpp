// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <ml_paper|criteo_tiered_rw|ml_funnel> --seed <n>
//             --seconds <s> [--trace] [--trace-out <file>]
//
// Prints a header line, progress on stderr, and as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding every
// metric the run measured (perfbench/run.py selects the published set).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <ml_paper|criteo_tiered_rw|"
               "ml_funnel> --seed <n> --seconds <s> [--trace] "
               "[--trace-out <file>]\n";
  return 2;
}

std::unique_ptr<perfbench::Workload> make(std::string_view name,
                                          std::uint64_t seed) {
  if (name == "ml_paper") return perfbench::make_ml_paper(seed);
  if (name == "criteo_tiered_rw")
    return perfbench::make_criteo_tiered_rw(seed);
  if (name == "ml_funnel") return perfbench::make_ml_funnel(seed);
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  std::uint64_t seed = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a(argv[i]);
    const bool has_value = i + 1 < argc;
    if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (a == "--trace-out" && has_value) {
      opt.trace_path = argv[++i];
    } else {
      return usage();
    }
  }
  auto w = make(workload, seed);
  if (!w || !have_seed || !have_seconds || !(opt.seconds > 0.0))
    return usage();

  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u build=%s compiler=\"%s\" commit=%s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              opt.seconds, opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, commit ? commit : "unknown");
  std::fflush(stdout);

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(*w, opt);
  } catch (const std::exception& e) {
    std::cerr << "[perfbench] error: " << e.what() << "\n";
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const auto& [name, value] : r.metrics.items()) {
    if (!std::isfinite(value)) {
      std::cerr << "[perfbench] metric " << name << " is not finite\n";
      return 1;
    }
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
