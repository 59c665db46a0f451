// perfbench — the repo benchmark driver.
//
//   perfbench --workload <solve-dram|solve-small> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Run from the checkout root: the decks are read from perfbench/decks.
//
// Prints the host fingerprint, every check's verdict and every metric with
// its unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics; --trace 1 wraps the layers
// in timers and reports the per-layer metrics instead.  See NOTES.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/cli.hpp"
#include "solve_common.hpp"

namespace {

void print_result(const pb::Outcome& out) {
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const auto& [name, metric] : out.metrics)
    std::printf("%-40s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  std::printf("verdict: %s (%ld attempted, %ld failed, %ld bitwise "
              "mismatches vs serial)\n",
              out.correct ? "PASS" : "FAIL", out.attempted, out.failed,
              out.serial_mismatches);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // Substrates that own their threads (minikokkos, miniraja) run on the
  // global pool; size it like every other threaded solve.
  ::setenv("TL_NUM_THREADS", std::to_string(pb::kSolveThreads).c_str(), 1);

  const tl::Cli cli(argc, argv);
  pb::Args args;
  args.workload = cli.get_or("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get_long("seed", 1));
  args.seconds = cli.get_double("seconds", 10.0);
  args.trace = cli.get_long("trace", 0) != 0;
  args.out_dir = cli.get_or("out-dir", ".");

  pb::Outcome (*run)(const pb::Args&) = nullptr;
  if (args.workload == "solve-dram") run = pb::run_solve_dram;
  if (args.workload == "solve-small") run = pb::run_solve_small;
  if (run == nullptr || !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload solve-dram|solve-small "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    pb::Outcome out = run(args);
    for (auto& [name, metric] : out.metrics) {
      if (!std::isfinite(metric.value)) {
        out.fail(name + " is not finite");
        metric.value = 0.0;
      }
    }
    if (out.attempted < 1) out.fail("nothing was attempted");
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
