// replay_cli.hpp — the traffic flags and the replay table tead and teactl
// share, so both tools read requests and show a replay the same way.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "service/replay.hpp"

namespace tools {

/// One request per `--decks` file, then the `--gen-seed`/`--gen-count`/
/// `--stress` generated population.
inline std::vector<service::SolveRequest> requests_from_cli(
    const tl::Cli& cli) {
  std::vector<service::SolveRequest> requests;
  if (const auto decks = cli.get("decks")) {
    for (const std::string& path : tl::split(*decks, ',')) {
      service::SolveRequest request;
      request.label = path;
      request.problem = tl::Config::load(path).problem();
      requests.push_back(std::move(request));
    }
  }
  if (cli.has("gen-seed")) {
    gen::GenOptions options;
    options.seed = static_cast<std::uint64_t>(cli.get_long("gen-seed", 1));
    options.count = static_cast<int>(cli.get_long("gen-count", 4));
    options.stress = cli.has("stress");
    for (service::SolveRequest& request : service::requests_from_gen(options))
      requests.push_back(std::move(request));
  }
  return requests;
}

/// Failures to stderr prefixed with `tool`, the per-request table, then
/// one summary line.
inline void print_replay(const char* tool, const service::ReplayReport& report,
                  const service::ReplayOptions& options) {
  const auto ms = [](double seconds) { return tl::Table::num(seconds * 1e3); };
  tl::Table table({"request", "variant", "conv", "iters", "batch", "queue_ms",
                   "solve_ms", "latency_ms"});
  for (std::size_t i = 0; i < report.responses.size(); ++i) {
    const service::SolveResponse& response = report.responses[i];
    if (!response.ok()) {
      std::fprintf(stderr, "%s: %s failed: %s\n", tool, response.label.c_str(),
                   response.error.c_str());
      continue;
    }
    table.add_row({response.label, response.variant,
                   response.converged ? "yes" : "NO",
                   std::to_string(response.iterations),
                   std::to_string(response.batch_size),
                   ms(response.queue_seconds), ms(response.solve_seconds),
                   ms(report.latencies[i])});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf(
      "replay: %zu responses over %d connection(s) in %.3f s  (%.2f "
      "solves/s, p50 %.2f ms, p99 %.2f ms, %ld busy retries)\n",
      report.responses.size(), options.connections, report.wall_seconds,
      report.throughput_sps, report.p50_s * 1e3, report.p99_s * 1e3,
      report.busy_retries);
}

}  // namespace tools
