// teactl — remote control for a running `tead --listen` daemon.
//
// Submits solve traffic (deck files and/or seeded generated populations)
// over the framed wire protocol (src/net) through the same replay driver
// and table tead uses in-process (service::run_replay,
// tools::print_replay), and queries the daemon's stats.  `--out` writes the
// deterministic golden quantities of every response as JSON — the file the
// net-smoke CI gate byte-compares against the in-process replay of the same
// population to prove a networked solve changes nothing.
//
//   teactl solve --connect unix:/run/tead.sock --decks examples/decks/tea_bm_1.in
//   teactl solve --connect tcp:127.0.0.1:4501 --gen-seed 3 --gen-count 4 \
//       --repeat 2 --connections 4 --out responses.json
//   teactl stats --connect unix:/run/tead.sock
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "net/client.hpp"
#include "replay_cli.hpp"
#include "service/replay.hpp"

namespace {

int usage() {
  std::printf(
      "usage: teactl <command> --connect ADDR [options]\n"
      "\n"
      "drive a running `tead --listen` daemon over its wire protocol\n"
      "\n"
      "commands:\n"
      "  solve              submit solve traffic and print the outcomes\n"
      "  stats              print the daemon's service counters\n"
      "\n"
      "common:\n"
      "  --connect ADDR     unix:<path> or tcp:<host>:<port> (required)\n"
      "\n"
      "solve traffic:\n"
      "  --decks P1,P2,..   deck files, one request each\n"
      "  --gen-seed S       seeded generated population (tea_sweep gen)\n"
      "  --gen-count N      population size (default 4)\n"
      "  --stress           sample the generator's hostile corner\n"
      "  --repeat N         replay the request list N times (default 1)\n"
      "  --connections N    concurrent client connections (default 1;\n"
      "                     1 preserves submission order for --out gating)\n"
      "  --window N         pipelined in-flight requests per connection\n"
      "                     (default 8)\n"
      "  --out FILE         write golden response quantities as JSON\n");
  return 2;
}

int run_solve(const tl::Cli& cli, const std::string& address) {
  const std::vector<service::SolveRequest> requests =
      tools::requests_from_cli(cli);
  if (requests.empty()) {
    std::fprintf(stderr, "teactl: no traffic (need --decks or --gen-seed)\n");
    return usage();
  }

  service::ReplayOptions options;
  options.connections = static_cast<int>(cli.get_long("connections", 1));
  options.repeats = static_cast<int>(cli.get_long("repeat", 1));
  options.window = static_cast<int>(cli.get_long("window", 8));
  const service::ReplayReport report =
      service::run_replay(net::over_wire(address), requests, options);
  tools::print_replay("teactl", report, options);

  if (const auto out = cli.get("out")) {
    std::ofstream file(*out, std::ios::binary);
    if (!file) throw tl::Error("teactl: cannot write " + *out);
    file << service::golden_responses_json(report.responses);
    std::printf("wrote %s\n", out->c_str());
  }
  return report.all_ok() ? 0 : 1;
}

int run_stats(const std::string& address) {
  net::Client client(address);
  const service::ServiceStats stats = client.stats();
  std::printf(
      "service: %ld submitted / %ld rejected / %ld completed\n"
      "batching: %ld batches (%ld batched solves), %ld fallback solves\n"
      "plan cache: %ld hits / %ld misses / %ld tunes / %ld evictions\n"
      "arena: %ld allocated / %ld reused\n",
      stats.submitted, stats.rejected, stats.completed, stats.batches,
      stats.batched_solves, stats.fallback_solves, stats.plan.hits,
      stats.plan.misses, stats.plan.tunes, stats.plan.evictions,
      stats.arena.allocated, stats.arena.reused);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tl::Cli cli(argc, argv);
  try {
    if (cli.positional().empty()) return usage();
    const std::string command = cli.positional().front();
    const auto connect = cli.get("connect");
    if (!connect) {
      std::fprintf(stderr, "teactl: --connect is required\n");
      return usage();
    }
    if (command == "solve") return run_solve(cli, *connect);
    if (command == "stats") return run_stats(*connect);
    std::fprintf(stderr, "teactl: unknown command \"%s\"\n", command.c_str());
    return usage();
  } catch (const tl::Error& e) {
    std::fprintf(stderr, "teactl: %s\n", e.what());
    return 2;
  }
}
