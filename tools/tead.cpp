// tead — CLI frontend over the solve service (src/service).
//
// Two modes.  The replay mode builds a request list (deck files and/or a
// seeded generated population), replays it through an in-process
// SolveService with service::run_replay, and prints the per-request
// outcomes plus the service counters: throughput, latency percentiles,
// plan-cache hits/misses/tunes and field-arena reuse.  The daemon mode
// (`--listen unix:<path>` / `tcp:<host>:<port>`) serves the same
// SolveService to remote clients over the framed wire protocol (src/net)
// until SIGINT/SIGTERM, which triggers a clean drain: listener closed
// first, in-flight requests answered, then shutdown — never process
// teardown mid-solve.  Everything the daemon does is library code
// exercised identically by the tests and benches; this binary only parses
// flags and renders tables (see docs/SERVICE.md).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "net/server.hpp"
#include "results/result_store.hpp"
#include "replay_cli.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"

namespace {

int usage() {
  std::printf(
      "usage: tead (--decks a.in,b.in,.. | --gen-seed S [--gen-count N]\n"
      "            [--stress]) [options]\n"
      "       tead --listen (unix:<path> | tcp:<host>:<port>) [options]\n"
      "\n"
      "replay solve traffic through the in-process solve service, or serve\n"
      "it to remote teactl clients over the wire (docs/SERVICE.md)\n"
      "\n"
      "traffic (replay mode):\n"
      "  --decks P1,P2,..   deck files, one request each\n"
      "  --gen-seed S       seeded generated population (tea_sweep gen)\n"
      "  --gen-count N      population size (default 4)\n"
      "  --stress           sample the generator's hostile corner\n"
      "  --repeat N         replay the request list N times (default 1)\n"
      "  --out FILE         write golden response quantities as JSON\n"
      "\n"
      "daemon mode:\n"
      "  --listen ADDR      serve the wire protocol on unix:<path> or\n"
      "                     tcp:<host>:<port> until SIGINT/SIGTERM\n"
      "  --connections N    accepted-connection cap (default 64)\n"
      "\n"
      "service:\n"
      "  --workers N        worker shards (default 2)\n"
      "  --threads N        solve-pool width per worker (default 2)\n"
      "  --queue N          admission bound (default 64)\n"
      "  --batch N          max same-problem requests per batch (default 4)\n"
      "  --no-tune          skip tuning: deck defaults on --variant\n"
      "  --variant V        no-tune backend variant (default manual-omp)\n"
      "  --budget N         tune refinement width (default 4)\n"
      "  --samples N        tune timing samples (default 1)\n"
      "  --store P          result store backing tune measurements\n"
      "                     (default: $TEA_RESULTS or BENCH_results.json)\n"
      "  --plan-cache P     persisted plan cache (default <store>.plans.json;\n"
      "                     'none' disables persistence)\n"
      "  --cache-capacity N plan-cache LRU bound (default 32)\n");
  return 2;
}

/// Serve the wire protocol until SIGINT/SIGTERM requests a clean drain.
int run_daemon(const std::string& listen_address,
               const tl::Cli& cli, service::ServiceOptions options,
               results::ResultStore& store, const std::string& store_path) {
  service::SolveService daemon(options, &store);
  net::ServerOptions server_options;
  server_options.address = listen_address;
  server_options.max_connections =
      static_cast<int>(cli.get_long("connections", 64));
  net::Server server(daemon, server_options);
  server.open();
  std::printf("tead: serving on %s (%d workers x %d threads, queue %zu, %s)\n",
              server.address().to_string().c_str(), options.workers,
              options.threads_per_worker, options.queue_capacity,
              options.enable_tuning ? "tuned" : "portable");
  std::fflush(stdout);

  net::install_signal_handlers(&server);
  server.run();  // returns after the signal-triggered graceful drain
  net::install_signal_handlers(nullptr);

  daemon.shutdown();  // persists the plan cache
  if (options.enable_tuning) store.save(store_path);

  const net::ServerIoStats io = server.io_stats();
  const service::ServiceStats stats = daemon.stats();
  std::printf(
      "tead: drained; %ld connections (%ld disconnects), %ld frames in / "
      "%ld out, %ld requests (%ld busy, %ld bad, %ld protocol errors), "
      "%ld stats queries\n",
      io.accepted, io.disconnects, io.frames_in, io.frames_out, io.requests,
      io.busy_replies, io.request_errors, io.protocol_errors,
      io.stats_queries);
  std::printf(
      "service: %ld completed, %ld batches (%ld batched solves), plan cache "
      "%ld hits / %ld misses / %ld tunes, arena %ld allocated / %ld reused\n",
      stats.completed, stats.batches, stats.batched_solves, stats.plan.hits,
      stats.plan.misses, stats.plan.tunes, stats.arena.allocated,
      stats.arena.reused);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tl::Cli cli(argc, argv);
  try {
    const std::vector<service::SolveRequest> requests =
        tools::requests_from_cli(cli);
    const bool listen = cli.has("listen");
    if (requests.empty() && !listen) {
      std::fprintf(stderr, "tead: no traffic (need --decks or --gen-seed)\n");
      return usage();
    }

    // Service.
    service::ServiceOptions options;
    options.workers = static_cast<int>(cli.get_long("workers", 2));
    options.threads_per_worker = static_cast<int>(cli.get_long("threads", 2));
    options.queue_capacity =
        static_cast<std::size_t>(cli.get_long("queue", 64));
    options.max_batch = static_cast<std::size_t>(cli.get_long("batch", 4));
    options.enable_tuning = !cli.has("no-tune");
    options.default_variant = cli.get_or("variant", "manual-omp");
    options.tune.budget = static_cast<int>(cli.get_long("budget", 4));
    options.tune.samples = static_cast<int>(cli.get_long("samples", 1));
    options.plan_cache_capacity =
        static_cast<std::size_t>(cli.get_long("cache-capacity", 32));

    const std::string store_path = cli.get_or("store", bench::store_path());
    std::string cache_path = cli.get_or("plan-cache", store_path + ".plans.json");
    if (cache_path == "none") cache_path.clear();
    options.plan_cache_path = cache_path;

    results::ResultStore store = results::ResultStore::load(store_path);
    if (listen)
      return run_daemon(cli.get_or("listen", ""), cli, options, store,
                        store_path);

    service::ReplayOptions replay_options;
    replay_options.repeats = static_cast<int>(cli.get_long("repeat", 1));
    service::ReplayReport report;
    service::ServiceStats stats;
    {
      service::SolveService daemon(options, &store);
      report = service::run_replay(service::in_process(daemon), requests,
                                   replay_options);
      daemon.shutdown();  // persists the plan cache
      stats = daemon.stats();
    }
    if (options.enable_tuning) store.save(store_path);
    if (const auto out = cli.get("out")) {
      std::ofstream file(*out, std::ios::binary);
      if (!file) throw tl::Error("tead: cannot write " + *out);
      file << service::golden_responses_json(report.responses);
    }

    tools::print_replay("tead", report, replay_options);
    std::printf(
        "service: %ld batches (%ld batched solves), plan cache %ld hits / "
        "%ld misses / %ld tunes / %ld evictions, arena %ld allocated / "
        "%ld reused\n",
        stats.batches, stats.batched_solves, stats.plan.hits,
        stats.plan.misses, stats.plan.tunes, stats.plan.evictions,
        stats.arena.allocated, stats.arena.reused);
    return report.all_ok() ? 0 : 1;
  } catch (const tl::Error& e) {
    std::fprintf(stderr, "tead: %s\n", e.what());
    return 2;
  }
}
