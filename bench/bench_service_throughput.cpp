// bench_service_throughput — synthetic traffic replay through the solve
// service (src/service): solves/sec and latency percentiles under batching
// and arena reuse, persisted as regression-gated store rows.
//
// Two cases, both seeded through the deck generator so the workload is
// fully reproducible: the smoke population, and the --stress hostile corner
// as the tail-latency case (near-singular decks drive iteration counts —
// and therefore p99 — up).  Replays run in *portable* mode (no tuning: the
// deck's own solver on manual-omp with a fixed worker/pool shape), so the
// row's instrumentation counters and iteration totals are bit-deterministic
// across hosts and the service-smoke CI job can gate them exactly, the way
// bench-smoke gates the kernel benches.  Wall-clock statistics stay
// machine-local and get a loose tolerance instead.
//
// Both modes run the one replay driver (service::run_replay) and differ only
// in the Submitter: in-process cases submit straight to the SolveService;
// `--net` puts the same service behind a poll-based net::Server on a Unix
// socket in-process, and N concurrent client connections (TEA_SERVICE_CONNS,
// default 2) replay the population through the framed protocol.  A row's
// `timing` samples and `p99_s` are both the driver's client-observed
// latencies (first submit -> reply collected).
//
// The counter delta is captured around the WHOLE replay: instrumentation is
// process-global, so per-request deltas under concurrent workers would
// interleave, but the replay-wide total is independent of scheduling — and
// since the solve set is the same deterministic population per connection,
// the --net totals gate exactly too (bench/baselines/net_smoke.json).
//
// Env knobs: TEA_SERVICE_SEED (default 3), TEA_SERVICE_COUNT (3),
// TEA_SERVICE_REPEAT (4), TEA_SERVICE_WORKERS (2), TEA_SERVICE_THREADS (2),
// TEA_SERVICE_CONNS (2, --net only).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/harness.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "machine/instrumentation.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "results/result_store.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"

namespace {

long env_long(const char* name, long fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atol(value) : fallback;
}

struct CaseResult {
  std::string name;
  service::ReplayReport report;
  service::ServiceStats stats;  // service counters at replay end
  results::ResultRow row;
};

/// One store row per case.  The key hashes the full replay identity —
/// population problems, repeat count, service shape and (for --net) the
/// connection fan-in — so changing the workload changes the key instead of
/// silently overwriting the old row.
results::ResultRow case_row(const std::string& mode, const std::string& name,
                            const std::vector<service::SolveRequest>& requests,
                            int repeats,
                            const service::ServiceOptions& svc_options,
                            int connections) {
  results::ResultRow row;
  std::string identity = mode + "/" + name;
  for (const service::SolveRequest& request : requests)
    identity += "/" + results::problem_key(request.problem);
  identity += "/r" + std::to_string(repeats) +
              "/w" + std::to_string(svc_options.workers) +
              "/t" + std::to_string(svc_options.threads_per_worker) +
              "/b" + std::to_string(svc_options.max_batch);
  if (connections > 0) identity += "/c" + std::to_string(connections);
  row.key = mode + "/" + results::fnv1a_key(identity);
  row.variant = mode + "-" + name;
  row.deck = "service-" + name;
  row.deck_hash = results::fnv1a_key(identity);
  row.solver = "service";
  row.threads = svc_options.threads_per_worker;
  row.ranks = svc_options.workers;  // worker shards, reusing the rank slot
  return row;
}

/// Replay one case through the service, in-process or (connections > 0)
/// through a Unix-socket server with that many client connections.
CaseResult run_case(const std::string& name, const gen::GenOptions& gen_options,
                    int repeats, const service::ServiceOptions& svc_options,
                    int connections) {
  CaseResult out;
  out.name = name;
  const std::vector<service::SolveRequest> requests =
      service::requests_from_gen(gen_options);
  const bool wire = connections > 0;

  service::SolveService daemon(svc_options, nullptr);
  std::unique_ptr<net::Server> server;
  std::thread io_thread;
  service::ReplayOptions options;
  options.repeats = repeats;
  service::Connect connect = service::in_process(daemon);
  if (wire) {
    net::ServerOptions server_options;
    server_options.address = "unix:/tmp/tead_bench_" +
                             std::to_string(::getpid()) + "_" + name + ".sock";
    server = std::make_unique<net::Server>(daemon, server_options);
    server->open();
    io_thread = std::thread([&server] { server->run(); });
    options.connections = connections;
    connect = net::over_wire(server->address().to_string());
  }

  const machine::CounterScope scope;  // whole-replay delta (see header note)
  out.report = service::run_replay(connect, requests, options);
  if (wire) {
    server->request_stop();
    io_thread.join();
  }
  daemon.shutdown();
  out.stats = daemon.stats();

  results::ResultRow row =
      case_row(wire ? "service-net" : "service-replay", name, requests,
               repeats, svc_options, connections);
  bool all_converged = !out.report.responses.empty();
  for (const service::SolveResponse& response : out.report.responses) {
    row.iterations += response.iterations;
    row.inner_iterations += response.inner_iterations;
    all_converged = all_converged && response.ok() && response.converged;
  }
  row.converged = all_converged;
  row.timing = results::TimingStats::from_samples(out.report.latencies);
  row.p99_s = out.report.p99_s;
  row.throughput_sps = out.report.throughput_sps;
  row.counters = scope.delta();
  out.row = row;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const tl::Cli cli(argc, argv);
  const bool net_mode = cli.has("net");
  gen::GenOptions gen_options;
  gen_options.seed = static_cast<std::uint64_t>(env_long("TEA_SERVICE_SEED", 3));
  gen_options.count = static_cast<int>(env_long("TEA_SERVICE_COUNT", 3));
  const int repeats = static_cast<int>(env_long("TEA_SERVICE_REPEAT", 4));

  service::ServiceOptions svc_options;
  svc_options.workers = static_cast<int>(env_long("TEA_SERVICE_WORKERS", 2));
  svc_options.threads_per_worker =
      static_cast<int>(env_long("TEA_SERVICE_THREADS", 2));
  // Small bound: the --net rows' connections overrun it (busy retries); an
  // in-process row's single window of 8 stays within it.
  svc_options.queue_capacity = 8;
  svc_options.max_batch = 4;
  svc_options.enable_tuning = false;  // portable mode — see header comment
  const int connections =
      net_mode ? static_cast<int>(env_long("TEA_SERVICE_CONNS", 2)) : 0;

  std::printf("== Service throughput: seeded %s replay (seed %llu, %d decks x "
              "%d repeats, %d workers x %d threads%s) ==\n",
              net_mode ? "network" : "in-process",
              static_cast<unsigned long long>(gen_options.seed),
              gen_options.count, repeats, svc_options.workers,
              svc_options.threads_per_worker,
              net_mode
                  ? (", " + std::to_string(connections) + " connections").c_str()
                  : "");

  std::vector<CaseResult> cases;
  gen::GenOptions stress_options = gen_options;
  stress_options.stress = true;  // the tail-latency case
  cases.push_back(
      run_case("gen", gen_options, repeats, svc_options, connections));
  cases.push_back(
      run_case("stress", stress_options, repeats, svc_options, connections));

  tl::Table table({"case", "solves", "solves/s", "p50 ms", "p99 ms",
                   "iters", "conv", "batches", "arena reuse", "busy retries"});
  for (const CaseResult& c : cases) {
    table.add_row(
        {c.name, std::to_string(c.report.responses.size()),
         tl::Table::num(c.report.throughput_sps, 2),
         tl::Table::num(c.report.p50_s * 1e3, 2),
         tl::Table::num(c.report.p99_s * 1e3, 2),
         std::to_string(c.row.iterations), c.row.converged ? "yes" : "NO",
         std::to_string(c.stats.batches),
         std::to_string(c.stats.arena.reused),
         std::to_string(c.report.busy_retries)});
  }
  std::printf("%s\n", table.to_ascii().c_str());

  results::ResultStore& store = bench::shared_store();
  for (const CaseResult& c : cases) store.put(c.row);
  // Save unconditionally: put() replaces same-key rows in place, which
  // sync_store()'s row-count dirtiness check cannot see.
  store.save(bench::store_path());
  bench::print_store_stats();
  return 0;
}
