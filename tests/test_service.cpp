// Tests for the solve service (src/service): bounded-queue admission and
// batching, FieldStore arena reuse, plan-cache determinism and persistence,
// batched-vs-sequential golden agreement, and concurrent submit/shutdown
// (this suite runs under TSan in CI alongside test_threading/test_stress).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "core/backends/field_arena.hpp"
#include "core/registry.hpp"
#include "results/result_store.hpp"
#include "results/sweep.hpp"
#include "service/plan_cache.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"
#include "threading/task_queue.hpp"
#include "tuning/plan.hpp"

namespace {

tl::ProblemConfig tiny_problem(int mesh, int steps) {
  return results::bench_problem(mesh, steps);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// BoundedTaskQueue
// ---------------------------------------------------------------------------

TEST(TaskQueue, AdmissionRefusesAtCapacityAndAfterClose) {
  tlp::BoundedTaskQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full
  EXPECT_EQ(queue.size(), 2u);
  queue.close();
  EXPECT_FALSE(queue.try_push(4));  // closed
  // Queued entries still drain after close.
  const auto group = queue.pop_group(10, [](int, int) { return true; });
  EXPECT_EQ(group.size(), 2u);
  EXPECT_TRUE(queue.pop_group(1, [](int, int) { return true; }).empty());
}

TEST(TaskQueue, PopGroupBatchesOnlyCompatibleEntriesInOrder) {
  tlp::BoundedTaskQueue<int> queue(8);
  for (int v : {1, 3, 2, 5, 4}) ASSERT_TRUE(queue.try_push(v));
  // Group head 1 with every other odd entry, bounded at 3.
  const auto odds = queue.pop_group(
      3, [](int head, int other) { return (head % 2) == (other % 2); });
  EXPECT_EQ(odds, (std::vector<int>{1, 3, 5}));
  // Evens stayed queued, order preserved.
  const auto rest = queue.pop_group(10, [](int, int) { return true; });
  EXPECT_EQ(rest, (std::vector<int>{2, 4}));
}

TEST(TaskQueue, CloseAndDrainReturnsDropped) {
  tlp::BoundedTaskQueue<int> queue(4);
  ASSERT_TRUE(queue.try_push(7));
  ASSERT_TRUE(queue.try_push(8));
  const auto dropped = queue.close_and_drain();
  EXPECT_EQ(dropped, (std::vector<int>{7, 8}));
  EXPECT_TRUE(queue.pop_group(1, [](int, int) { return true; }).empty());
}

// ---------------------------------------------------------------------------
// FieldStore arena
// ---------------------------------------------------------------------------

TEST(FieldArena, ReusesSameGeometryAndRezeroes) {
  tea::FieldArena arena;
  tea::PartitionGeom geom;
  geom.nx = geom.gnx = 12;
  geom.ny = geom.gny = 10;

  auto first = arena.acquire(geom, nullptr);
  tea::FieldStore* slab = first.get();
  first->view(tea::FieldId::kU)(3, 4) = 42.0;
  first->swap_fields(tea::FieldId::kU, tea::FieldId::kR);
  arena.release(std::move(first));
  EXPECT_EQ(arena.pooled(), 1u);

  auto second = arena.acquire(geom, nullptr);
  EXPECT_EQ(second.get(), slab);  // same slab came back
  // Reset semantics: identity slots, every cell zero again.
  EXPECT_EQ(second->cview(tea::FieldId::kU)(3, 4), 0.0);
  EXPECT_EQ(second->cview(tea::FieldId::kR)(3, 4), 0.0);

  const tea::FieldArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.allocated, 1);
  EXPECT_EQ(stats.reused, 1);
}

TEST(FieldArena, DifferentGeometryAllocatesFresh) {
  tea::FieldArena arena;
  tea::PartitionGeom small;
  small.nx = small.gnx = 8;
  small.ny = small.gny = 8;
  tea::PartitionGeom big = small;
  big.nx = big.gnx = 16;

  arena.release(arena.acquire(small, nullptr));
  auto other = arena.acquire(big, nullptr);
  EXPECT_EQ(arena.stats().allocated, 2);
  EXPECT_EQ(arena.stats().reused, 0);
  EXPECT_EQ(arena.pooled(), 1u);  // the small slab is still pooled
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

tuning::TuneOptions tiny_tune_options() {
  tuning::TuneOptions options;
  options.budget = 2;
  options.samples = 1;
  return options;
}

TEST(PlanCache, FetchOrTuneTunesOnceThenHitsBitIdentically) {
  results::ResultStore store;
  service::PlanCache cache(4);
  const tl::ProblemConfig problem = tiny_problem(24, 1);

  const tuning::TunedPlan cold =
      cache.fetch_or_tune(store, problem, tiny_tune_options());
  const tuning::TunedPlan warm =
      cache.fetch_or_tune(store, problem, tiny_tune_options());

  const service::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.tunes, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  // The warm hit returns the stored plan bits unchanged.
  EXPECT_EQ(tuning::plan_to_json(cold).dump(), tuning::plan_to_json(warm).dump());
  EXPECT_EQ(cold.deck_hash, results::problem_key(problem));
}

TEST(PlanCache, PersistsAndReloadsEntries) {
  const std::string path = temp_path("plan_cache_roundtrip.json");
  std::remove(path.c_str());
  results::ResultStore store;
  const tl::ProblemConfig problem = tiny_problem(24, 1);

  std::string cold_json;
  {
    service::PlanCache cache(4, path);
    cache.load();  // missing file: no-op
    const tuning::TunedPlan plan =
        cache.fetch_or_tune(store, problem, tiny_tune_options());
    cold_json = tuning::plan_to_json(plan).dump();
    cache.save();
  }
  {
    service::PlanCache cache(4, path);
    cache.load();
    EXPECT_EQ(cache.size(), 1u);
    tuning::TunedPlan reloaded;
    ASSERT_TRUE(cache.lookup(service::PlanCache::key_for(problem), &reloaded));
    EXPECT_EQ(tuning::plan_to_json(reloaded).dump(), cold_json);
    EXPECT_EQ(cache.stats().tunes, 0);  // the reload never tuned
  }
  std::remove(path.c_str());
}

TEST(PlanCache, LruBoundEvictsOldest) {
  service::PlanCache cache(2);
  tuning::TunedPlan plan;
  cache.insert("a", plan);
  cache.insert("b", plan);
  ASSERT_TRUE(cache.lookup("a", nullptr));  // touch: "b" is now LRU
  cache.insert("c", plan);                  // evicts "b"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.lookup("a", nullptr));
  EXPECT_FALSE(cache.lookup("b", nullptr));
  EXPECT_TRUE(cache.lookup("c", nullptr));
}

// ---------------------------------------------------------------------------
// SolveService
// ---------------------------------------------------------------------------

service::ServiceOptions portable_options() {
  service::ServiceOptions options;
  options.workers = 2;
  options.threads_per_worker = 2;
  options.enable_tuning = false;  // deck defaults on manual-omp
  return options;
}

TEST(SolveService, RejectsDeterministicallyWhenQueueFull) {
  service::ServiceOptions options = portable_options();
  options.queue_capacity = 2;
  // Workers are NOT started: admissions are deterministic.
  service::SolveService daemon(options);
  service::SolveRequest request;
  request.problem = tiny_problem(24, 1);

  EXPECT_NE(daemon.submit(request), nullptr);
  EXPECT_NE(daemon.submit(request), nullptr);
  EXPECT_EQ(daemon.submit(request), nullptr);  // bound hit
  const service::ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.rejected, 1);
}

TEST(SolveService, ShutdownBeforeStartFailsQueuedTicketsLoudly) {
  service::ServiceOptions options = portable_options();
  service::SolveService daemon(options);
  service::SolveRequest request;
  request.problem = tiny_problem(24, 1);
  const service::Ticket ticket = daemon.submit(request);
  ASSERT_NE(ticket, nullptr);
  daemon.shutdown();  // never started: the request cannot be served
  const service::SolveResponse response = daemon.wait(ticket);
  EXPECT_FALSE(response.ok());
  EXPECT_NE(response.error.find("shut down"), std::string::npos);
}

TEST(SolveService, BatchedSolvesMatchSequentialBitwise) {
  const tl::ProblemConfig problem = tiny_problem(32, 2);

  // Sequential reference: the ordinary one-shot entry point.
  tea::RunOptions run_options;
  run_options.threads = 2;
  const tea::RunResult reference =
      tea::run_simulation("manual-omp", problem, run_options);
  ASSERT_TRUE(reference.all_converged());

  // Service: same requests submitted back-to-back so they batch and the
  // later solves run on arena-reused slabs.
  service::ServiceOptions options = portable_options();
  options.workers = 1;  // one shard: every request shares pool + arena
  options.max_batch = 3;
  service::SolveService daemon(options);
  std::vector<service::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    service::SolveRequest request;
    request.label = "golden-" + std::to_string(i);
    request.problem = problem;
    tickets.push_back(daemon.submit(request));
    ASSERT_NE(tickets.back(), nullptr);
  }
  daemon.start();
  for (const service::Ticket& ticket : tickets) {
    const service::SolveResponse response = daemon.wait(ticket);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.variant, "manual-omp");
    EXPECT_EQ(response.batch_size, 3);
    EXPECT_TRUE(response.converged);
    // Bit-exact agreement: batching and arena reuse never change numerics.
    EXPECT_EQ(response.iterations, reference.total_iterations);
    EXPECT_EQ(response.initial_rr, reference.steps.front().solve.initial_rr);
    EXPECT_EQ(response.final_rr, reference.steps.back().solve.final_rr);
    EXPECT_EQ(response.final_temperature, reference.final_summary.temp);
  }
  daemon.shutdown();
  const service::ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.batched_solves, 3);
  EXPECT_EQ(stats.arena.allocated, 1);
  EXPECT_EQ(stats.arena.reused, 2);
}

TEST(SolveService, HostVariantsSolveOnTheirShardPools) {
  // Regression: raja-omp, kokkos-omp and manual-acc-cpu ignored the shard's
  // pool and forked on the process-global one, where two shards dispatching
  // at once hung.  On their shard pools every request completes, bitwise
  // equal to a sequential solve at the shard's thread count.
  const std::vector<tl::ProblemConfig> problems = {
      tiny_problem(24, 1), tiny_problem(32, 1), tiny_problem(28, 2),
      tiny_problem(36, 1)};
  for (const char* variant : {"raja-omp", "kokkos-omp", "manual-acc-cpu"}) {
    service::ServiceOptions options = portable_options();
    options.default_variant = variant;
    tea::RunOptions run_options;
    run_options.threads = options.threads_per_worker;
    std::vector<tea::RunResult> references;
    for (const tl::ProblemConfig& problem : problems) {
      references.push_back(
          tea::run_simulation(variant, problem, run_options));
    }

    service::SolveService daemon(options);
    daemon.start();
    std::vector<service::Ticket> tickets;
    for (int round = 0; round < 2; ++round) {
      for (std::size_t p = 0; p < problems.size(); ++p) {
        service::SolveRequest request;
        request.label = std::string(variant) + "-" + std::to_string(p);
        request.problem = problems[p];
        tickets.push_back(daemon.submit(request));
        ASSERT_NE(tickets.back(), nullptr);
      }
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const service::SolveResponse response = daemon.wait(tickets[i]);
      const tea::RunResult& reference = references[i % problems.size()];
      ASSERT_TRUE(response.ok()) << variant << ": " << response.error;
      EXPECT_EQ(response.variant, variant);
      EXPECT_EQ(response.iterations, reference.total_iterations) << variant;
      EXPECT_EQ(response.initial_rr, reference.steps.front().solve.initial_rr)
          << variant;
      EXPECT_EQ(response.final_rr, reference.steps.back().solve.final_rr)
          << variant;
      EXPECT_EQ(response.final_temperature, reference.final_summary.temp)
          << variant;
    }
    daemon.shutdown();
    EXPECT_EQ(daemon.stats().completed,
              static_cast<long>(tickets.size()))
        << variant;
  }
}

TEST(SolveService, HostFamilySolvesReuseTheShardArena) {
  // serial and manual-omp build their backend through make_backend with the
  // shard's arena: repeated same-key solves on one shard allocate the field
  // slab once and reuse it after that.
  for (const char* variant : {"serial", "manual-omp"}) {
    service::ServiceOptions options = portable_options();
    options.workers = 1;
    options.default_variant = variant;
    service::SolveService daemon(options);
    daemon.start();
    service::SolveRequest request;
    request.problem = tiny_problem(24, 1);
    for (int i = 0; i < 3; ++i) {
      const service::Ticket ticket = daemon.submit(request);
      ASSERT_NE(ticket, nullptr);
      const service::SolveResponse response = daemon.wait(ticket);
      ASSERT_TRUE(response.ok()) << response.error;
      EXPECT_EQ(response.variant, variant);
    }
    daemon.shutdown();
    const service::ServiceStats stats = daemon.stats();
    EXPECT_EQ(stats.arena.allocated, 1) << variant;
    EXPECT_EQ(stats.arena.reused, 2) << variant;
  }
}

TEST(SolveService, ConcurrentSubmittersAllGetResponses) {
  service::ServiceOptions options = portable_options();
  options.queue_capacity = 4;  // small: forces rejections under contention
  options.max_batch = 2;
  service::SolveService daemon(options);
  daemon.start();

  const tl::ProblemConfig problem = tiny_problem(24, 1);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;
  std::atomic<long> served{0};
  std::atomic<long> refused{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        service::SolveRequest request;
        request.label = "p" + std::to_string(p) + "-" + std::to_string(i);
        request.problem = problem;
        const service::Ticket ticket = daemon.submit(request);
        if (ticket == nullptr) {
          ++refused;  // admission control under load is expected
          continue;
        }
        const service::SolveResponse response = daemon.wait(ticket);
        EXPECT_TRUE(response.ok()) << response.error;
        ++served;
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  daemon.shutdown();

  EXPECT_EQ(served + refused, kProducers * kPerProducer);
  EXPECT_GT(served.load(), 0);
  const service::ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, served.load());
  EXPECT_EQ(stats.submitted, served.load());
  EXPECT_EQ(stats.rejected, refused.load());
}

TEST(SolveService, ReplayAppliesBackpressureAndServesEverything) {
  service::ServiceOptions options = portable_options();
  options.queue_capacity = 2;
  service::SolveService daemon(options);
  std::vector<service::SolveRequest> requests(2);
  requests[0].label = "a";
  requests[0].problem = tiny_problem(24, 1);
  requests[1].label = "b";
  requests[1].problem = tiny_problem(32, 1);
  service::ReplayOptions replay_options;
  replay_options.repeats = 4;
  replay_options.window = 8;  // never binds: the queue bound refuses first
  const service::ReplayReport report = service::run_replay(
      service::in_process(daemon), requests, replay_options);
  daemon.shutdown();
  EXPECT_EQ(report.responses.size(), 8u);
  EXPECT_EQ(report.latencies.size(), 8u);
  EXPECT_TRUE(report.all_ok());
  EXPECT_GT(report.throughput_sps, 0.0);
  EXPECT_GE(report.p99_s, report.p50_s);
  // Responses come back in submission order.
  EXPECT_EQ(report.responses.front().label, "a");
  EXPECT_EQ(report.responses.back().label, "b");
}

TEST(SolveService, ReplayFailsClosedWhenTheServiceAdmitsNothing) {
  // A refusal with nothing in flight is only worth retrying while the
  // service can still admit: shut down or zero capacity is an error, not
  // an endless back-off.
  std::vector<service::SolveRequest> requests(1);
  requests[0].problem = tiny_problem(16, 1);
  service::SolveService shut(portable_options());
  shut.shutdown();
  EXPECT_FALSE(shut.admits());
  EXPECT_THROW(service::run_replay(service::in_process(shut), requests, {}),
               tl::Error);

  service::ServiceOptions options = portable_options();
  options.queue_capacity = 0;
  service::SolveService closed(options);
  EXPECT_FALSE(closed.admits());
  EXPECT_THROW(service::run_replay(service::in_process(closed), requests, {}),
               tl::Error);
  EXPECT_EQ(closed.stats().rejected, 1);
}

/// A scripted Submitter: refuses the first `refusals[label]` submissions
/// of each label (resubmissions included) and otherwise echoes the label
/// back as an immediate response.  Labels in `on_the_spot` are refused by
/// submit() itself, the others by a BUSY reply from wait().
class FakeSubmitter final : public service::Submitter {
 public:
  FakeSubmitter(std::map<std::string, int> refusals,
                std::set<std::string> on_the_spot, std::atomic<int>* submits)
      : refusals_(std::move(refusals)),
        on_the_spot_(std::move(on_the_spot)),
        submits_(submits) {}
  std::optional<std::uint64_t> submit(
      const service::SolveRequest& request) override {
    submits_->fetch_add(1);
    int& refusals = refusals_[request.label];
    const bool busy = refusals > 0;
    if (busy) --refusals;
    if (busy && on_the_spot_.count(request.label) > 0) return std::nullopt;
    replies_[next_id_].busy = busy;
    replies_[next_id_].response.label = request.label;
    return next_id_++;
  }
  service::Reply wait(std::uint64_t id) override {
    const service::Reply reply = replies_.at(id);
    replies_.erase(id);
    return reply;
  }

 private:
  std::map<std::string, int> refusals_;
  std::set<std::string> on_the_spot_;
  std::atomic<int>* submits_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, service::Reply> replies_;
};

TEST(Replay, DriverRetriesBusyAndKeepsOrderAcrossConnections) {
  std::vector<service::SolveRequest> requests(3);
  for (std::size_t i = 0; i < requests.size(); ++i)
    requests[i].label = "r" + std::to_string(i);
  std::atomic<int> submits{0};
  std::atomic<int> opened{0};
  // The first connection opened refuses r0 twice in a row by BUSY reply and
  // r2 once on the spot; the second refuses r2 once on the spot.  Four
  // retries whatever the window.
  const service::Connect connect = [&submits, &opened] {
    std::map<std::string, int> refusals = {{"r2", 1}};
    if (opened.fetch_add(1) == 0) refusals["r0"] = 2;
    return std::make_unique<FakeSubmitter>(std::move(refusals),
                                           std::set<std::string>{"r2"},
                                           &submits);
  };
  for (const int window : {1, 2, 100}) {
    submits = 0;
    opened = 0;
    service::ReplayOptions options;
    options.connections = 2;
    options.repeats = 2;
    options.window = window;
    const service::ReplayReport report =
        service::run_replay(connect, requests, options);
    ASSERT_EQ(report.responses.size(), 12u) << "window " << window;
    ASSERT_EQ(report.latencies.size(), 12u);
    EXPECT_TRUE(report.all_ok());
    EXPECT_EQ(report.busy_retries, 4) << "window " << window;
    EXPECT_EQ(submits.load(), 12 + 4) << "window " << window;
    // Each connection's block is the request list twice, in order.
    for (std::size_t i = 0; i < report.responses.size(); ++i)
      EXPECT_EQ(report.responses[i].label, requests[i % 3].label)
          << "slot " << i << ", window " << window;
    for (const double latency : report.latencies) EXPECT_GE(latency, 0.0);
  }
}

TEST(Replay, ConnectionFailureIsReported) {
  const service::Connect connect = []() -> std::unique_ptr<service::Submitter> {
    throw tl::Error("no route");
  };
  std::vector<service::SolveRequest> requests(1);
  EXPECT_THROW(service::run_replay(connect, requests, {}), tl::Error);
}

TEST(Replay, PercentilesAreNearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i * 0.001);
  EXPECT_DOUBLE_EQ(service::latency_percentile(samples, 0.5), 0.051);
  EXPECT_DOUBLE_EQ(service::latency_percentile(samples, 0.99), 0.099);
  EXPECT_DOUBLE_EQ(service::latency_percentile(samples, 1.0), 0.100);
  EXPECT_DOUBLE_EQ(service::latency_percentile({}, 0.5), 0.0);
}

// A TunedPlan whose winner is a device variant, shaped like the tuner
// would emit for `problem` (solver/precon lifted from the deck, no
// device-choice table so the winner applies at every mesh).
tuning::TunedPlan device_plan_for(const tl::ProblemConfig& problem,
                                  const std::string& variant) {
  tuning::TunedPlan plan;
  plan.deck = "injected";
  plan.deck_hash = results::problem_key(problem);
  plan.mesh_x = problem.x_cells;
  plan.mesh_y = problem.y_cells;
  plan.steps = problem.end_step;
  plan.winner.variant = variant;
  plan.winner.solver = tl::to_string(problem.solver);
  plan.winner.precon = tl::to_string(problem.preconditioner);
  return plan;
}

TEST(SolveService, DeviceVariantBatchesMatchSequentialBitwise) {
  // Satellite contract: a device-variant plan executes on the worker's own
  // shard (pool + DeviceScope-bound Device), never through a silent
  // run_simulation fallback — and batching still never changes numerics.
  const tl::ProblemConfig problem = tiny_problem(32, 2);
  const tea::RunResult reference =
      tea::run_simulation("manual-cuda", problem, {});
  ASSERT_TRUE(reference.all_converged());

  results::ResultStore store;
  service::ServiceOptions options;
  options.workers = 1;
  options.threads_per_worker = 2;
  options.enable_tuning = true;
  options.max_batch = 3;
  service::SolveService daemon(options, &store);
  daemon.plan_cache().insert(service::PlanCache::key_for(problem),
                             device_plan_for(problem, "manual-cuda"));
  std::vector<service::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    service::SolveRequest request;
    request.label = "gpu-" + std::to_string(i);
    request.problem = problem;
    tickets.push_back(daemon.submit(request));
    ASSERT_NE(tickets.back(), nullptr);
  }
  daemon.start();
  for (const service::Ticket& ticket : tickets) {
    const service::SolveResponse response = daemon.wait(ticket);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.variant, "manual-cuda");
    EXPECT_EQ(response.batch_size, 3);
    EXPECT_TRUE(response.converged);
    EXPECT_EQ(response.iterations, reference.total_iterations);
    EXPECT_EQ(response.initial_rr, reference.steps.front().solve.initial_rr);
    EXPECT_EQ(response.final_rr, reference.steps.back().solve.final_rr);
    EXPECT_EQ(response.final_temperature, reference.final_summary.temp);
  }
  daemon.shutdown();
  const service::ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.fallback_solves, 0);  // the shard served every solve
}

TEST(SolveService, ConcurrentShardsSolveOnPrivateDevices) {
  // Two shards, two distinct device-variant problems queued before start:
  // the workers race through construction, kernels and teardown on their
  // own Devices.  This runs under TSan in CI — a shared device would trip
  // it (and the allocator bookkeeping would cross-talk).
  results::ResultStore store;
  service::ServiceOptions options;
  options.workers = 2;
  options.threads_per_worker = 2;
  options.enable_tuning = true;
  service::SolveService daemon(options, &store);
  const tl::ProblemConfig small = tiny_problem(24, 1);
  const tl::ProblemConfig large = tiny_problem(32, 1);
  daemon.plan_cache().insert(service::PlanCache::key_for(small),
                             device_plan_for(small, "manual-cuda"));
  daemon.plan_cache().insert(service::PlanCache::key_for(large),
                             device_plan_for(large, "kokkos-cuda"));
  std::vector<service::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    service::SolveRequest request;
    request.label = "shard-" + std::to_string(i);
    request.problem = (i % 2 == 0) ? small : large;
    tickets.push_back(daemon.submit(request));
    ASSERT_NE(tickets.back(), nullptr);
  }
  daemon.start();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const service::SolveResponse response = daemon.wait(tickets[i]);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.variant, i % 2 == 0 ? "manual-cuda" : "kokkos-cuda");
    EXPECT_TRUE(response.converged);
  }
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().fallback_solves, 0);
}

TEST(SolveService, DistributedWinnersFallBackAndAreCounted) {
  results::ResultStore store;
  service::ServiceOptions options;
  options.workers = 1;
  options.threads_per_worker = 2;
  options.enable_tuning = true;
  service::SolveService daemon(options, &store);
  const tl::ProblemConfig problem = tiny_problem(24, 1);
  tuning::TunedPlan plan = device_plan_for(problem, "manual-mpi");
  plan.winner.ranks = 2;
  daemon.plan_cache().insert(service::PlanCache::key_for(problem), plan);
  daemon.start();
  service::SolveRequest request;
  request.problem = problem;
  const service::Ticket ticket = daemon.submit(request);
  ASSERT_NE(ticket, nullptr);
  const service::SolveResponse response = daemon.wait(ticket);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.variant, "manual-mpi");
  EXPECT_TRUE(response.converged);
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().fallback_solves, 1);
}

TEST(SolveService, TunedModeCachesPlansPerProblem) {
  results::ResultStore store;
  service::ServiceOptions options;
  options.workers = 1;
  options.threads_per_worker = 2;
  options.enable_tuning = true;
  options.tune = tiny_tune_options();
  service::SolveService daemon(options, &store);
  std::vector<service::SolveRequest> requests(1);
  requests[0].label = "tuned";
  requests[0].problem = tiny_problem(24, 1);
  service::ReplayOptions replay_options;
  replay_options.repeats = 3;
  const service::ReplayReport report = service::run_replay(
      service::in_process(daemon), requests, replay_options);
  daemon.shutdown();
  ASSERT_TRUE(report.all_ok());
  const service::ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.plan.tunes, 1);  // one distinct problem: one tune
  EXPECT_EQ(stats.plan.misses, 1);
  EXPECT_GT(store.size(), 0u);  // tune measurements landed in the store
}

}  // namespace
