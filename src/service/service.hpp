// service.hpp — the tead solve service: a long-running, in-process daemon
// that accepts TeaLeaf solve requests, admits them into a bounded queue,
// and executes them on a sharded worker pool.
//
// The service is the deployment story for everything the repo has grown so
// far: requests are keyed by the result store's canonical problem hash
// (results::problem_key), each distinct problem is tuned once through
// tuning::tune and the TunedPlan cached (plan_cache.hpp), and back-to-back
// requests for the same problem are *batched* — popped from the queue
// together, resolved against one plan, and solved on the worker's pooled
// FieldStore arena so the field slab (and its NUMA first-touch placement)
// is allocated once and reused.
//
// Sharding: each worker owns its own tlp::ThreadPool, tea::FieldArena and
// simgpu::Device.  A solve never crosses workers, so slabs are always
// re-touched by the pool that first touched them and there is no allocator
// contention between workers; device-variant plans run against the shard's
// own Device (bound via simgpu::DeviceScope), so concurrent shards never
// interleave device allocations or serialize on one device mutex.  Every
// shared-memory variant is built through one call, tea::make_backend(
// variant, shard pool, run options, shard arena): the manual host family
// draws its field slab from the arena, the other variants ignore it.  Only
// distributed winners fall back to run_simulation's own SPMD world (counted
// in ServiceStats.fallback_solves).
//
// One consequence, documented here deliberately: the service runs a tuned
// plan's *variant/solver/preconditioner/fusion* choice but executes
// shared-memory variants on the worker's fixed-size pool rather than the
// plan's measured thread count — worker shard sizes are a deployment
// decision.  Threaded reductions fold per-thread partials, so results are
// bitwise reproducible at a fixed thread count but can differ in the last
// bits (and occasionally by an iteration) between thread counts: a
// response equals a sequential run_simulation at the shard's thread count,
// not at the plan's (perfbench/NOTES.md, "Known defect").
//
// Determinism contract (asserted by tests/test_service.cpp): a batched
// solve is bit-identical to the same problem solved sequentially at the
// shard's thread count — batching amortises plan resolution and
// allocation, never changes numerics.
//
// Library-first: tests, benches and tools/tead.cpp drive SolveService
// through the one replay driver, service::run_replay (replay.hpp), whose
// in-process submitter reports a refused submit() for the driver to retry
// and throws once admits() is false.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "core/backends/field_arena.hpp"
#include "core/registry.hpp"
#include "results/result_store.hpp"
#include "service/plan_cache.hpp"
#include "simgpu/device.hpp"
#include "threading/task_queue.hpp"
#include "threading/thread_pool.hpp"
#include "tuning/search.hpp"

namespace service {

struct ServiceOptions {
  int workers = 2;             // consumer threads, each with pool + arena
  int threads_per_worker = 2;  // solve-pool width of each worker shard
  std::size_t queue_capacity = 64;  // admission bound; try_push refuses past it
  std::size_t max_batch = 4;        // max same-key requests popped together

  // Plan resolution.  With tuning enabled each distinct problem key is
  // tuned once (tuning::tune against `store`) and cached; without it every
  // request runs the deck's own solver/preconditioner on default_variant —
  // the portable mode CI gates on, since tuned winners are machine-local.
  bool enable_tuning = true;
  std::string default_variant = "manual-omp";
  tuning::TuneOptions tune;  // deck_label is overridden per problem key
  std::size_t plan_cache_capacity = 32;
  std::string plan_cache_path;  // "" = in-memory only
};

struct SolveRequest {
  tl::ProblemConfig problem;
  std::string label = "req";
};

struct SolveResponse {
  std::string label;
  std::string key;      // canonical problem key (results::problem_key)
  std::string variant;  // backend variant actually executed

  // Solve outcome — the golden quantities: bit-comparable against a
  // sequential tea::run_simulation of the same problem.
  bool converged = false;
  long iterations = 0;
  long inner_iterations = 0;
  double initial_rr = 0.0;  // first step's ||r0||^2
  double final_rr = 0.0;    // last step's exit ||r||^2
  double final_temperature = 0.0;  // conserved-quantity summary

  // Service-side timing.
  double solve_seconds = 0.0;    // wall inside the driver run
  double queue_seconds = 0.0;    // admission -> dequeue
  double latency_seconds = 0.0;  // admission -> response ready
  int batch_size = 1;            // size of the group this request rode in

  std::string error;  // non-empty when the solve threw; outcome fields unset
  bool ok() const { return error.empty(); }
};

/// Completion handle for one admitted request; returned null on rejection.
struct TicketState {
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  SolveResponse response;
};
using Ticket = std::shared_ptr<TicketState>;

/// Optional push-style completion hook: invoked exactly once per admitted
/// request, after its ticket is fulfilled (including the shutdown-drain
/// error path), from whichever thread completed it.  The non-blocking net
/// frontend (src/net) uses this to wake its event loop instead of parking a
/// thread per request in wait().  The callback must not re-enter the
/// service.
using CompletionFn = std::function<void(const SolveResponse&)>;

struct ServiceStats {
  long submitted = 0;       // requests admitted
  long rejected = 0;        // requests refused at the queue bound
  long completed = 0;       // responses delivered
  long batches = 0;         // queue groups executed
  long batched_solves = 0;  // solves that shared a group of size > 1
  long fallback_solves = 0; // solves not executed on the shard (distributed
                            // winners go through run_simulation's SPMD world)
  PlanCacheStats plan;      // hits/misses/tunes/evictions
  tea::FieldArena::Stats arena;  // slab allocations vs reuses, all workers
};

class SolveService {
public:
  /// `store` backs tune measurements and must outlive the service; it may
  /// be null only when options.enable_tuning is false (throws otherwise).
  /// The constructor does NOT start workers: submit() already admits
  /// requests, so tests can fill the queue deterministically before any
  /// consumer runs.  Call start() to begin solving.
  explicit SolveService(ServiceOptions options,
                        results::ResultStore* store = nullptr);
  ~SolveService();  // shutdown()

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admission control: returns a null Ticket when the queue is at
  /// capacity or the service is shut down.  Never blocks.  A non-null
  /// `on_complete` is invoked once when the request finishes (rejected
  /// submissions never fire it — the null return IS the rejection signal).
  Ticket submit(SolveRequest request, CompletionFn on_complete = nullptr);

  /// Block until `ticket`'s solve completes and return its response.
  SolveResponse wait(const Ticket& ticket) const;

  /// False once submit() can never succeed again: the service is shut down
  /// or its queue capacity is 0.
  bool admits() const {
    return options_.queue_capacity > 0 && !queue_.closed();
  }

  /// Spawn the worker shards (idempotent).
  void start();

  /// Stop admissions, drain every queued request, join the workers.  Safe
  /// to call repeatedly; the destructor calls it.  After shutdown the
  /// persisted plan cache (if configured) has been saved.
  void shutdown();

  /// Thread-safe snapshot: callable from any thread (the net frontend's
  /// event loop serves it as the STATS frame) concurrently with start(),
  /// submit() and the worker shards.
  ServiceStats stats() const;
  PlanCache& plan_cache() { return plan_cache_; }
  const ServiceOptions& options() const { return options_; }

private:
  using Clock = std::chrono::steady_clock;

  struct QueuedRequest {
    SolveRequest request;
    std::string key;
    Clock::time_point submitted;
    Ticket ticket;
    CompletionFn on_complete;
  };

  /// Fulfil `queued`'s ticket with `response` and fire its completion hook.
  static void deliver(QueuedRequest& queued, SolveResponse response);

  struct Worker {
    std::unique_ptr<tlp::ThreadPool> pool;
    tea::FieldArena arena;
    // Shard-local simulated device for device-variant plans, sized from the
    // machine model and running kernels on this shard's pool.
    std::unique_ptr<simgpu::Device> device;
    std::thread thread;
  };

  /// The execution configuration a batch runs under: plan applied (or the
  /// no-tune deck defaults), ready for execute().
  struct ResolvedPlan {
    std::string variant;
    tl::ProblemConfig problem;
    tea::RunOptions run;
  };

  void worker_loop(Worker& worker);
  ResolvedPlan resolve(const tl::ProblemConfig& problem,
                       const std::string& key);
  tea::RunResult execute(const ResolvedPlan& plan, Worker& worker);

  ServiceOptions options_;
  results::ResultStore* store_;
  PlanCache plan_cache_;
  tlp::BoundedTaskQueue<QueuedRequest> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Guards start/shutdown transitions and the workers_ vector (stats()
  // walks it concurrently with start()).
  mutable std::mutex lifecycle_mutex_;
  bool started_ = false;
  bool shut_down_ = false;

  std::atomic<long> submitted_{0};
  std::atomic<long> rejected_{0};
  std::atomic<long> completed_{0};
  std::atomic<long> batches_{0};
  std::atomic<long> batched_solves_{0};
  std::atomic<long> fallback_solves_{0};
};

}  // namespace service
