#include "service/service.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/driver.hpp"
#include "tuning/plan.hpp"

namespace service {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

SolveService::SolveService(ServiceOptions options, results::ResultStore* store)
    : options_(std::move(options)),
      store_(store),
      plan_cache_(options_.plan_cache_capacity, options_.plan_cache_path),
      queue_(options_.queue_capacity) {
  if (options_.enable_tuning && store_ == nullptr)
    throw tl::ConfigError(
        "SolveService: tuning enabled but no result store supplied");
  if (options_.workers < 1)
    throw tl::ConfigError("SolveService: need at least one worker");
  plan_cache_.load();
}

SolveService::~SolveService() { shutdown(); }

Ticket SolveService::submit(SolveRequest request, CompletionFn on_complete) {
  QueuedRequest queued;
  queued.key = PlanCache::key_for(request.problem);
  queued.submitted = Clock::now();
  queued.ticket = std::make_shared<TicketState>();
  queued.on_complete = std::move(on_complete);
  queued.request = std::move(request);
  Ticket ticket = queued.ticket;
  if (!queue_.try_push(std::move(queued))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

SolveResponse SolveService::wait(const Ticket& ticket) const {
  TL_REQUIRE(ticket != nullptr, "wait() on a rejected (null) ticket");
  std::unique_lock<std::mutex> lock(ticket->mutex);
  ticket->done_cv.wait(lock, [&] { return ticket->done; });
  return ticket->response;
}

void SolveService::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_ || shut_down_) return;
  started_ = true;
  for (int w = 0; w < options_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->pool =
        std::make_unique<tlp::ThreadPool>(std::max(1, options_.threads_per_worker));
    worker->device = std::make_unique<simgpu::Device>(
        tea::device_capacity_bytes(), worker->pool.get());
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { worker_loop(*raw); });
    workers_.push_back(std::move(worker));
  }
}

void SolveService::shutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (shut_down_) return;
  shut_down_ = true;
  queue_.close();  // refuse new admissions; queued requests drain
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Without workers (never started), fail whatever is still queued so
  // wait() never deadlocks on a drained-but-unserved ticket.
  for (QueuedRequest& dropped : queue_.close_and_drain()) {
    SolveResponse response;
    response.label = dropped.request.label;
    response.key = dropped.key;
    response.error = "service shut down before the request was served";
    deliver(dropped, std::move(response));
  }
  plan_cache_.save();
}

void SolveService::deliver(QueuedRequest& queued, SolveResponse response) {
  // The completion hook gets its own copy before the ticket takes
  // ownership: once done flips, a wait()er may be reading the response.
  if (queued.on_complete) queued.on_complete(response);
  {
    std::lock_guard<std::mutex> ticket_lock(queued.ticket->mutex);
    queued.ticket->response = std::move(response);
    queued.ticket->done = true;
  }
  queued.ticket->done_cv.notify_all();
}

SolveService::ResolvedPlan SolveService::resolve(
    const tl::ProblemConfig& problem, const std::string& key) {
  ResolvedPlan resolved;
  resolved.problem = problem;
  if (!options_.enable_tuning) {
    // Portable mode: the deck's own solver/preconditioner on the default
    // variant.  This is what CI gates with exact counters — tuned winners
    // are machine-local, deck defaults are not.
    resolved.variant = options_.default_variant;
    resolved.run.threads = options_.threads_per_worker;
    return resolved;
  }
  tuning::TuneOptions tune_options = options_.tune;
  // Deterministic per-problem label: plan rows and cache bytes must not
  // depend on which request's label reached the tuner first.
  tune_options.deck_label = "svc-" + key.substr(0, 12);
  const tuning::TunedPlan plan =
      plan_cache_.fetch_or_tune(*store_, problem, tune_options);
  // Mesh-aware application: a plan carrying a device-choice table runs the
  // request on whichever side of the crossover its mesh falls.
  resolved.variant =
      tuning::apply_plan_for_mesh(plan, &resolved.problem, &resolved.run);
  return resolved;
}

tea::RunResult SolveService::execute(const ResolvedPlan& plan,
                                     Worker& worker) {
  // Distributed winners need run_simulation's SPMD world; counted so
  // deployments can see plans escaping the shard path.
  if (tea::backend_is_distributed(plan.variant)) {
    fallback_solves_.fetch_add(1, std::memory_order_relaxed);
    return tea::run_simulation(plan.variant, plan.problem, plan.run);
  }
  // Every shared-memory variant executes on the shard: its pool runs the
  // kernels, its arena pools the manual host family's field slab, and for
  // device variants a DeviceScope binds this worker thread to the shard's
  // own Device for the whole backend lifetime (construction, kernels,
  // destruction), so concurrent shards never share device state.
  const tea::TeaDriver driver(plan.problem);
  std::optional<simgpu::DeviceScope> device_scope;
  if (tea::backend_is_gpu(plan.variant)) {
    device_scope.emplace(worker.device.get());
  }
  const auto backend = tea::make_backend(plan.variant, worker.pool.get(),
                                         plan.run, &worker.arena);
  backend->set_fused_operator_dot(plan.run.fuse_operator_dot);
  return driver.run(*backend);
}

void SolveService::worker_loop(Worker& worker) {
  for (;;) {
    std::vector<QueuedRequest> group = queue_.pop_group(
        options_.max_batch, [](const QueuedRequest& head,
                               const QueuedRequest& other) {
          return head.key == other.key;
        });
    if (group.empty()) return;  // closed and drained

    batches_.fetch_add(1, std::memory_order_relaxed);
    if (group.size() > 1)
      batched_solves_.fetch_add(static_cast<long>(group.size()),
                                std::memory_order_relaxed);

    // One plan resolution per group: same key means byte-identical
    // canonical problem, so the head's plan serves every member.
    ResolvedPlan plan;
    std::string resolve_error;
    try {
      plan = resolve(group.front().request.problem, group.front().key);
    } catch (const std::exception& e) {
      resolve_error = e.what();
    }

    const Clock::time_point dequeued = Clock::now();
    for (QueuedRequest& queued : group) {
      SolveResponse response;
      response.label = queued.request.label;
      response.key = queued.key;
      response.variant = plan.variant;
      response.batch_size = static_cast<int>(group.size());
      response.queue_seconds = seconds_between(queued.submitted, dequeued);
      if (!resolve_error.empty()) {
        response.error = "plan resolution failed: " + resolve_error;
      } else {
        try {
          const tl::StopWatch watch;
          const tea::RunResult result = execute(plan, worker);
          response.solve_seconds = watch.seconds();
          response.converged = result.all_converged();
          response.iterations = result.total_iterations;
          for (const tea::StepResult& step : result.steps)
            response.inner_iterations += step.solve.inner_iterations;
          if (!result.steps.empty()) {
            response.initial_rr = result.steps.front().solve.initial_rr;
            response.final_rr = result.steps.back().solve.final_rr;
          }
          response.final_temperature = result.final_summary.temp;
        } catch (const std::exception& e) {
          response.error = e.what();
        }
      }
      response.latency_seconds =
          seconds_between(queued.submitted, Clock::now());
      // Counted before delivery: a client that has its reply must see it
      // in the next STATS frame.
      completed_.fetch_add(1, std::memory_order_relaxed);
      deliver(queued, std::move(response));
    }
  }
}

ServiceStats SolveService::stats() const {
  ServiceStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.batched_solves = batched_solves_.load(std::memory_order_relaxed);
  out.fallback_solves = fallback_solves_.load(std::memory_order_relaxed);
  out.plan = plan_cache_.stats();
  // workers_ grows under lifecycle_mutex_ in start(); hold it so a stats
  // snapshot taken from the net event loop never races the spawn.
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  for (const auto& worker : workers_) {
    const tea::FieldArena::Stats arena = worker->arena.stats();
    out.arena.allocated += arena.allocated;
    out.arena.reused += arena.reused;
  }
  return out;
}

}  // namespace service
