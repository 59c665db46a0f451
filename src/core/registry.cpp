#include "core/registry.hpp"

#include <memory>
#include <mutex>
#include <optional>

#include "common/error.hpp"
#include "core/backends/kokkos_backend.hpp"
#include "core/backends/manual_acc.hpp"
#include "core/backends/manual_cuda.hpp"
#include "core/backends/manual_host.hpp"
#include "core/backends/ops_backend.hpp"
#include "core/backends/raja_backend.hpp"
#include "machine/machine_model.hpp"
#include "minimpi/comm.hpp"
#include "simgpu/device.hpp"
#include "threading/thread_pool.hpp"

namespace tea {

std::vector<std::string> available_backends() {
  return {
      "serial",
      "manual-omp", "manual-mpi", "manual-hybrid", "manual-cuda",
      "manual-acc-cpu", "manual-acc-gpu",
      "ops-seq", "ops-omp", "ops-mpi", "ops-hybrid", "ops-tiled",
      "ops-cuda", "ops-acc",
      "kokkos-omp", "kokkos-cuda",
      "raja-omp", "raja-cuda",
  };
}

bool backend_is_distributed(const std::string& id) {
  return id == "manual-mpi" || id == "manual-hybrid" || id == "ops-mpi" ||
         id == "ops-hybrid" || id == "ops-tiled";
}

bool backend_is_gpu(const std::string& id) {
  return id == "manual-cuda" || id == "manual-acc-gpu" || id == "ops-cuda" ||
         id == "ops-acc" || id == "kokkos-cuda" || id == "raja-cuda";
}

bool backend_has_fused_operator_dot(const std::string& id) {
  // The distributed manual variants run the overlapped split exchange, whose
  // operator and dot are separate passes by construction — the fused flag is
  // a no-op there, so they are excluded to keep measurement keys canonical.
  return id == "serial" || id == "manual-omp";
}

std::unique_ptr<Backend> make_backend(const std::string& id,
                                      tlp::ThreadPool* pool,
                                      const RunOptions& opts,
                                      FieldArena* arena) {
  if (backend_is_distributed(id)) {
    throw tl::Error("backend '" + id +
                    "' is distributed; use run_simulation for SPMD variants");
  }
  if (id == "serial") {
    return std::make_unique<ManualHostBackend>("serial", nullptr, nullptr,
                                               arena);
  }
  if (id == "manual-omp") {
    return std::make_unique<ManualHostBackend>("manual-omp", pool, nullptr,
                                               arena);
  }
  if (id == "manual-cuda") {
    simgpu::default_device().set_block_size(opts.gpu_block_x, opts.gpu_block_y);
    return std::make_unique<ManualCudaBackend>();
  }
  if (id == "manual-acc-cpu") {
    return std::make_unique<ManualAccBackend>(miniacc::Target::kHost, pool);
  }
  if (id == "manual-acc-gpu") {
    simgpu::default_device().set_block_size(opts.gpu_block_x, opts.gpu_block_y);
    return std::make_unique<ManualAccBackend>(miniacc::Target::kDevice);
  }
  if (id == "ops-seq") {
    return std::make_unique<OpsBackend>("ops-seq", ops::ContextOptions{});
  }
  if (id == "ops-omp") {
    ops::ContextOptions o;
    o.use_pool = true;
    o.pool = pool;
    return std::make_unique<OpsBackend>("ops-omp", o);
  }
  if (id == "ops-cuda" || id == "ops-acc") {
    simgpu::default_device().set_block_size(opts.gpu_block_x, opts.gpu_block_y);
    ops::ContextOptions o;
    o.device = &simgpu::default_device();
    return std::make_unique<OpsBackend>(id, o);
  }
  if (id == "kokkos-omp") {
    return std::make_unique<KokkosBackend<kk::Threads>>("kokkos-omp",
                                                        kk::Threads{pool});
  }
  if (id == "kokkos-cuda") {
    simgpu::default_device().set_block_size(opts.gpu_block_x, opts.gpu_block_y);
    return std::make_unique<KokkosBackend<kk::SimGPU>>("kokkos-cuda");
  }
  if (id == "raja-omp") {
    return std::make_unique<RajaBackend<raja::omp_parallel_for_exec>>(
        "raja-omp", pool);
  }
  if (id == "raja-cuda") {
    simgpu::default_device().set_block_size(opts.gpu_block_x, opts.gpu_block_y);
    return std::make_unique<RajaBackend<raja::simgpu_exec>>("raja-cuda");
  }
  throw tl::Error("unknown backend id '" + id + "'");
}

std::size_t device_capacity_bytes() {
  const double gb = machine::device_machine().mem_capacity_gb;
  if (!(gb > 0.0)) return std::size_t(16) << 30;
  return static_cast<std::size_t>(gb) << 30;
}

namespace {

/// Build a rank-local backend for the distributed variants.
std::unique_ptr<Backend> make_rank_backend(const std::string& id,
                                           minimpi::Comm& comm,
                                           tlp::ThreadPool* rank_pool,
                                           const RunOptions& opts) {
  if (id == "manual-mpi") {
    return std::make_unique<ManualHostBackend>("manual-mpi", nullptr, &comm);
  }
  if (id == "manual-hybrid") {
    return std::make_unique<ManualHostBackend>("manual-hybrid", rank_pool,
                                               &comm);
  }
  if (id == "ops-mpi") {
    ops::ContextOptions o;
    o.comm = &comm;
    return std::make_unique<OpsBackend>("ops-mpi", o);
  }
  if (id == "ops-hybrid") {
    ops::ContextOptions o;
    o.comm = &comm;
    o.use_pool = true;
    o.pool = rank_pool;
    return std::make_unique<OpsBackend>("ops-hybrid", o);
  }
  if (id == "ops-tiled") {
    ops::ContextOptions o;
    o.comm = &comm;
    o.tiled = true;
    o.tile = opts.tile;
    return std::make_unique<OpsBackend>("ops-tiled", o);
  }
  throw tl::Error("unknown distributed backend id '" + id + "'");
}

}  // namespace

RunResult run_simulation(const std::string& id, const tl::ProblemConfig& cfg,
                         const RunOptions& options) {
  const TeaDriver driver(cfg);

  if (!backend_is_distributed(id)) {
    std::unique_ptr<tlp::ThreadPool> own_pool;
    tlp::ThreadPool* pool = nullptr;
    const bool threaded = id == "manual-omp" || id == "ops-omp" ||
                          id == "kokkos-omp" || id == "raja-omp" ||
                          id == "manual-acc-cpu";
    if (threaded) {
      if (options.threads > 0) {
        own_pool = std::make_unique<tlp::ThreadPool>(options.threads);
        pool = own_pool.get();
      } else {
        pool = &tlp::global_pool();
      }
    }
    // GPU variants get a run-local device: concurrent run_simulation calls
    // (service shards, parallel tests) must not interleave allocations or
    // serialize on the process-global device's mutex.  The scope is declared
    // before the backend so the backend's destructor — view deallocations go
    // through default_device() — still sees the run's device.
    std::unique_ptr<simgpu::Device> own_device;
    std::optional<simgpu::DeviceScope> device_scope;
    if (backend_is_gpu(id)) {
      own_device = std::make_unique<simgpu::Device>(device_capacity_bytes());
      device_scope.emplace(own_device.get());
    }
    const auto backend = make_backend(id, pool, options);
    backend->set_fused_operator_dot(options.fuse_operator_dot);
    return driver.run(*backend);
  }

  // Distributed: one backend per rank, SPMD driver, rank 0's result wins
  // except for the counters, which are the sum of every rank's scope.
  const int ranks = std::max(1, options.ranks);
  int per_rank_threads = options.hybrid_threads;
  if (per_rank_threads <= 0) {
    const int budget =
        options.threads > 0 ? options.threads : tlp::default_threads();
    per_rank_threads = std::max(1, budget / ranks);
  }
  const bool hybrid = id == "manual-hybrid" || id == "ops-hybrid";

  RunResult result;
  machine::Counters counters;
  std::mutex result_mutex;
  minimpi::run_world(ranks, [&](minimpi::Comm& comm) {
    std::unique_ptr<tlp::ThreadPool> rank_pool;
    if (hybrid) {
      rank_pool = std::make_unique<tlp::ThreadPool>(per_rank_threads);
    }
    const auto backend =
        make_rank_backend(id, comm, rank_pool.get(), options);
    backend->set_fused_operator_dot(options.fuse_operator_dot);
    RunResult rank_result = driver.run(*backend);
    std::lock_guard<std::mutex> lock(result_mutex);
    counters += rank_result.counters;
    if (comm.rank() == 0) result = std::move(rank_result);
  });
  result.counters = counters;
  return result;
}

}  // namespace tea
