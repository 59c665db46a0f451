// registry.hpp — backend construction and the one-call simulation entry
// point.  Maps the paper's Table I version names onto our implementations
// (see DESIGN.md for the full correspondence) and hides the SPMD plumbing the
// distributed variants need.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/backends/field_arena.hpp"
#include "core/driver.hpp"
#include "miniops/context.hpp"
#include "threading/thread_pool.hpp"

namespace tea {

struct RunOptions {
  // Host threading (0 = tlp default: TL_NUM_THREADS or hardware).
  int threads = 0;
  // Rank count for the distributed variants.
  int ranks = 4;
  // Per-rank threads for the hybrid variants (0 = split `threads` evenly).
  int hybrid_threads = 0;
  // OPS cache-blocking tiling configuration (ops-tiled).
  ops::TileConfig tile;
  // GPU thread-block shape (the paper tunes OPS CUDA to 64x8).
  int gpu_block_x = 64;
  int gpu_block_y = 8;
  // Fused apply_operator_dot in the CG/PPCG inner loop (PR 3 kernel) vs the
  // unfused operator+dot pair — a tuning search dimension; numerics are
  // bitwise identical either way.
  bool fuse_operator_dot = true;
};

/// All registered backend ids: the paper's sixteen variants plus the serial
/// reference and the ops-seq debugging build.
std::vector<std::string> available_backends();

/// True for variants that decompose over minimpi ranks.
bool backend_is_distributed(const std::string& id);
/// True for variants that execute on the simulated GPU.
bool backend_is_gpu(const std::string& id);
/// True for variants with a real fused apply_operator_dot kernel (the
/// manual host family).  For every other backend the fuse_operator_dot
/// option is a no-op: the base-class fallback already runs the unfused
/// pair, so "unfused" is not a distinct configuration.
bool backend_has_fused_operator_dot(const std::string& id);

/// Build a shared-memory backend for `id` on a caller-owned pool (threaded
/// variants; nullptr = tlp global pool).  GPU ids reach the simulated device
/// through simgpu::default_device(), so callers owning a private Device (the
/// solve service's worker shards) install a simgpu::DeviceScope around both
/// this call and every use of the returned backend, including its
/// destruction.  A non-null `arena` pools the field slab across backends
/// (the manual host family, serial and manual-omp; other ids ignore it) and
/// must outlive the backend.  Throws tl::Error for distributed ids — those
/// need the SPMD world run_simulation owns.
std::unique_ptr<Backend> make_backend(const std::string& id,
                                      tlp::ThreadPool* pool,
                                      const RunOptions& options,
                                      FieldArena* arena = nullptr);

/// Capacity of a simulated device sized from the machine model (GiB
/// semantics, matching simgpu::Device's default).
std::size_t device_capacity_bytes();

/// Run the full TeaLeaf time-marching simulation for `id` on `cfg`.
/// Handles SPMD world creation for distributed variants; returns rank 0's
/// result (identical on all ranks up to reduction determinism).  GPU ids run
/// against a run-local simgpu::Device sized from the machine model, so
/// concurrent callers never share device state.
RunResult run_simulation(const std::string& id, const tl::ProblemConfig& cfg,
                         const RunOptions& options = {});

}  // namespace tea
