// device.hpp — the simulated GPU device (CUDA substitution; DESIGN.md §2).
//
// Semantics preserved from real CUDA programming:
//   * device memory is a separate arena — host code must move data with
//     explicit memcpy_h2d / memcpy_d2h (copies are real and instrumented);
//   * work is expressed as grid x block kernel launches over an index space,
//     with a tunable block size (the paper tunes OPS_BLOCK_SIZE_X/Y = 64x8);
//   * global reductions are two-phase (per-block partials, then a final
//     pass), which makes them deterministic for a fixed grid geometry;
//   * out-of-memory and invalid-pointer misuse raise tl::DeviceError.
//
// Execution is functional (kernels really run, on a host worker pool), so all
// GPU backends are correctness-tested for real.  Device *time* on the paper's
// P100 is projected by machine::project_time from the instrumented counts.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "machine/instrumentation.hpp"
#include "simgpu/dim3.hpp"
#include "threading/thread_pool.hpp"

namespace simgpu {

/// Per-launch memory/compute footprint, declared by the caller the same way
/// nvprof would measure it (bytes that cross the device memory bus).
struct KernelTraffic {
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t flops = 0;
};

class Device {
public:
  /// `memory_capacity` in bytes (default: P100's 16 GB).  The pool executes
  /// kernel blocks; by default the process-global tlp pool is used.
  explicit Device(std::size_t memory_capacity = std::size_t(16) << 30,
                  tlp::ThreadPool* pool = nullptr);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // --- memory management ----------------------------------------------------

  void* allocate(std::size_t bytes);
  void deallocate(void* ptr);
  std::size_t bytes_allocated() const;
  std::size_t capacity() const { return capacity_; }

  void memcpy_h2d(void* dst_device, const void* src_host, std::size_t bytes);
  void memcpy_d2h(void* dst_host, const void* src_device, std::size_t bytes);
  void memcpy_d2d(void* dst_device, const void* src_device, std::size_t bytes);

  // --- kernel launch ----------------------------------------------------------

  /// Default thread-block shape for 2D launches.  The paper's OPS CUDA runs
  /// use (64, 8).
  void set_block_size(int bx, int by);
  Dim3 block_size() const { return block_; }

  /// Launch `body(i)` for i in [0, n): 1D grid of 1D blocks.
  void launch_1d(const std::string& name, long n, const KernelTraffic& traffic,
                 const std::function<void(long)>& body);

  /// Launch `body(i, j)` over [0,nx) x [0,ny): 2D grid of block_size blocks,
  /// parallelized over blocks like SM scheduling.
  void launch_2d(const std::string& name, int nx, int ny,
                 const KernelTraffic& traffic,
                 const std::function<void(int, int)>& body);

  /// Block-level forms of launch_1d / launch_2d: the body runs once per
  /// thread block, over that block's index range, so callers can keep
  /// per-block state (a CUDA kernel's shared-memory reduction partials).
  /// Same grid, scheduling and counters as the per-element forms.
  void launch_1d_blocks(const std::string& name, long n,
                        const KernelTraffic& traffic,
                        const std::function<void(const Block1D&)>& block_body);
  void launch_2d_blocks(const std::string& name, int nx, int ny,
                        const KernelTraffic& traffic,
                        const std::function<void(const Block2D&)>& block_body);

  /// Two-phase device reduction: sum of value_of(i) for i in [0, n).
  /// Deterministic for a fixed block size: per-block partials are reduced in
  /// block order.  Counts the partials round-trip as device traffic plus one
  /// scalar D2H readback, as a real CUDA dot product incurs.
  double reduce_sum(const std::string& name, long n,
                    const std::function<double(long)>& value_of);

  /// No-op placeholder for stream semantics (kernels here are synchronous);
  /// kept so backend code reads like CUDA code.
  void synchronize() {}

  long launches() const { return launches_; }

private:
  tlp::ThreadPool& pool();
  void check_device_ptr(const void* ptr, std::size_t bytes,
                        const char* what) const;

  const std::size_t capacity_;
  tlp::ThreadPool* pool_;

  mutable std::mutex mutex_;
  std::map<const void*, std::size_t> allocations_;
  std::size_t allocated_ = 0;
  long launches_ = 0;

  Dim3 block_{64, 8, 1};
};

/// The calling thread's current device: the innermost live DeviceScope's
/// device, or the process-global default (the "GPU in this node") when no
/// scope is active.  Backend and substrate code reaches the device through
/// this one function, so owners of a private Device — service worker shards,
/// per-run devices in tea::run_simulation — route every allocation, copy and
/// launch to their own instance by installing a scope.
Device& default_device();

/// RAII thread-local device binding.  While alive, default_device() on this
/// thread returns `device`; destruction restores the previous binding
/// (scopes nest).  Thread-local on purpose: all device API calls happen on
/// the thread driving the solve (pool workers only execute loop bodies), so
/// concurrent shards each see their own device with no shared mutable state.
class DeviceScope {
public:
  explicit DeviceScope(Device* device);
  ~DeviceScope();

  DeviceScope(const DeviceScope&) = delete;
  DeviceScope& operator=(const DeviceScope&) = delete;

private:
  Device* previous_;
};

}  // namespace simgpu
