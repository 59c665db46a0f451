// core.hpp — minikokkos: execution spaces, memory spaces and layouts.
//
// This library is the from-scratch Kokkos substitution (DESIGN.md §2): the
// same programming model — Views owning data in a memory space, deep_copy
// between spaces, parallel_for/parallel_reduce over execution policies, with
// the default array layout chosen per space — implemented on tlp (host) and
// simgpu (device).
#pragma once

#include "simgpu/device.hpp"
#include "threading/thread_pool.hpp"

namespace kk {

// --- execution spaces -------------------------------------------------------

/// Single host thread.
struct Serial {};
/// Host thread pool (Kokkos::OpenMP equivalent; backed by tlp).  An
/// instance names the pool its launches run on, as a Kokkos execution-space
/// instance does; a default-constructed one uses tlp::global_pool().
struct Threads {
  tlp::ThreadPool* pool = nullptr;
};
/// Simulated GPU (Kokkos::Cuda equivalent; backed by simgpu).
struct SimGPU {};

// --- memory spaces ----------------------------------------------------------

struct HostSpace {};
struct SimGPUSpace {};

template <typename Exec>
struct SpaceOf {
  using type = HostSpace;
};
template <>
struct SpaceOf<SimGPU> {
  using type = SimGPUSpace;
};

// --- layouts ----------------------------------------------------------------

/// Row-major (C order): last index strides 1.  Kokkos default on CPUs.
struct LayoutRight {};
/// Column-major: first index strides 1.  Kokkos default on CUDA, where it
/// makes thread-adjacent first-index access coalesced.
struct LayoutLeft {};

template <typename Space>
struct DefaultLayout {
  using type = LayoutRight;
};
template <>
struct DefaultLayout<SimGPUSpace> {
  using type = LayoutLeft;
};

/// The device every SimGPUSpace allocation and SimGPU launch uses.
inline simgpu::Device& device() { return simgpu::default_device(); }

/// The pool a Threads instance's launches use.
inline tlp::ThreadPool& thread_pool(const Threads& space) {
  return space.pool != nullptr ? *space.pool : tlp::global_pool();
}

}  // namespace kk
