// acc.hpp — miniacc: an OpenACC-flavoured C++ API (the paper's OpenACC
// substitution, DESIGN.md §2).  OpenACC programs structure offload as
//
//   #pragma acc data copyin(a) copy(b)
//   { #pragma acc parallel loop reduction(+:s) ... }
//
// miniacc mirrors that: a DataRegion implements the data construct (device
// allocation + copyin/copyout at region boundaries), and parallel_loop /
// parallel_reduce_sum implement the loop construct.  The target is chosen at
// region creation — kHost multicore (PGI's -ta=multicore) runs on the tlp
// pool; kDevice (-ta=tesla) runs on the simulated GPU with real H2D/D2H
// traffic.
#pragma once

#include <functional>
#include <map>
#include "common/span.hpp"
#include <string>

#include "simgpu/device.hpp"
#include "threading/thread_pool.hpp"

namespace miniacc {

enum class Target { kHost, kDevice };

using KernelTraffic = simgpu::KernelTraffic;

class DataRegion {
public:
  explicit DataRegion(Target target,
                      simgpu::Device* device = &simgpu::default_device(),
                      tlp::ThreadPool* pool = nullptr);

  /// Region exit: `copy`/`copyout` arrays are written back to the host.
  ~DataRegion();

  DataRegion(const DataRegion&) = delete;
  DataRegion& operator=(const DataRegion&) = delete;

  Target target() const noexcept { return target_; }

  // --- data clauses.  Each returns the pointer loop bodies must use: the
  // host pointer on kHost, the device copy on kDevice. ---

  /// copyin: present on device for the region, not copied back.
  double* copyin(tl::span<const double> host);
  /// copy: copied in now and back out at region exit.
  double* copy(tl::span<double> host);
  /// create: device scratch, never copied either way.
  double* create(tl::span<double> host);

  /// update host(x) directive: refresh the host copy mid-region.
  void update_host(tl::span<double> host);
  /// update device(x) directive.
  void update_device(tl::span<const double> host);

  // --- loop constructs -------------------------------------------------------

  /// `#pragma acc parallel loop` over [0, n).
  void parallel_loop(const std::string& name, long n,
                     const KernelTraffic& traffic,
                     const std::function<void(long)>& body);

  /// `#pragma acc parallel loop collapse(2)` over [0,nx) x [0,ny).
  void parallel_loop_2d(const std::string& name, int nx, int ny,
                        const KernelTraffic& traffic,
                        const std::function<void(int, int)>& body);

  /// `#pragma acc parallel loop collapse(2) reduction(+:sum)` over
  /// [0,nx) x [0,ny).  The host target keeps one partial per row, folded in
  /// row order (tlp::reduce_rows); the device target reduces the flat
  /// row-major index space in its block order.
  double parallel_reduce_sum(const std::string& name, int nx, int ny,
                             const std::function<double(int, int)>& value_of);

private:
  struct Mapping {
    double* host = nullptr;
    double* device = nullptr;
    std::size_t count = 0;
    bool copy_out = false;
  };

  double* map(tl::span<const double> host, bool copy_in, bool copy_out);
  Mapping& mapping_for(const double* host);
  tlp::ThreadPool& pool();

  Target target_;
  simgpu::Device* device_;
  tlp::ThreadPool* pool_;
  std::map<const double*, Mapping> mappings_;
};

}  // namespace miniacc
