// parallel.hpp — minikokkos execution policies and parallel dispatch.
//
// parallel_for/parallel_reduce mirror Kokkos' functor signatures:
//   RangePolicy    : f(i)            / f(i, sum&)
//   MDRangePolicy2 : f(i0, i1)       / f(i0, i1, sum&)
// A policy carries its execution-space instance (a Threads instance names
// the pool to run on).  Host executions count one kernel launch in the
// instrumentation; SimGPU executions delegate to simgpu::Device, which
// counts its own.
#pragma once

#include <functional>
#include <string>

#include "machine/instrumentation.hpp"
#include "minikokkos/core.hpp"

namespace kk {

template <typename Exec = Serial>
struct RangePolicy {
  Exec space{};
  long begin = 0;
  long end = 0;
  RangePolicy(long b, long e) : begin(b), end(e) {}
  RangePolicy(Exec s, long b, long e) : space(s), begin(b), end(e) {}
};

/// 2D MDRange (Kokkos::MDRangePolicy<Rank<2>>); iteration order follows
/// LayoutRight on host (i0 outer) and maps i1 to the fast GPU axis.
template <typename Exec = Serial>
struct MDRangePolicy2 {
  Exec space{};
  long begin0 = 0, end0 = 0;
  long begin1 = 0, end1 = 0;
  MDRangePolicy2(long b0, long e0, long b1, long e1)
      : begin0(b0), end0(e0), begin1(b1), end1(e1) {}
  MDRangePolicy2(Exec s, long b0, long e0, long b1, long e1)
      : space(s), begin0(b0), end0(e0), begin1(b1), end1(e1) {}
};

// --- parallel_for ------------------------------------------------------------

template <typename Exec, typename F>
void parallel_for(const std::string& name, RangePolicy<Exec> p, F&& f) {
  (void)name;
  if constexpr (std::is_same_v<Exec, Serial>) {
    for (long i = p.begin; i < p.end; ++i) f(i);
    machine::sink().add_launch();
  } else if constexpr (std::is_same_v<Exec, Threads>) {
    thread_pool(p.space).parallel_for(p.begin, p.end, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) f(i);
    });
    machine::sink().add_launch();
  } else {
    static_assert(std::is_same_v<Exec, SimGPU>, "unknown execution space");
    device().launch_1d(name, p.end - p.begin, {},
                       [&, b = p.begin](long i) { f(b + i); });
  }
}

template <typename Exec, typename F>
void parallel_for(const std::string& name, MDRangePolicy2<Exec> p, F&& f) {
  (void)name;
  if constexpr (std::is_same_v<Exec, Serial>) {
    for (long i0 = p.begin0; i0 < p.end0; ++i0) {
      for (long i1 = p.begin1; i1 < p.end1; ++i1) f(i0, i1);
    }
    machine::sink().add_launch();
  } else if constexpr (std::is_same_v<Exec, Threads>) {
    thread_pool(p.space).parallel_for(p.begin0, p.end0, [&](long lo, long hi) {
      for (long i0 = lo; i0 < hi; ++i0) {
        for (long i1 = p.begin1; i1 < p.end1; ++i1) f(i0, i1);
      }
    });
    machine::sink().add_launch();
  } else {
    static_assert(std::is_same_v<Exec, SimGPU>, "unknown execution space");
    const int n1 = static_cast<int>(p.end1 - p.begin1);
    const int n0 = static_cast<int>(p.end0 - p.begin0);
    device().launch_2d(name, n1, n0, {},
                       [&, b0 = p.begin0, b1 = p.begin1](int x, int y) {
                         f(b0 + y, b1 + x);
                       });
  }
}

// --- parallel_reduce (sum) -----------------------------------------------------

template <typename Exec, typename F>
void parallel_reduce(const std::string& name, RangePolicy<Exec> p, F&& f,
                     double& result) {
  (void)name;
  if constexpr (std::is_same_v<Exec, Serial>) {
    double acc = 0.0;
    for (long i = p.begin; i < p.end; ++i) f(i, acc);
    result = acc;
    machine::Instrumentation& counts = machine::sink();
    counts.add_launch();
    counts.add_reduction();
  } else if constexpr (std::is_same_v<Exec, Threads>) {
    result = thread_pool(p.space).template parallel_reduce<double>(
        p.begin, p.end, 0.0,
        [&](long lo, long hi) {
          double acc = 0.0;
          for (long i = lo; i < hi; ++i) f(i, acc);
          return acc;
        },
        [](double a, double b) { return a + b; });
    machine::Instrumentation& counts = machine::sink();
    counts.add_launch();
    counts.add_reduction();
  } else {
    static_assert(std::is_same_v<Exec, SimGPU>, "unknown execution space");
    result = device().reduce_sum(name, p.end - p.begin,
                                 [&, b = p.begin](long i) {
                                   double local = 0.0;
                                   f(b + i, local);
                                   return local;
                                 });
  }
}

/// Kokkos::fence() equivalent; synchronous in this implementation.
inline void fence() { device().synchronize(); }

}  // namespace kk
