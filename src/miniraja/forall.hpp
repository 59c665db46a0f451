// forall.hpp — miniraja loop execution: forall<policy> and a 2D nested
// kernel.  Host policies count one kernel launch; the GPU policy delegates to
// simgpu, which counts its own.
//
// Every policy runs each row on its own copy of the loop body, as RAJA's
// OpenMP backend makes a firstprivate copy per thread: the host policies
// copy once per outer index of kernel_2d, or per kReduceBlock indices of a
// forall, the GPU policy once per thread block.  The copies go through
// tlp::fold_rows, which destroys them on the calling thread in row (block)
// order, so reducers captured by the body fold into their owners in that
// order (reduce.hpp) — the same bits at every pool size, and seq_exec
// associates exactly as omp_parallel_for_exec does.  The host pool policy
// runs on the pool the caller passes (nullptr, or the overloads without
// one: tlp::global_pool()); the other policies ignore it.
#pragma once

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "machine/instrumentation.hpp"
#include "miniraja/policy.hpp"
#include "miniraja/reduce.hpp"
#include "simgpu/device.hpp"
#include "threading/thread_pool.hpp"

namespace raja {

namespace detail {

/// `loop(body)` over a fresh copy of `f`, returned into its fold_rows slot.
/// The copy runs as a stack local — its reducers stay in registers — and is
/// moved out only when the row is done.
template <typename Body, typename Loop>
Body run_copy(const Body& f, const Loop& loop) {
  Body body(f);
  loop(body);
  return Body(std::move(body));
}

/// The pool a host policy runs on: none for seq_exec, the given (or global)
/// pool for omp_parallel_for_exec.
template <typename Policy>
tlp::ThreadPool* host_pool(tlp::ThreadPool* pool) {
  if constexpr (std::is_same_v<Policy, seq_exec>) {
    return nullptr;
  } else {
    return pool != nullptr ? pool : &tlp::global_pool();
  }
}

/// Reducer copies fold when destroyed, so the row fold itself does nothing.
struct FoldOnDestroy {
  template <typename Body>
  void operator()(const Body&) const {}
};

}  // namespace detail

template <typename Policy, typename F>
void forall(tlp::ThreadPool* pool, const RangeSegment& seg, F&& f) {
  using Body = std::decay_t<F>;
  if constexpr (std::is_same_v<Policy, simgpu_exec>) {
    simgpu::default_device().launch_1d_blocks(
        "raja_forall", seg.size(), {},
        [&, b = seg.begin()](const simgpu::Block1D& blk) {
          return detail::run_copy<Body>(f, [&](Body& body) {
            for (long i = blk.lo; i < blk.hi; ++i) body(b + i);
          });
        },
        detail::FoldOnDestroy{});
  } else {
    static_assert(std::is_same_v<Policy, seq_exec> ||
                      std::is_same_v<Policy, omp_parallel_for_exec>,
                  "unknown policy");
    const long n_blocks =
        (std::max(seg.size(), 0L) + tlp::kReduceBlock - 1) / tlp::kReduceBlock;
    tlp::fold_rows<Body>(
        detail::host_pool<Policy>(pool), n_blocks,
        [&](long blk) {
          const long lo = seg.begin() + blk * tlp::kReduceBlock;
          const long hi = std::min(lo + tlp::kReduceBlock, seg.end());
          return detail::run_copy<Body>(f, [&](Body& body) {
            for (long i = lo; i < hi; ++i) body(i);
          });
        },
        detail::FoldOnDestroy{});
    machine::sink().add_launch();
  }
}

template <typename Policy, typename F>
void forall(const RangeSegment& seg, F&& f) {
  forall<Policy>(nullptr, seg, std::forward<F>(f));
}

/// Nested 2D loop (RAJA::kernel<> with two For statements): outer segment is
/// work-shared / mapped to grid-y, inner runs contiguous.
template <typename Policy, typename F>
void kernel_2d(tlp::ThreadPool* pool, const RangeSegment& outer,
               const RangeSegment& inner, F&& f) {
  using Body = std::decay_t<F>;
  if constexpr (std::is_same_v<Policy, simgpu_exec>) {
    simgpu::default_device().launch_2d_blocks(
        "raja_kernel_2d", static_cast<int>(inner.size()),
        static_cast<int>(outer.size()), {},
        [&, jb = outer.begin(), ib = inner.begin()](const simgpu::Block2D& blk) {
          return detail::run_copy<Body>(f, [&](Body& body) {
            for (long y = blk.y0; y < blk.y1; ++y) {
              for (long x = blk.x0; x < blk.x1; ++x) body(jb + y, ib + x);
            }
          });
        },
        detail::FoldOnDestroy{});
  } else {
    static_assert(std::is_same_v<Policy, seq_exec> ||
                      std::is_same_v<Policy, omp_parallel_for_exec>,
                  "unknown policy");
    tlp::fold_rows<Body>(
        detail::host_pool<Policy>(pool), std::max(outer.size(), 0L),
        [&](long row) {
          const long j = outer.begin() + row;
          return detail::run_copy<Body>(f, [&](Body& body) {
            for (long i = inner.begin(); i < inner.end(); ++i) body(j, i);
          });
        },
        detail::FoldOnDestroy{});
    machine::sink().add_launch();
  }
}

template <typename Policy, typename F>
void kernel_2d(const RangeSegment& outer, const RangeSegment& inner, F&& f) {
  kernel_2d<Policy>(nullptr, outer, inner, std::forward<F>(f));
}

}  // namespace raja
