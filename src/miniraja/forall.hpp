// forall.hpp — miniraja loop execution: forall<policy> and a 2D nested
// kernel.  Host policies count one kernel launch; the GPU policy delegates to
// simgpu, which counts its own.
//
// Every policy runs each work chunk on its own copy of the loop body, as
// RAJA's OpenMP backend makes a firstprivate copy per thread: the host pool
// policy copies once per pool rank (its static block), the GPU policy once
// per thread block, the sequential policy once.  Reducers captured by the
// body become private accumulators that fold into their shared reducer when
// the copy dies at chunk end (reduce.hpp).  The host pool policy runs on
// the pool the caller passes (nullptr, or the overloads without one:
// tlp::global_pool()); the other policies ignore it.
#pragma once

#include <string>
#include <type_traits>
#include <utility>

#include "machine/instrumentation.hpp"
#include "miniraja/policy.hpp"
#include "miniraja/reduce.hpp"
#include "simgpu/device.hpp"
#include "threading/schedule.hpp"
#include "threading/thread_pool.hpp"

namespace raja {

namespace detail {

/// Runs `loop(body)` on a private copy of `f` made as chunk `ordinal`.
template <typename Body, typename Loop>
void run_chunk(long ordinal, const Body& f, const Loop& loop) {
  const ChunkScope scope(ordinal);
  Body body(f);
  loop(body);
}

/// `chunk(rank, lo, hi)` once per pool rank over its static block of
/// [begin, end) — the work-sharing of `omp parallel for schedule(static)`.
template <typename Chunk>
void static_chunks(tlp::ThreadPool* pool, long begin, long end,
                   const Chunk& chunk) {
  if (end <= begin) return;
  tlp::ThreadPool& p = pool != nullptr ? *pool : tlp::global_pool();
  p.parallel_region([&](int rank, int nthreads) {
    const tlp::StaticRange r = tlp::static_partition(begin, end, rank, nthreads);
    if (r.begin < r.end) chunk(rank, r.begin, r.end);
  });
}
}  // namespace detail

template <typename Policy, typename F>
void forall(tlp::ThreadPool* pool, const RangeSegment& seg, F&& f) {
  using Body = std::decay_t<F>;
  if constexpr (std::is_same_v<Policy, seq_exec>) {
    detail::run_chunk(0, f, [&](Body& body) {
      for (long i = seg.begin(); i < seg.end(); ++i) body(i);
    });
    machine::sink().add_launch();
  } else if constexpr (std::is_same_v<Policy, omp_parallel_for_exec>) {
    detail::static_chunks(pool, seg.begin(), seg.end(),
                          [&](int rank, long lo, long hi) {
                            detail::run_chunk(rank, f, [&](Body& body) {
                              for (long i = lo; i < hi; ++i) body(i);
                            });
                          });
    machine::sink().add_launch();
  } else {
    static_assert(std::is_same_v<Policy, simgpu_exec>, "unknown policy");
    simgpu::default_device().launch_1d_blocks(
        "raja_forall", seg.size(), {},
        [&, b = seg.begin()](const simgpu::Block1D& blk) {
          detail::run_chunk(blk.index, f, [&](Body& body) {
            for (long i = blk.lo; i < blk.hi; ++i) body(b + i);
          });
        });
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
  if constexpr (std::is_same_v<Policy, seq_exec>) {
    detail::run_chunk(0, f, [&](Body& body) {
      for (long j = outer.begin(); j < outer.end(); ++j) {
        for (long i = inner.begin(); i < inner.end(); ++i) body(j, i);
      }
    });
    machine::sink().add_launch();
  } else if constexpr (std::is_same_v<Policy, omp_parallel_for_exec>) {
    detail::static_chunks(
        pool, outer.begin(), outer.end(), [&](int rank, long lo, long hi) {
          detail::run_chunk(rank, f, [&](Body& body) {
            for (long j = lo; j < hi; ++j) {
              for (long i = inner.begin(); i < inner.end(); ++i) body(j, i);
            }
          });
        });
    machine::sink().add_launch();
  } else {
    static_assert(std::is_same_v<Policy, simgpu_exec>, "unknown policy");
    simgpu::default_device().launch_2d_blocks(
        "raja_kernel_2d", static_cast<int>(inner.size()),
        static_cast<int>(outer.size()), {},
        [&, jb = outer.begin(), ib = inner.begin()](const simgpu::Block2D& blk) {
          detail::run_chunk(blk.index, f, [&](Body& body) {
            for (long y = blk.y0; y < blk.y1; ++y) {
              for (long x = blk.x0; x < blk.x1; ++x) body(jb + y, ib + x);
            }
          });
        });
  }
}

template <typename Policy, typename F>
void kernel_2d(const RangeSegment& outer, const RangeSegment& inner, F&& f) {
  kernel_2d<Policy>(nullptr, outer, inner, std::forward<F>(f));
}

}  // namespace raja
