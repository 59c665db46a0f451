// thread_pool.hpp — persistent worker pool with OpenMP-style fork-join
// parallel regions, work-shared loops and reductions.
//
// This is the "OpenMP runtime" substitution documented in DESIGN.md: the
// paper's OpenMP builds map onto tlp::ThreadPool::parallel_for with the same
// static scheduling, and hybrid MPI+OpenMP backends instantiate one pool per
// minimpi rank.
//
// Reductions have one order, decided here and nowhere else: tlp::fold_rows
// gives every row its own partial and folds the partials in row order on the
// caller.  A result therefore depends on neither the pool size nor which
// thread ran which row — one thread, or no pool at all, associates exactly
// as eight threads do (Demmel & Nguyen's reproducible-summation property).
//
// Fork-join protocol: a job is published by a release increment of an atomic
// generation counter (the same generation-count scheme as tlp::Barrier);
// workers wait for it with an exponential-backoff spin and the caller joins
// on an atomic remaining-count the same way.  No mutex or condition variable
// is on the handoff path — stencil codes fork thousands of tiny regions per
// second, and the mutex/CV round trip used to dominate their latency.  A
// worker that has spun through its budget with no work parks on a condition
// variable (checked under the mutex, so wakeups cannot be lost); the
// dispatcher only touches that mutex when a worker is actually parked.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "threading/schedule.hpp"

namespace tlp {

/// Number of threads tlp uses when none is specified: the TL_NUM_THREADS
/// environment variable, else std::thread::hardware_concurrency().
int default_threads();

/// Length of the fixed index blocks a 1-D reduction folds as its "rows"
/// (ThreadPool::parallel_reduce, miniraja's 1-D forall): about one mesh row,
/// and independent of the pool size, as the row order requires.
inline constexpr long kReduceBlock = 1024;

class ThreadPool {
public:
  /// Spawns `num_threads - 1` workers; the calling thread acts as thread 0 of
  /// every parallel region (as an OpenMP primary thread does).
  explicit ThreadPool(int num_threads = default_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return num_threads_; }

  /// Fork-join region: run body(tid, num_threads) on every thread, return
  /// when all are done.  Exceptions from any thread are captured and the
  /// first one is rethrown on the caller.  One dispatcher at a time: a
  /// region entered while another is in flight on this pool (a second
  /// thread, or a nested call from a region body) throws tl::Error.
  void parallel_region(const std::function<void(int, int)>& body);

  /// Work-shared loop over [begin, end) under the static schedule:
  /// `body(lo, hi)` receives each thread's contiguous sub-range, so inner
  /// loops stay vectorizable.
  void parallel_for(long begin, long end,
                    const std::function<void(long, long)>& body);

  /// Work-shared reduction over [begin, end): `map(lo, hi)` gives the
  /// partial of one block of at most kReduceBlock consecutive indices, and
  /// `combine` folds the block partials in index order (tlp::reduce_rows),
  /// so the result does not depend on the pool size.
  template <typename T, typename Map, typename Combine>
  T parallel_reduce(long begin, long end, T identity, Map&& map,
                    Combine&& combine);

private:
  template <typename T, typename RowFn, typename FoldFn>
  friend void fold_rows(ThreadPool* pool, long n_rows, RowFn&& row_fn,
                        FoldFn&& fold_fn);

  /// The pool's one-dispatcher claim, held for a scope; throws tl::Error
  /// while another dispatch is in flight.
  class Claim {
  public:
    explicit Claim(ThreadPool& pool);
    ~Claim();
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;

  private:
    ThreadPool& pool_;
  };

  /// parallel_region's fork-join, for a caller that holds the Claim.
  void run_claimed(const std::function<void(int, int)>& body);

  /// Storage for `n_rows` row partials of `bytes_per_row` bytes each, owned
  /// by the pool and valid while the caller holds the Claim.  It grows and
  /// never shrinks, so a steady-state fold allocates nothing.
  void* row_slots(long n_rows, std::size_t bytes_per_row);

  /// Per thread: where the row partials it built end, so a fold can destroy
  /// them after a row throws.  Padded: each thread writes its own line.
  struct alignas(64) RowsBuilt {
    long end = 0;
  };

  void worker_main(int tid);

  const int num_threads_;
  std::vector<std::thread> workers_;

  // Fork-join state.  `generation_` publishes jobs (release on write,
  // acquire on read orders `job_` with it); `remaining_` is the join count.
  std::atomic<long> generation_{0};
  std::atomic<int> remaining_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> dispatching_{false};  // a region is in flight
  const std::function<void(int, int)>* job_ = nullptr;

  // Idle parking only: workers take the mutex after exhausting their spin
  // budget; the dispatcher takes it only when `parked_` says someone did.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::atomic<int> parked_{0};

  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  // Row partials of the fold in flight (row_slots), and what each thread
  // built of them.
  std::vector<std::max_align_t> row_slots_;
  std::vector<RowsBuilt> rows_built_;
};

/// Row-ordered fold — the one reduction order of every host substrate.
/// `row_fn(j)` returns row j's partial for each j in [0, n_rows); the rows
/// are split statically over `pool`, and each partial lands in a per-row
/// slot the pool owns.  After the join the caller passes the partials to
/// `fold_fn(const T&)` in row order, destroying each afterwards.  A null or
/// one-thread pool runs the rows inline in the same order, so the
/// association — and the bits — never depend on the pool.  The fold takes
/// no lock; exceptions from a row reach the caller once every row has
/// stopped, and no partial is folded then.
template <typename T, typename RowFn, typename FoldFn>
void fold_rows(ThreadPool* pool, long n_rows, RowFn&& row_fn,
               FoldFn&& fold_fn) {
  if (pool == nullptr || pool->size() == 1) {
    for (long j = 0; j < n_rows; ++j) fold_fn(row_fn(j));
    return;
  }
  if (n_rows <= 0) return;
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "row partials are stored max_align_t-aligned");
  const ThreadPool::Claim claim(*pool);
  T* const slots = static_cast<T*>(pool->row_slots(n_rows, sizeof(T)));
  ThreadPool::RowsBuilt* const built = pool->rows_built_.data();
  const auto rows = [&](int tid, int nthreads) {
    const StaticRange r = static_partition(0, n_rows, tid, nthreads);
    long j = r.begin;
    try {
      for (; j < r.end; ++j) {
        ::new (static_cast<void*>(slots + j)) T(row_fn(j));
      }
    } catch (...) {
      built[tid].end = j;
      throw;
    }
    built[tid].end = j;
  };
  try {
    pool->run_claimed(std::ref(rows));
  } catch (...) {
    // Destroy what the rows built before one threw; fold nothing.
    for (int tid = 0; tid < pool->size(); ++tid) {
      const StaticRange r = static_partition(0, n_rows, tid, pool->size());
      for (long j = r.begin; j < built[tid].end; ++j) slots[j].~T();
    }
    throw;
  }
  for (long j = 0; j < n_rows; ++j) {
    fold_fn(static_cast<const T&>(slots[j]));
    slots[j].~T();
  }
}

/// fold_rows as a value: `identity`, combined with each row's partial in
/// row order — ((identity (+) p0) (+) p1) (+) ...
template <typename T, typename RowFn, typename Combine>
T reduce_rows(ThreadPool* pool, long n_rows, T identity, RowFn&& row_fn,
              Combine&& combine) {
  T result = identity;
  fold_rows<T>(pool, n_rows, row_fn,
               [&](const T& partial) { result = combine(result, partial); });
  return result;
}

template <typename T, typename Map, typename Combine>
T ThreadPool::parallel_reduce(long begin, long end, T identity, Map&& map,
                              Combine&& combine) {
  const long n_blocks =
      end > begin ? (end - begin + kReduceBlock - 1) / kReduceBlock : 0;
  return reduce_rows(
      this, n_blocks, identity,
      [&](long b) -> T {
        const long lo = begin + b * kReduceBlock;
        return map(lo, std::min(lo + kReduceBlock, end));
      },
      combine);
}

/// Process-wide pool used by backends that do not manage their own threads.
ThreadPool& global_pool();

}  // namespace tlp
