// thread_pool.hpp — persistent worker pool with OpenMP-style fork-join
// parallel regions, work-shared loops and reductions.
//
// This is the "OpenMP runtime" substitution documented in DESIGN.md: the
// paper's OpenMP builds map onto tlp::ThreadPool::parallel_for with the same
// scheduling semantics (static by default), and hybrid MPI+OpenMP backends
// instantiate one pool per minimpi rank.
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

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "threading/schedule.hpp"

namespace tlp {

/// Number of threads tlp uses when none is specified: the TL_NUM_THREADS
/// environment variable, else std::thread::hardware_concurrency().
int default_threads();

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

  /// Work-shared loop over [begin, end): `body(lo, hi)` receives contiguous
  /// sub-ranges.  Range-based so inner loops stay vectorizable.
  void parallel_for(long begin, long end,
                    const std::function<void(long, long)>& body,
                    ForOptions opts = {});

  /// Work-shared reduction: `map(lo, hi)` produces a partial value per chunk,
  /// `combine` folds partials.  Deterministic for static scheduling (partials
  /// are combined in thread order).  Partials live in cache-line-padded
  /// per-thread slots, so concurrent updates never share a line.
  template <typename T, typename Map, typename Combine>
  T parallel_reduce(long begin, long end, T identity, Map&& map,
                    Combine&& combine, ForOptions opts = {}) {
    struct alignas(64) Slot {
      T value;
    };
    std::vector<Slot> partials(static_cast<std::size_t>(num_threads_),
                               Slot{identity});
    run_loop(begin, end, opts, [&](int tid, long lo, long hi) {
      Slot& slot = partials[static_cast<std::size_t>(tid)];
      slot.value = combine(slot.value, map(lo, hi));
    });
    T result = identity;
    for (const Slot& p : partials) result = combine(result, p.value);
    return result;
  }

private:
  // Dispatch a loop with scheduling; `chunk_body(tid, lo, hi)`.
  void run_loop(long begin, long end, ForOptions opts,
                const std::function<void(int, long, long)>& chunk_body);

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
};

/// Process-wide pool used by backends that do not manage their own threads.
ThreadPool& global_pool();

}  // namespace tlp
