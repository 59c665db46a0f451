// Unit and property tests for tlp: fork-join pool, static scheduling, the
// row-ordered reductions, barriers, exception propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "threading/barrier.hpp"
#include "threading/schedule.hpp"
#include "threading/thread_pool.hpp"

namespace {

TEST(StaticPartition, CoversRangeExactlyOnce) {
  for (const long n : {0L, 1L, 7L, 100L, 101L}) {
    for (const int threads : {1, 2, 3, 8}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      for (int t = 0; t < threads; ++t) {
        const auto r = tlp::static_partition(0, n, t, threads);
        for (long i = r.begin; i < r.end; ++i) hits[static_cast<std::size_t>(i)]++;
      }
      for (const int h : hits) EXPECT_EQ(h, 1) << "n=" << n << " p=" << threads;
    }
  }
}

TEST(StaticPartition, BalancedWithinOne) {
  const auto r0 = tlp::static_partition(0, 10, 0, 3);
  const auto r1 = tlp::static_partition(0, 10, 1, 3);
  const auto r2 = tlp::static_partition(0, 10, 2, 3);
  EXPECT_EQ(r0.end - r0.begin, 4);
  EXPECT_EQ(r1.end - r1.begin, 3);
  EXPECT_EQ(r2.end - r2.begin, 3);
}

TEST(ThreadPool, ParallelRegionRunsEveryThreadOnce) {
  tlp::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(4);
  pool.parallel_region([&](int tid, int n) {
    EXPECT_EQ(n, 4);
    counts[static_cast<std::size_t>(tid)]++;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, RegionReusableAcrossGenerations) {
  tlp::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 50; ++rep) {
    pool.parallel_region([&](int, int) { total++; });
  }
  EXPECT_EQ(total.load(), 150);
}

class ScheduleTest : public ::testing::TestWithParam<std::tuple<int, long>> {};

TEST_P(ScheduleTest, ParallelForTouchesEachIndexOnce) {
  const auto [threads, n] = GetParam();
  tlp::ThreadPool pool(threads);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for(0, n, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_P(ScheduleTest, ReduceMatchesSerialSum) {
  const auto [threads, n] = GetParam();
  tlp::ThreadPool pool(threads);
  const double sum = pool.parallel_reduce<double>(
      0, n, 0.0,
      [](long lo, long hi) {
        double acc = 0;
        for (long i = lo; i < hi; ++i) acc += static_cast<double>(i);
        return acc;
      },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1) / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Schedules, ScheduleTest,
                         ::testing::Combine(::testing::Values(1, 2, 7),
                                            ::testing::Values(0L, 1L, 1000L,
                                                              5000L)));

TEST(ThreadPool, StaticReduceIsDeterministic) {
  tlp::ThreadPool pool(6);
  std::vector<double> values(10000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  const auto run = [&] {
    return pool.parallel_reduce<double>(
        0, static_cast<long>(values.size()), 0.0,
        [&](long lo, long hi) {
          double acc = 0;
          for (long i = lo; i < hi; ++i) acc += values[static_cast<std::size_t>(i)];
          return acc;
        },
        [](double a, double b) { return a + b; });
  };
  const double first = run();
  for (int rep = 0; rep < 10; ++rep) EXPECT_EQ(run(), first);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  tlp::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_region([](int tid, int) {
    if (tid == 2) throw tl::Error("worker boom");
  }),
               tl::Error);
  // Pool must stay usable after the failure.
  std::atomic<int> count{0};
  pool.parallel_region([&](int, int) { count++; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  tlp::ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(5, 5, [&](long, long) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  tlp::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.parallel_region([&](int tid, int n) {
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, NestedPoolsWork) {
  // Hybrid backends run a pool per minimpi rank: emulate two sibling pools
  // driven from worker threads of an outer pool.
  tlp::ThreadPool outer(2);
  std::atomic<long> total{0};
  outer.parallel_region([&](int, int) {
    tlp::ThreadPool inner(3);
    inner.parallel_for(0, 300, [&](long lo, long hi) {
      total += hi - lo;
    });
  });
  EXPECT_EQ(total.load(), 600);
}

TEST(ThreadPool, DefaultThreadsPositive) {
  EXPECT_GE(tlp::default_threads(), 1);
}

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 6;
  tlp::Barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  tlp::ThreadPool pool(kThreads);
  pool.parallel_region([&](int, int) {
    for (int phase = 0; phase < 5; ++phase) {
      phase_counter++;
      barrier.arrive_and_wait();
      // After the barrier every participant of this phase has incremented.
      EXPECT_GE(phase_counter.load(), (phase + 1) * kThreads);
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(phase_counter.load(), 5 * kThreads);
}

TEST(Barrier, RejectsNonPositiveCount) {
  EXPECT_THROW(tlp::Barrier(0), tl::Error);
}

TEST(ThreadPool, ConcurrentDispatchFailsClosed) {
  // A second dispatcher while a region is in flight must be refused, not
  // allowed to overwrite the first region's job under its workers.
  tlp::ThreadPool pool(2);
  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread first([&] {
    pool.parallel_region([&](int tid, int) {
      if (tid != 0) return;
      inside = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!inside) std::this_thread::yield();
  EXPECT_THROW(pool.parallel_region([](int, int) {}), tl::Error);
  release = true;
  first.join();

  // The refused dispatch leaves the pool usable.
  std::atomic<int> ran{0};
  pool.parallel_region([&](int, int) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, NestedDispatchOnOnePoolFailsClosed) {
  tlp::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_region([&](int tid, int) {
                 if (tid == 0) pool.parallel_region([](int, int) {});
               }),
               tl::Error);
  std::atomic<int> ran{0};
  pool.parallel_region([&](int, int) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

// --- fork-join / barrier stress --------------------------------------------
//
// These cases hammer the wakeup and generation paths that a spin-barrier
// rewrite can get wrong: a lost wakeup deadlocks a region (caught by the
// suite timeout), generation reuse lets a thread slip through a phase early
// (caught by the per-phase counters), and a torn reduction loses updates
// (caught by the exact sums).

TEST(ThreadPoolStress, RapidForkJoinGenerations) {
  // Thousands of tiny regions back to back: each region must run every
  // thread exactly once, even when workers race between spinning, parking
  // and re-arming across generations.
  tlp::ThreadPool pool(4);
  std::atomic<long> total{0};
  constexpr int kRegions = 4000;
  for (int rep = 0; rep < kRegions; ++rep) {
    std::atomic<int> here{0};
    pool.parallel_region([&](int, int) {
      here++;
      total++;
    });
    ASSERT_EQ(here.load(), 4) << "region " << rep << " lost a thread";
  }
  EXPECT_EQ(total.load(), 4L * kRegions);
}

TEST(ThreadPoolStress, MixedSizeReductionsStaySane) {
  // Alternate reductions over wildly different range sizes (empty, one
  // element, odd primes, large); every result is checked against the closed
  // form, so a partial-combine bug or a reused partial slot from a previous
  // generation shows up as a wrong sum.
  tlp::ThreadPool pool(5);
  const long sizes[] = {0, 1, 7, 97, 1000, 3, 12345, 2, 64};
  for (int rep = 0; rep < 300; ++rep) {
    const long n = sizes[rep % (sizeof(sizes) / sizeof(sizes[0]))];
    const double sum = pool.parallel_reduce<double>(
        0, n, 0.0,
        [](long lo, long hi) {
          double acc = 0;
          for (long i = lo; i < hi; ++i) acc += static_cast<double>(i);
          return acc;
        },
        [](double a, double b) { return a + b; });
    ASSERT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1) / 2.0)
        << "rep " << rep << " n " << n;
  }
}

TEST(ThreadPoolStress, ForkJoinInterleavedWithReductions) {
  // Interleave plain regions, work-shared loops and reductions, so the
  // generation counter advances through differently-shaped jobs; any
  // cross-generation state leak corrupts one of the exact checks.
  tlp::ThreadPool pool(3);
  std::vector<int> hits(512, 0);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<int> ran{0};
    pool.parallel_region([&](int, int) { ran++; });
    ASSERT_EQ(ran.load(), 3);

    std::fill(hits.begin(), hits.end(), 0);
    pool.parallel_for(0, static_cast<long>(hits.size()), [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (const int h : hits) ASSERT_EQ(h, 1);

    const long n = 100 + rep;
    const double sum = pool.parallel_reduce<double>(
        0, n, 0.0,
        [](long lo, long hi) {
          double acc = 0;
          for (long i = lo; i < hi; ++i) acc += static_cast<double>(i);
          return acc;
        },
        [](double a, double b) { return a + b; });
    ASSERT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1) / 2.0);
  }
}

TEST(BarrierStress, ManyPhasesNoSlipThrough) {
  // A thread that passes the barrier before everyone arrived (generation
  // reuse) would observe a phase counter below the full count.
  constexpr int kThreads = 4;
  constexpr int kPhases = 2000;
  tlp::Barrier barrier(kThreads);
  std::atomic<int> arrived{0};
  tlp::ThreadPool pool(kThreads);
  pool.parallel_region([&](int, int) {
    for (int phase = 0; phase < kPhases; ++phase) {
      arrived++;
      barrier.arrive_and_wait();
      ASSERT_GE(arrived.load(), (phase + 1) * kThreads);
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(arrived.load(), kPhases * kThreads);
}

TEST(BarrierStress, TwoBarriersPingPong) {
  // Classic double-buffer handoff: writer phase / reader phase alternating
  // through two barriers; a reordering across either barrier corrupts the
  // checked value.
  constexpr int kThreads = 3;
  tlp::Barrier a(kThreads), b(kThreads);
  tlp::ThreadPool pool(kThreads);
  int shared = 0;
  pool.parallel_region([&](int tid, int) {
    for (int round = 0; round < 500; ++round) {
      if (tid == round % kThreads) shared = round;
      a.arrive_and_wait();
      ASSERT_EQ(shared, round);
      b.arrive_and_wait();
    }
  });
}

// --- row-ordered reductions -------------------------------------------------

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// Row partials of mixed magnitude, so any fold order other than row order
// shows in the last bits.
double row_value(long j) {
  return (j % 3 == 0 ? 1.0e8 : 1.0e-3) / static_cast<double>(j + 1);
}

TEST(ReduceRows, BitsEqualTheRowOrderFoldAtEveryPoolSize) {
  constexpr long kRows = 997;
  double expected = 0.0;
  for (long j = 0; j < kRows; ++j) expected += row_value(j);

  EXPECT_EQ(bits(tlp::reduce_rows(nullptr, kRows, 0.0, row_value,
                                  std::plus<>())),
            bits(expected));
  for (const int threads : {1, 2, 3, 4, 8}) {
    tlp::ThreadPool pool(threads);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(bits(tlp::reduce_rows(&pool, kRows, 0.0, row_value,
                                      std::plus<>())),
                bits(expected))
          << threads << " threads, rep " << rep;
    }
  }
}

TEST(ReduceRows, ParallelReduceFoldsFixedBlocksInIndexOrder) {
  constexpr long kN = 5 * tlp::kReduceBlock + 17;
  double expected = 0.0;
  for (long lo = 0; lo < kN; lo += tlp::kReduceBlock) {
    double block = 0.0;
    for (long i = lo; i < std::min(lo + tlp::kReduceBlock, kN); ++i) {
      block += row_value(i);
    }
    expected += block;
  }
  for (const int threads : {1, 2, 3, 4, 8}) {
    tlp::ThreadPool pool(threads);
    const double sum = pool.parallel_reduce<double>(
        0, kN, 0.0,
        [](long lo, long hi) {
          double acc = 0.0;
          for (long i = lo; i < hi; ++i) acc += row_value(i);
          return acc;
        },
        std::plus<>());
    EXPECT_EQ(bits(sum), bits(expected)) << threads << " threads";
  }
}

// A partial with a destructor: counts constructions and destructions, and
// records the order the caller folds rows in.
struct Tracked {
  static std::atomic<int> live;
  long row;
  explicit Tracked(long j) : row(j) { ++live; }
  Tracked(const Tracked& o) : row(o.row) { ++live; }
  ~Tracked() { --live; }
};
std::atomic<int> Tracked::live{0};

TEST(FoldRows, FoldsEveryRowOnceInRowOrderAndDestroysIt) {
  tlp::ThreadPool pool(3);
  for (const long rows : {0L, 1L, 2L, 50L}) {
    std::vector<long> order;
    tlp::fold_rows<Tracked>(
        &pool, rows, [](long j) { return Tracked(j); },
        [&](const Tracked& t) { order.push_back(t.row); });
    ASSERT_EQ(static_cast<long>(order.size()), rows);
    for (long j = 0; j < rows; ++j) {
      EXPECT_EQ(order[static_cast<std::size_t>(j)], j);
    }
    EXPECT_EQ(Tracked::live.load(), 0);
  }
}

TEST(FoldRows, ThrowingRowDestroysTheFinishedRowsAndFoldsNone) {
  tlp::ThreadPool pool(4);
  int folded = 0;
  EXPECT_THROW(tlp::fold_rows<Tracked>(
                   &pool, 64,
                   [](long j) {
                     if (j == 40) throw tl::Error("row boom");
                     return Tracked(j);
                   },
                   [&](const Tracked&) { ++folded; }),
               tl::Error);
  EXPECT_EQ(folded, 0);
  EXPECT_EQ(Tracked::live.load(), 0);
  // The pool and its row slots stay usable.
  std::vector<long> order;
  tlp::fold_rows<Tracked>(
      &pool, 64, [](long j) { return Tracked(j); },
      [&](const Tracked& t) { order.push_back(t.row); });
  ASSERT_EQ(order.size(), 64u);
  EXPECT_EQ(order.back(), 63);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(FoldRows, NestedFoldOnOnePoolFailsClosed) {
  tlp::ThreadPool pool(2);
  EXPECT_THROW(tlp::reduce_rows(
                   &pool, 4, 0.0,
                   [&](long) {
                     return tlp::reduce_rows(&pool, 4, 0.0, row_value,
                                             std::plus<>());
                   },
                   std::plus<>()),
               tl::Error);
  EXPECT_EQ(tlp::reduce_rows(&pool, 2, 0.0, row_value, std::plus<>()),
            row_value(0) + row_value(1));
}

}  // namespace
