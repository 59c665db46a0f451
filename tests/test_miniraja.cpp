// Unit tests for miniraja: forall across policies, nested kernels, and the
// portable reducer objects (private per-row accumulators folded in row
// order).  Runs under TSan in CI: pool threads build the row partials that
// the caller folds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "miniraja/miniraja.hpp"
#include "simgpu/device.hpp"
#include "threading/thread_pool.hpp"

namespace {

template <typename Policy>
class PolicyTest : public ::testing::Test {};

using Policies = ::testing::Types<raja::seq_exec, raja::omp_parallel_for_exec,
                                  raja::simgpu_exec>;
TYPED_TEST_SUITE(PolicyTest, Policies);

TYPED_TEST(PolicyTest, ForallCoversSegment) {
  std::vector<std::atomic<int>> hits(500);
  raja::forall<TypeParam>(raja::RangeSegment(100, 500), [&](long i) {
    ASSERT_GE(i, 100);
    ASSERT_LT(i, 500);
    hits[static_cast<std::size_t>(i)]++;
  });
  for (long i = 0; i < 100; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 0);
  for (long i = 100; i < 500; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TYPED_TEST(PolicyTest, Kernel2DNestedCoverage) {
  std::vector<std::atomic<int>> hits(12 * 9);
  raja::kernel_2d<TypeParam>(raja::RangeSegment(0, 9), raja::RangeSegment(0, 12),
                             [&](long j, long i) {
                               hits[static_cast<std::size_t>(j * 12 + i)]++;
                             });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TYPED_TEST(PolicyTest, ReduceSumInLoop) {
  raja::ReduceSum<double> sum(10.0);  // initial value participates
  raja::forall<TypeParam>(raja::RangeSegment(0, 1000),
                          [=](long i) { sum += static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(sum.get(), 10.0 + 1000.0 * 999.0 / 2.0);
}

TYPED_TEST(PolicyTest, ReduceMinMax) {
  std::vector<double> values(777);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 37) % 1000) - 500.0;
  }
  raja::ReduceMin<double> mn(1e30);
  raja::ReduceMax<double> mx(-1e30);
  const double* p = values.data();
  raja::forall<TypeParam>(raja::RangeSegment(0, 777), [=](long i) {
    mn.min(p[i]);
    mx.max(p[i]);
  });
  double expect_min = 1e30, expect_max = -1e30;
  for (const double v : values) {
    expect_min = std::min(expect_min, v);
    expect_max = std::max(expect_max, v);
  }
  EXPECT_DOUBLE_EQ(mn.get(), expect_min);
  EXPECT_DOUBLE_EQ(mx.get(), expect_max);
}

TYPED_TEST(PolicyTest, MultipleReducersInOneLoop) {
  raja::ReduceSum<double> even(0.0), odd(0.0);
  raja::forall<TypeParam>(raja::RangeSegment(0, 100), [=](long i) {
    if (i % 2 == 0) {
      even += 1.0;
    } else {
      odd += 1.0;
    }
  });
  EXPECT_DOUBLE_EQ(even.get(), 50.0);
  EXPECT_DOUBLE_EQ(odd.get(), 50.0);
}

TYPED_TEST(PolicyTest, ReducersInsideKernel2D) {
  raja::ReduceSum<double> sum(1.0);
  raja::ReduceMin<double> mn(1e30);
  raja::ReduceMax<double> mx(-1e30);
  raja::kernel_2d<TypeParam>(raja::RangeSegment(0, 37),
                             raja::RangeSegment(0, 53), [=](long j, long i) {
                               const double v = static_cast<double>(j * 53 + i);
                               sum += v;
                               mn.min(v - 7.0);
                               mx.max(v + 7.0);
                             });
  const double n = 37.0 * 53.0;
  EXPECT_DOUBLE_EQ(sum.get(), 1.0 + n * (n - 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(mn.get(), -7.0);
  EXPECT_DOUBLE_EQ(mx.get(), n - 1.0 + 7.0);
}

TYPED_TEST(PolicyTest, ReducerReusedAcrossLoopsAccumulates) {
  raja::ReduceSum<double> sum(0.5);
  raja::forall<TypeParam>(raja::RangeSegment(0, 1000),
                          [=](long) { sum += 1.0; });
  EXPECT_DOUBLE_EQ(sum.get(), 1000.5);
  raja::kernel_2d<TypeParam>(raja::RangeSegment(0, 10),
                             raja::RangeSegment(0, 30),
                             [=](long, long) { sum += 2.0; });
  EXPECT_DOUBLE_EQ(sum.get(), 1600.5);
}

TEST(RangeSegment, Accessors) {
  const raja::RangeSegment seg(3, 11);
  EXPECT_EQ(seg.begin(), 3);
  EXPECT_EQ(seg.end(), 11);
  EXPECT_EQ(seg.size(), 8);
}

TEST(Reducer, ImplicitConversionToValue) {
  raja::ReduceSum<double> sum(0.0);
  raja::forall<raja::seq_exec>(raja::RangeSegment(0, 10),
                               [=](long) { sum += 2.0; });
  const double v = sum;
  EXPECT_DOUBLE_EQ(v, 20.0);
}

TEST(Reducer, IndependentInstancesDoNotInterfere) {
  raja::ReduceSum<double> a(0.0);
  {
    raja::ReduceSum<double> b(0.0);
    raja::forall<raja::omp_parallel_for_exec>(raja::RangeSegment(0, 64),
                                              [=](long) {
                                                a += 1.0;
                                                b += 2.0;
                                              });
    EXPECT_DOUBLE_EQ(b.get(), 128.0);
  }
  EXPECT_DOUBLE_EQ(a.get(), 64.0);
}

// A fold must give the same bits at every pool size and whatever order the
// OS threads were created in: each kReduceBlock-long block of the segment
// is summed in index order on its own copy of the body, and the block
// partials fold in block order.  Terms of mixed magnitude make any other
// order visible in the last bits.
TEST(Reducer, FourRankFoldIsIndependentOfThreadCreationOrder) {
  constexpr long kN = 4001;
  std::vector<double> values(kN);
  for (long i = 0; i < kN; ++i) {
    values[static_cast<std::size_t>(i)] =
        (i % 3 == 0 ? 1.0e8 : 1.0e-3) / static_cast<double>(i + 1);
  }
  double expected = 0.0;
  for (long lo = 0; lo < kN; lo += tlp::kReduceBlock) {
    double partial = 0.0;
    for (long i = lo; i < std::min(lo + tlp::kReduceBlock, kN); ++i) {
      partial += values[static_cast<std::size_t>(i)];
    }
    expected += partial;
  }

  const double* v = values.data();
  const auto fold_on = [&](tlp::ThreadPool* pool) {
    raja::ReduceSum<double> sum(0.0);
    raja::forall<raja::omp_parallel_for_exec>(
        pool, raja::RangeSegment(0, kN), [=](long i) { sum += v[i]; });
    return sum.get();
  };
  const auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };

  for (int threads = 1; threads <= 4; ++threads) {
    tlp::ThreadPool first(threads);
    const double a = fold_on(&first);
    // Throwaway threads shift every thread-id-based slot assignment.
    for (int k = 0; k < 7; ++k) std::thread([] {}).join();
    tlp::ThreadPool second(threads);
    const double b = fold_on(&second);
    EXPECT_EQ(bits(a), bits(expected)) << threads << " threads";
    EXPECT_EQ(bits(b), bits(expected)) << threads << " threads";
  }
  // seq_exec folds the same blocks in the same order.
  raja::ReduceSum<double> seq(0.0);
  raja::forall<raja::seq_exec>(raja::RangeSegment(0, kN),
                               [=](long i) { seq += v[i]; });
  EXPECT_EQ(bits(seq.get()), bits(expected));
}

TEST(Forall, RunsOnTheGivenPool) {
  tlp::ThreadPool pool(3);
  std::vector<std::thread::id> ran(3);
  // One block per rank: three distinct threads, the caller being rank 0.
  raja::forall<raja::omp_parallel_for_exec>(
      &pool, raja::RangeSegment(0, 3 * tlp::kReduceBlock), [&](long i) {
        if (i % tlp::kReduceBlock == 0) {
          ran[static_cast<std::size_t>(i / tlp::kReduceBlock)] =
              std::this_thread::get_id();
        }
      });
  EXPECT_EQ(ran[0], std::this_thread::get_id());
  EXPECT_NE(ran[1], ran[0]);
  EXPECT_NE(ran[2], ran[0]);
  EXPECT_NE(ran[2], ran[1]);
}

TEST(Forall, DeviceWritesDeviceMemory) {
  simgpu::Device& dev = simgpu::default_device();
  double* d = static_cast<double*>(dev.allocate(100 * sizeof(double)));
  raja::forall<raja::simgpu_exec>(raja::RangeSegment(0, 100), [=](long i) {
    d[i] = static_cast<double>(i) * 1.5;
  });
  std::vector<double> host(100);
  dev.memcpy_d2h(host.data(), d, 100 * sizeof(double));
  EXPECT_DOUBLE_EQ(host[40], 60.0);
  dev.deallocate(d);
}

}  // namespace
