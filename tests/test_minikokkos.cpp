// Unit tests for minikokkos: views, layouts, spaces, deep_copy/mirrors and
// parallel dispatch across all three execution spaces.  Runs under TSan in
// CI: pool threads write the per-row partials Threads reductions fold.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "minikokkos/minikokkos.hpp"

namespace {

TEST(View, Rank1AllocatesZeroed) {
  kk::View1D<double> v("v", 100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.label(), "v");
  for (std::size_t i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(v(i), 0.0);
}

TEST(View, SharedOwnershipSemantics) {
  kk::View1D<double> a("a", 10);
  kk::View1D<double> b = a;  // handle copy, same allocation
  b(3) = 7.0;
  EXPECT_DOUBLE_EQ(a(3), 7.0);
  EXPECT_EQ(a.data(), b.data());
}

TEST(View, Rank2LayoutRightStrides) {
  kk::View2D<double, kk::LayoutRight> v("v", 3, 4);  // 3 rows x 4 cols
  v(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(v.data()[1 * 4 + 2], 5.0);
  EXPECT_EQ(v.extent(0), 3);
  EXPECT_EQ(v.extent(1), 4);
}

TEST(View, Rank2LayoutLeftStrides) {
  kk::View2D<double, kk::LayoutLeft> v("v", 3, 4);
  v(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(v.data()[2 * 3 + 1], 5.0);
}

TEST(View, DefaultLayoutPerSpace) {
  using HostDefault = kk::View2D<double, void, kk::HostSpace>::layout;
  using DeviceDefault = kk::View2D<double, void, kk::SimGPUSpace>::layout;
  static_assert(std::is_same_v<HostDefault, kk::LayoutRight>);
  static_assert(std::is_same_v<DeviceDefault, kk::LayoutLeft>);
  SUCCEED();
}

TEST(DeepCopy, HostToHost) {
  kk::View1D<double> a("a", 50), b("b", 50);
  for (std::size_t i = 0; i < 50; ++i) a(i) = static_cast<double>(i);
  kk::deep_copy(b, a);
  EXPECT_DOUBLE_EQ(b(49), 49.0);
  kk::View1D<double> wrong("w", 51);
  EXPECT_THROW(kk::deep_copy(wrong, a), tl::Error);
}

TEST(DeepCopy, HostDeviceRoundTrip) {
  kk::View1D<double, kk::SimGPUSpace> dev("dev", 64);
  auto mirror = kk::create_mirror_view(dev);
  static_assert(std::is_same_v<decltype(mirror)::memory_space, kk::HostSpace>);
  for (std::size_t i = 0; i < 64; ++i) mirror(i) = 2.0 * static_cast<double>(i);
  kk::deep_copy(dev, mirror);
  kk::View1D<double, kk::HostSpace> back("back", 64);
  kk::deep_copy(back, dev);
  EXPECT_DOUBLE_EQ(back(10), 20.0);
}

TEST(DeepCopy, MirrorOfHostViewIsSameView) {
  kk::View1D<double> host("h", 8);
  auto mirror = kk::create_mirror_view(host);
  EXPECT_EQ(mirror.data(), host.data());
}

TEST(DeepCopy, Rank2MirrorKeepsLayout) {
  kk::View2D<double, void, kk::SimGPUSpace> dev("d", 4, 6);
  auto mirror = kk::create_mirror_view(dev);
  static_assert(
      std::is_same_v<decltype(mirror)::layout, kk::LayoutLeft>);
  mirror(2, 3) = 9.0;
  kk::deep_copy(dev, mirror);
  kk::View2D<double, kk::LayoutLeft, kk::HostSpace> back("b", 4, 6);
  kk::deep_copy(back, dev);
  EXPECT_DOUBLE_EQ(back(2, 3), 9.0);
}

// --- parallel dispatch across execution spaces ---------------------------------

template <typename Exec>
struct ExecName;
template <>
struct ExecName<kk::Serial> {
  static constexpr const char* value = "Serial";
};
template <>
struct ExecName<kk::Threads> {
  static constexpr const char* value = "Threads";
};
template <>
struct ExecName<kk::SimGPU> {
  static constexpr const char* value = "SimGPU";
};

template <typename Exec>
class ExecSpaceTest : public ::testing::Test {};

using ExecSpaces = ::testing::Types<kk::Serial, kk::Threads, kk::SimGPU>;
TYPED_TEST_SUITE(ExecSpaceTest, ExecSpaces);

TYPED_TEST(ExecSpaceTest, ParallelForRange) {
  using Exec = TypeParam;
  using Space = typename kk::SpaceOf<Exec>::type;
  kk::View1D<double, Space> v("v", 1000);
  kk::parallel_for("fill", kk::RangePolicy<Exec>(0, 1000),
                   [=](long i) { v(static_cast<std::size_t>(i)) = 3.0 * i; });
  auto host = kk::create_mirror_view(v);
  kk::deep_copy(host, v);
  EXPECT_DOUBLE_EQ(host(999), 2997.0);
  EXPECT_DOUBLE_EQ(host(0), 0.0);
}

TYPED_TEST(ExecSpaceTest, ParallelForMDRange) {
  using Exec = TypeParam;
  using Space = typename kk::SpaceOf<Exec>::type;
  kk::View1D<double, Space> v("v", 20 * 30);
  kk::parallel_for("fill2d", kk::MDRangePolicy2<Exec>(0, 20, 0, 30),
                   [=](long i0, long i1) {
                     v(static_cast<std::size_t>(i0 * 30 + i1)) =
                         static_cast<double>(i0 * 100 + i1);
                   });
  auto host = kk::create_mirror_view(v);
  kk::deep_copy(host, v);
  EXPECT_DOUBLE_EQ(host(5 * 30 + 7), 507.0);
}

TYPED_TEST(ExecSpaceTest, ParallelReduceSum) {
  using Exec = TypeParam;
  double result = -1.0;
  kk::parallel_reduce(
      "sum", kk::RangePolicy<Exec>(0, 10000),
      [](long i, double& acc) { acc += static_cast<double>(i); }, result);
  EXPECT_DOUBLE_EQ(result, 10000.0 * 9999.0 / 2.0);
}

TYPED_TEST(ExecSpaceTest, ReduceOverOffsetRange) {
  using Exec = TypeParam;
  double result = 0.0;
  kk::parallel_reduce(
      "sum", kk::RangePolicy<Exec>(100, 200),
      [](long, double& acc) { acc += 1.0; }, result);
  EXPECT_DOUBLE_EQ(result, 100.0);
}

// --- MDRange reductions ---------------------------------------------------------

// A rows x cols grid whose magnitudes span eleven decades, so a sum's bits
// depend on the order it is folded in.
constexpr long kRows = 61;
constexpr long kCols = 47;

double grid_value(long i0, long i1) {
  const long k = i0 * kCols + i1;
  return (k % 3 == 0 ? 1.0e8 : 1.0e-3) / static_cast<double>(k + 1);
}

template <typename Space>
kk::View1D<double, Space> make_grid() {
  kk::View1D<double, Space> v("grid", kRows * kCols);
  auto host = kk::create_mirror_view(v);
  for (long i0 = 0; i0 < kRows; ++i0) {
    for (long i1 = 0; i1 < kCols; ++i1) {
      host(static_cast<std::size_t>(i0 * kCols + i1)) = grid_value(i0, i1);
    }
  }
  kk::deep_copy(v, host);
  return v;
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// Sum over the sub-grid [b0, e0) x [b1, e1) on `space`.
template <typename Exec, typename Space>
double grid_sum(Exec space, const kk::View1D<double, Space>& v, long b0,
                long e0, long b1, long e1) {
  double result = -1.0;
  kk::parallel_reduce(
      "grid_sum", kk::MDRangePolicy2<Exec>(space, b0, e0, b1, e1),
      [=](long i0, long i1, double& acc) {
        acc += v(static_cast<std::size_t>(i0 * kCols + i1));
      },
      result);
  return result;
}

TYPED_TEST(ExecSpaceTest, MDRangeReduceMatchesNestedLoop) {
  using Exec = TypeParam;
  using Space = typename kk::SpaceOf<Exec>::type;
  const auto v = make_grid<Space>();
  // An offset sub-grid, so both begin bounds are exercised.
  double expected = 0.0;
  for (long i0 = 3; i0 < kRows - 2; ++i0) {
    for (long i1 = 5; i1 < kCols - 1; ++i1) expected += grid_value(i0, i1);
  }
  const double got = grid_sum(Exec{}, v, 3, kRows - 2, 5, kCols - 1);
  if constexpr (std::is_same_v<Exec, kk::Serial>) {
    EXPECT_EQ(bits(got), bits(expected));
  } else {
    EXPECT_NEAR(got, expected, 1e-12 * expected);
  }
}

TEST(MDRangeReduce, ThreadsRunOnTheNamedPool) {
  // The global pool's threads, so a launch that ignored the instance and
  // fell back to it would be seen.
  tlp::ThreadPool& global = tlp::global_pool();
  std::vector<std::thread::id> global_ids(
      static_cast<std::size_t>(global.size()));
  global.parallel_region([&](int tid, int) {
    global_ids[static_cast<std::size_t>(tid)] = std::this_thread::get_id();
  });

  tlp::ThreadPool pool(3);
  std::vector<std::thread::id> ran(3);
  double rows = 0.0;
  kk::parallel_reduce(
      "where", kk::MDRangePolicy2<kk::Threads>(kk::Threads{&pool}, 0, 3, 0, 2),
      [&](long i0, long, double& acc) {
        ran[static_cast<std::size_t>(i0)] = std::this_thread::get_id();
        acc += 0.5;
      },
      rows);
  EXPECT_EQ(rows, 3.0);
  // One row per rank: the caller is rank 0, the others are this pool's own
  // workers, none of them a global-pool worker.
  EXPECT_EQ(ran[0], std::this_thread::get_id());
  EXPECT_NE(ran[1], ran[0]);
  EXPECT_NE(ran[2], ran[0]);
  EXPECT_NE(ran[2], ran[1]);
  for (std::size_t k = 1; k < ran.size(); ++k) {
    for (std::size_t g = 1; g < global_ids.size(); ++g) {
      EXPECT_NE(ran[k], global_ids[g]) << "row " << k;
    }
  }
}

TEST(MDRangeReduce, ThreadsBitwiseRepeatableAcrossPools) {
  const auto v = make_grid<kk::HostSpace>();
  // Each row sweeps into its own partial, and the row partials are added in
  // row order — whatever the pool size, so every size gives these bits.
  double expected = 0.0;
  for (long i0 = 0; i0 < kRows; ++i0) {
    double partial = 0.0;
    for (long i1 = 0; i1 < kCols; ++i1) partial += grid_value(i0, i1);
    expected += partial;
  }

  for (int threads = 1; threads <= 4; ++threads) {
    tlp::ThreadPool first(threads);
    const kk::Threads on_first{&first};
    const double a = grid_sum(on_first, v, 0, kRows, 0, kCols);
    const double a_again = grid_sum(on_first, v, 0, kRows, 0, kCols);
    // Throwaway threads shift any thread-identity-based assignment.
    for (int k = 0; k < 7; ++k) std::thread([] {}).join();
    tlp::ThreadPool second(threads);
    const double b = grid_sum(kk::Threads{&second}, v, 0, kRows, 0, kCols);
    EXPECT_EQ(bits(a), bits(expected)) << threads << " threads";
    EXPECT_EQ(bits(a_again), bits(expected)) << threads << " threads";
    EXPECT_EQ(bits(b), bits(expected)) << threads << " threads";
  }
}

TEST(MDRangeReduce, SimGPUMatchesFlatRangeReduceBitwise) {
  const auto v = make_grid<kk::SimGPUSpace>();
  const long b0 = 2, e0 = kRows - 1, b1 = 1, e1 = kCols - 3;
  const long n1 = e1 - b1;
  double flat = -1.0;
  kk::parallel_reduce(
      "grid_sum", kk::RangePolicy<kk::SimGPU>(0, (e0 - b0) * n1),
      [=](long idx, double& acc) {
        const long i0 = b0 + idx / n1;
        const long i1 = b1 + idx % n1;
        acc += v(static_cast<std::size_t>(i0 * kCols + i1));
      },
      flat);
  const double md = grid_sum(kk::SimGPU{}, v, b0, e0, b1, e1);
  EXPECT_EQ(bits(md), bits(flat));
}

TEST(MDRangeReduce, HostLaunchChargesOneLaunchAndOneReduction) {
  const auto v = make_grid<kk::HostSpace>();
  tlp::ThreadPool pool(2);
  {
    const machine::CounterScope scope;
    grid_sum(kk::Serial{}, v, 0, kRows, 0, kCols);
    EXPECT_EQ(scope.delta().kernel_launches, 1);
    EXPECT_EQ(scope.delta().reductions, 1);
  }
  {
    const machine::CounterScope scope;
    grid_sum(kk::Threads{&pool}, v, 0, kRows, 0, kCols);
    EXPECT_EQ(scope.delta().kernel_launches, 1);
    EXPECT_EQ(scope.delta().reductions, 1);
    EXPECT_EQ(scope.delta().total_bytes(), 0);
  }
}

TEST(Parallel, InstrumentationCountsHostLaunch) {
  const machine::CounterScope scope;
  kk::parallel_for("noop", kk::RangePolicy<kk::Serial>(0, 4), [](long) {});
  EXPECT_EQ(scope.delta().kernel_launches, 1);
}

TEST(Parallel, DeviceLaunchCountedByDevice) {
  const machine::CounterScope scope;
  kk::View1D<double, kk::SimGPUSpace> v("v", 16);
  kk::parallel_for("dev", kk::RangePolicy<kk::SimGPU>(0, 16),
                   [=](long i) { v(static_cast<std::size_t>(i)) = 1.0; });
  EXPECT_EQ(scope.delta().kernel_launches, 1);
}

}  // namespace
