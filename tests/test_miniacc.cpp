// Unit tests for miniacc: data-region clause semantics on both targets, loop
// constructs and reduction clauses.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "miniacc/acc.hpp"

namespace {

using miniacc::DataRegion;
using miniacc::Target;

class AccTargetTest : public ::testing::TestWithParam<Target> {};

TEST_P(AccTargetTest, ParallelLoopWritesThroughRegionPointer) {
  std::vector<double> host(100, 0.0);
  {
    DataRegion region(GetParam());
    double* p = region.copy(tl::span<double>(host));
    region.parallel_loop("fill", 100, {},
                         [p](long i) { p[i] = static_cast<double>(i) * 2.0; });
  }  // device target copies back here
  EXPECT_DOUBLE_EQ(host[0], 0.0);
  EXPECT_DOUBLE_EQ(host[99], 198.0);
}

TEST_P(AccTargetTest, Loop2DCoversCollapsedSpace) {
  std::vector<double> host(12 * 7, 0.0);
  {
    DataRegion region(GetParam());
    double* p = region.copy(tl::span<double>(host));
    region.parallel_loop_2d("fill2d", 12, 7, {}, [p](int i, int j) {
      p[j * 12 + i] += 1.0;
    });
  }
  for (const double v : host) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST_P(AccTargetTest, ReductionSum) {
  std::vector<double> host(1000);
  std::iota(host.begin(), host.end(), 1.0);
  DataRegion region(GetParam());
  const double* p = region.copyin(tl::span<const double>(host));
  const double sum = region.parallel_reduce_sum(
      "sum", 40, 25, [p](int i, int j) { return p[j * 40 + i]; });
  EXPECT_DOUBLE_EQ(sum, 1000.0 * 1001.0 / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Targets, AccTargetTest,
                         ::testing::Values(Target::kHost, Target::kDevice));

TEST(AccDevice, CopyinIsNotCopiedBack) {
  std::vector<double> host(10, 1.0);
  {
    DataRegion region(Target::kDevice);
    double* p = region.copyin(tl::span<const double>(host));
    region.parallel_loop("mutate", 10, {}, [p](long i) { p[i] = 99.0; });
  }
  // copyin has no copy-out: host unchanged.
  EXPECT_DOUBLE_EQ(host[0], 1.0);
}

TEST(AccDevice, CreateIsDeviceScratch) {
  std::vector<double> host(10, 7.0);
  {
    DataRegion region(Target::kDevice);
    double* p = region.create(tl::span<double>(host));
    region.parallel_loop("scratch", 10, {}, [p](long i) { p[i] = 1.0; });
  }
  EXPECT_DOUBLE_EQ(host[3], 7.0);  // never copied in or out
}

TEST(AccDevice, UpdateHostMidRegion) {
  std::vector<double> host(10, 0.0);
  DataRegion region(Target::kDevice);
  double* p = region.copy(tl::span<double>(host));
  region.parallel_loop("set", 10, {}, [p](long i) { p[i] = 5.0; });
  EXPECT_DOUBLE_EQ(host[0], 0.0);  // device-side only so far
  region.update_host(tl::span<double>(host));
  EXPECT_DOUBLE_EQ(host[0], 5.0);
}

TEST(AccDevice, UpdateDevicePushesHostEdits) {
  std::vector<double> host(10, 1.0);
  DataRegion region(Target::kDevice);
  double* p = region.copy(tl::span<double>(host));
  host[4] = 44.0;
  region.update_device(tl::span<const double>(host));
  double out = 0.0;
  // Read back through a reduction touching just the element.
  out = region.parallel_reduce_sum(
      "probe", 10, 1, [p](int i, int) { return i == 4 ? p[i] : 0.0; });
  EXPECT_DOUBLE_EQ(out, 44.0);
}

TEST(AccDevice, UpdateOnUnmappedPointerThrows) {
  std::vector<double> host(10, 0.0);
  std::vector<double> other(10, 0.0);
  DataRegion region(Target::kDevice);
  region.copy(tl::span<double>(host));
  EXPECT_THROW(region.update_host(tl::span<double>(other)), tl::Error);
}

TEST(AccHost, PointersAreHostPointers) {
  std::vector<double> host(10, 0.0);
  DataRegion region(Target::kHost);
  double* p = region.copy(tl::span<double>(host));
  EXPECT_EQ(p, host.data());
}

TEST(AccDevice, RepeatedMappingReturnsSamePointer) {
  std::vector<double> host(10, 0.0);
  DataRegion region(Target::kDevice);
  double* a = region.copyin(tl::span<const double>(host));
  double* b = region.copy(tl::span<double>(host));
  EXPECT_EQ(a, b);  // present-table hit, copy_out upgraded
}

}  // namespace
