// Unit tests for the simulated GPU: device-memory discipline, launch
// geometry coverage, deterministic reductions, and instrumentation effects.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "machine/instrumentation.hpp"
#include "simgpu/device.hpp"
#include "simgpu/device_buffer.hpp"

namespace {

TEST(DeviceMemory, AllocateTracksAndFrees) {
  simgpu::Device dev(1 << 20);
  void* a = dev.allocate(1000);
  void* b = dev.allocate(2000);
  EXPECT_EQ(dev.bytes_allocated(), 3000u);
  dev.deallocate(a);
  EXPECT_EQ(dev.bytes_allocated(), 2000u);
  dev.deallocate(b);
  EXPECT_EQ(dev.bytes_allocated(), 0u);
}

TEST(DeviceMemory, OutOfMemoryThrows) {
  simgpu::Device dev(1024);
  void* a = dev.allocate(1000);
  EXPECT_THROW(dev.allocate(100), tl::DeviceError);
  dev.deallocate(a);
  EXPECT_NO_THROW(dev.deallocate(nullptr));
}

TEST(DeviceMemory, HugeRequestCannotWrapTheCapacityCheck) {
  // `allocated + bytes > capacity` wraps for bytes near SIZE_MAX and would
  // admit the allocation; the check must be phrased subtraction-side.
  simgpu::Device dev(1024);
  EXPECT_THROW(dev.allocate(SIZE_MAX), tl::DeviceError);
  void* a = dev.allocate(16);
  EXPECT_THROW(dev.allocate(SIZE_MAX - 8), tl::DeviceError);
  EXPECT_EQ(dev.bytes_allocated(), 16u);
  dev.deallocate(a);
}

TEST(DeviceScope, BindsAndRestoresThreadLocally) {
  simgpu::Device& global = simgpu::default_device();
  simgpu::Device mine(1 << 20);
  {
    const simgpu::DeviceScope scope(&mine);
    EXPECT_EQ(&simgpu::default_device(), &mine);
    // Nested scopes shadow and restore in LIFO order.
    simgpu::Device inner(1 << 20);
    {
      const simgpu::DeviceScope nested(&inner);
      EXPECT_EQ(&simgpu::default_device(), &inner);
    }
    EXPECT_EQ(&simgpu::default_device(), &mine);
  }
  EXPECT_EQ(&simgpu::default_device(), &global);
}

TEST(DeviceScope, DoesNotLeakAcrossThreads) {
  simgpu::Device mine(1 << 20);
  const simgpu::DeviceScope scope(&mine);
  simgpu::Device* seen = nullptr;
  std::thread other([&] { seen = &simgpu::default_device(); });
  other.join();
  EXPECT_NE(seen, &mine);  // the binding is thread-local
  EXPECT_EQ(&simgpu::default_device(), &mine);
}

TEST(DeviceMemory, CopyValidatesDevicePointers) {
  simgpu::Device dev(1 << 20);
  std::vector<double> host(10, 1.0);
  // Host pointer used as a device destination must be rejected.
  EXPECT_THROW(dev.memcpy_h2d(host.data(), host.data(), 80), tl::DeviceError);
  void* d = dev.allocate(80);
  EXPECT_NO_THROW(dev.memcpy_h2d(d, host.data(), 80));
  // Overrunning the allocation is rejected too.
  EXPECT_THROW(dev.memcpy_h2d(d, host.data(), 81), tl::DeviceError);
  dev.deallocate(d);
}

TEST(DeviceMemory, RoundTripPreservesData) {
  simgpu::Device dev(1 << 20);
  std::vector<double> out(257);
  std::iota(out.begin(), out.end(), 0.0);
  std::vector<double> back(257, -1.0);
  void* d = dev.allocate(257 * sizeof(double));
  dev.memcpy_h2d(d, out.data(), 257 * sizeof(double));
  dev.memcpy_d2h(back.data(), d, 257 * sizeof(double));
  EXPECT_EQ(out, back);
  dev.deallocate(d);
}

TEST(DeviceBuffer, RaiiReleasesMemory) {
  simgpu::Device dev(1 << 20);
  {
    simgpu::DeviceBuffer<double> buf(dev, 100);
    EXPECT_EQ(dev.bytes_allocated(), 800u);
    simgpu::DeviceBuffer<double> moved = std::move(buf);
    EXPECT_EQ(moved.size(), 100u);
  }
  EXPECT_EQ(dev.bytes_allocated(), 0u);
}

TEST(DeviceBuffer, UploadDownload) {
  simgpu::Device dev(1 << 20);
  simgpu::DeviceBuffer<double> buf(dev, 64);
  std::vector<double> v(64, 3.25);
  buf.upload(v);
  std::vector<double> w(64, 0.0);
  buf.download(w);
  EXPECT_EQ(v, w);
  std::vector<double> too_big(65);
  EXPECT_THROW(buf.upload(too_big), tl::Error);
}

class LaunchGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(LaunchGeometry, Covers2DIndexSpaceExactlyOnce) {
  const auto [nx, ny, bx, by] = GetParam();
  simgpu::Device dev(1 << 24);
  dev.set_block_size(bx, by);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(nx) * ny);
  dev.launch_2d("cover", nx, ny, {}, [&](int i, int j) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, nx);
    ASSERT_GE(j, 0);
    ASSERT_LT(j, ny);
    hits[static_cast<std::size_t>(j) * nx + i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LaunchGeometry,
    ::testing::Values(std::tuple{1, 1, 64, 8}, std::tuple{63, 7, 64, 8},
                      std::tuple{64, 8, 64, 8}, std::tuple{65, 9, 64, 8},
                      std::tuple{100, 100, 16, 16}, std::tuple{37, 53, 1, 1},
                      std::tuple{128, 3, 32, 4}));

TEST(Launch, OneDimensionalCoverage) {
  simgpu::Device dev(1 << 24);
  dev.set_block_size(64, 8);
  std::vector<std::atomic<int>> hits(10000);
  dev.launch_1d("cover1d", 10000, {}, [&](long i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Launch, EmptyLaunchIsNoop) {
  simgpu::Device dev(1 << 20);
  bool touched = false;
  dev.launch_2d("empty", 0, 5, {}, [&](int, int) { touched = true; });
  dev.launch_1d("empty1d", 0, {}, [&](long) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(Launch, RejectsBadBlockSize) {
  simgpu::Device dev(1 << 20);
  EXPECT_THROW(dev.set_block_size(0, 8), tl::Error);
}

TEST(Reduce, MatchesSerialSum) {
  simgpu::Device dev(1 << 20);
  const long n = 100001;
  const double sum =
      dev.reduce_sum("sum", n, [](long i) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(Reduce, DeterministicForFixedGeometry) {
  simgpu::Device dev(1 << 20);
  dev.set_block_size(64, 8);
  std::vector<double> values(50000);
  tl::Rng rng(3);
  // Adversarial magnitudes so ordering matters.
  for (auto& v : values) v = 1.0 / (1.0 + rng.next_double() * 1e6);
  const auto run = [&] {
    return dev.reduce_sum("det", static_cast<long>(values.size()),
                          [&](long i) { return values[static_cast<std::size_t>(i)]; });
  };
  const double first = run();
  for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(run(), first);
}

TEST(Instrumentation, LaunchAndTrafficCounted) {
  simgpu::Device dev(1 << 20);
  const machine::CounterScope scope;
  dev.launch_2d("counted", 10, 10, {800, 400, 1300}, [](int, int) {});
  const auto delta = scope.delta();
  EXPECT_EQ(delta.kernel_launches, 1);
  EXPECT_EQ(delta.bytes_read, 800);
  EXPECT_EQ(delta.bytes_written, 400);
  EXPECT_EQ(delta.flops, 1300);
}

TEST(Instrumentation, CopiesAndReductionsCounted) {
  simgpu::Device dev(1 << 20);
  simgpu::DeviceBuffer<double> buf(dev, 128);
  std::vector<double> host(128, 1.0);
  const machine::CounterScope scope;
  buf.upload(host);
  buf.download(host);
  (void)dev.reduce_sum("r", 128, [](long) { return 1.0; });
  const auto delta = scope.delta();
  EXPECT_EQ(delta.h2d_bytes, 1024);
  EXPECT_GE(delta.d2h_bytes, 1024 + 8);  // download + reduction scalar
  EXPECT_EQ(delta.reductions, 1);
  EXPECT_EQ(delta.kernel_launches, 2);  // partials + final pass
}

TEST(Device, LaunchesCounterAdvances) {
  simgpu::Device dev(1 << 20);
  const long before = dev.launches();
  dev.launch_1d("a", 10, {}, [](long) {});
  dev.launch_2d("b", 2, 2, {}, [](int, int) {});
  EXPECT_EQ(dev.launches(), before + 2);
}

TEST(Reduce, KernelCanWriteAndReduceSimultaneously) {
  // The Jacobi device kernel both writes u and reduces |du|; verify the
  // pattern works.
  simgpu::Device dev(1 << 20);
  simgpu::DeviceBuffer<double> buf(dev, 100);
  std::vector<double> init(100, 0.0);
  buf.upload(init);
  double* p = buf.data();
  const double total = dev.reduce_sum("write+reduce", 100, [p](long i) {
    p[i] = static_cast<double>(i);
    return 1.0;
  });
  EXPECT_DOUBLE_EQ(total, 100.0);
  std::vector<double> out(100);
  buf.download(out);
  EXPECT_DOUBLE_EQ(out[42], 42.0);
}

}  // namespace
