#include "simgpu/device.hpp"

#include <cstring>
#include <new>
#include <vector>

#include "common/error.hpp"

namespace simgpu {

Device::Device(std::size_t memory_capacity, tlp::ThreadPool* pool)
    : capacity_(memory_capacity), pool_(pool) {}

Device::~Device() {
  // Leak any outstanding allocations' bookkeeping but free the memory: a
  // destructor must not throw, and DeviceBuffer handles the normal path.
  for (auto& [ptr, bytes] : allocations_) {
    ::operator delete(const_cast<void*>(ptr), std::align_val_t(64));
  }
}

tlp::ThreadPool& Device::pool() {
  return pool_ != nullptr ? *pool_ : tlp::global_pool();
}

void* Device::allocate(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Overflow-safe capacity check: `allocated_ + bytes` wraps for huge
  // requests (e.g. SIZE_MAX), which would make them look like they fit.
  if (bytes > capacity_ - allocated_) {
    throw tl::DeviceError("device out of memory: requested " +
                          std::to_string(bytes) + " bytes with " +
                          std::to_string(capacity_ - allocated_) +
                          " available");
  }
  void* ptr = ::operator new(bytes == 0 ? 1 : bytes, std::align_val_t(64));
  allocations_[ptr] = bytes;
  allocated_ += bytes;
  return ptr;
}

void Device::deallocate(void* ptr) {
  if (ptr == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = allocations_.find(ptr);
  TL_REQUIRE(it != allocations_.end(), "deallocate of non-device pointer");
  allocated_ -= it->second;
  allocations_.erase(it);
  ::operator delete(ptr, std::align_val_t(64));
}

std::size_t Device::bytes_allocated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocated_;
}

void Device::check_device_ptr(const void* ptr, std::size_t bytes,
                              const char* what) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // The pointer must lie inside a live allocation.
  auto it = allocations_.upper_bound(ptr);
  if (it != allocations_.begin()) {
    --it;
    const auto* base = static_cast<const unsigned char*>(it->first);
    const auto* p = static_cast<const unsigned char*>(ptr);
    if (p >= base && p + bytes <= base + it->second) return;
  }
  throw tl::DeviceError(std::string(what) +
                        ": pointer is not (entirely) device memory");
}

void Device::memcpy_h2d(void* dst_device, const void* src_host,
                        std::size_t bytes) {
  check_device_ptr(dst_device, bytes, "memcpy_h2d dst");
  std::memcpy(dst_device, src_host, bytes);
  machine::sink().add_h2d(static_cast<std::int64_t>(bytes));
}

void Device::memcpy_d2h(void* dst_host, const void* src_device,
                        std::size_t bytes) {
  check_device_ptr(src_device, bytes, "memcpy_d2h src");
  std::memcpy(dst_host, src_device, bytes);
  machine::sink().add_d2h(static_cast<std::int64_t>(bytes));
}

void Device::memcpy_d2d(void* dst_device, const void* src_device,
                        std::size_t bytes) {
  check_device_ptr(dst_device, bytes, "memcpy_d2d dst");
  check_device_ptr(src_device, bytes, "memcpy_d2d src");
  std::memmove(dst_device, src_device, bytes);
  machine::sink().add_traffic(static_cast<std::int64_t>(bytes),
                              static_cast<std::int64_t>(bytes), 0);
}

void Device::set_block_size(int bx, int by) {
  TL_REQUIRE(bx > 0 && by > 0, "block size must be positive");
  block_ = Dim3{bx, by, 1};
}

void Device::launch_1d(const std::string& name, long n,
                       const KernelTraffic& traffic,
                       const std::function<void(long)>& body) {
  launch_1d_blocks(name, n, traffic, [&](const Block1D& b) {
    for (long i = b.lo; i < b.hi; ++i) body(i);
  });
}

void Device::launch_2d(const std::string& name, int nx, int ny,
                       const KernelTraffic& traffic,
                       const std::function<void(int, int)>& body) {
  launch_2d_blocks(name, nx, ny, traffic, [&](const Block2D& b) {
    for (int j = b.y0; j < b.y1; ++j) {
      for (int i = b.x0; i < b.x1; ++i) body(i, j);
    }
  });
}

void Device::launch_1d_blocks(
    const std::string& name, long n, const KernelTraffic& traffic,
    const std::function<void(const Block1D&)>& block_body) {
  (void)name;
  if (n <= 0) return;
  const long block = static_cast<long>(block_.x) * block_.y;
  const long grid = (n + block - 1) / block;
  // Blocks are scheduled across workers like SMs pick up thread blocks.
  pool().parallel_for(0, grid, [&](long blo, long bhi) {
    for (long b = blo; b < bhi; ++b) {
      const long lo = b * block;
      block_body(Block1D{b, lo, std::min(lo + block, n)});
    }
  });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++launches_;
  }
  machine::Instrumentation& counts = machine::sink();
  counts.add_launch();
  counts.add_traffic(traffic.bytes_read, traffic.bytes_written, traffic.flops);
}

void Device::launch_2d_blocks(
    const std::string& name, int nx, int ny, const KernelTraffic& traffic,
    const std::function<void(const Block2D&)>& block_body) {
  (void)name;
  if (nx <= 0 || ny <= 0) return;
  const int gx = div_up(nx, block_.x);
  const int gy = div_up(ny, block_.y);
  const long blocks = static_cast<long>(gx) * gy;
  pool().parallel_for(0, blocks, [&](long blo, long bhi) {
    for (long b = blo; b < bhi; ++b) {
      const int x0 = static_cast<int>(b % gx) * block_.x;
      const int y0 = static_cast<int>(b / gx) * block_.y;
      block_body(Block2D{b, x0, std::min(x0 + block_.x, nx), y0,
                         std::min(y0 + block_.y, ny)});
    }
  });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++launches_;
  }
  machine::Instrumentation& counts = machine::sink();
  counts.add_launch();
  counts.add_traffic(traffic.bytes_read, traffic.bytes_written, traffic.flops);
}

double Device::reduce_sum(const std::string& name, long n,
                          const std::function<double(long)>& value_of) {
  (void)name;
  if (n <= 0) return 0.0;
  const long block = static_cast<long>(block_.x) * block_.y;
  const long grid = (n + block - 1) / block;
  std::vector<double> partials(static_cast<std::size_t>(grid), 0.0);
  pool().parallel_for(0, grid, [&](long blo, long bhi) {
    for (long b = blo; b < bhi; ++b) {
      const long lo = b * block;
      const long hi = std::min(lo + block, n);
      double acc = 0.0;
      for (long i = lo; i < hi; ++i) acc += value_of(i);
      partials[static_cast<std::size_t>(b)] = acc;
    }
  });
  // Final pass in block order: deterministic for fixed geometry.
  double total = 0.0;
  for (const double p : partials) total += p;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    launches_ += 2;  // partial kernel + final-reduce kernel
  }
  machine::Instrumentation& counts = machine::sink();
  counts.add_launch(2);
  counts.add_reduction();
  // Partials travel through device memory; the scalar result crosses PCIe.
  counts.add_traffic(static_cast<std::int64_t>(grid) * 8,
                     static_cast<std::int64_t>(grid) * 8,
                     static_cast<std::int64_t>(n));
  counts.add_d2h(8);
  return total;
}

namespace {
thread_local Device* scoped_device = nullptr;
}  // namespace

Device& default_device() {
  if (scoped_device != nullptr) return *scoped_device;
  static Device device;
  return device;
}

DeviceScope::DeviceScope(Device* device) : previous_(scoped_device) {
  scoped_device = device;
}

DeviceScope::~DeviceScope() { scoped_device = previous_; }

}  // namespace simgpu
