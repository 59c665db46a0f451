#include "simgpu/device.hpp"

#include <cstring>
#include <new>

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

void Device::count_launch(const KernelTraffic& traffic) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++launches_;
  }
  machine::Instrumentation& counts = machine::sink();
  counts.add_launch();
  counts.add_traffic(traffic.bytes_read, traffic.bytes_written, traffic.flops);
}

namespace {
struct NoState {};
}  // namespace

void Device::launch_1d(const std::string& name, long n,
                       const KernelTraffic& traffic,
                       const std::function<void(long)>& body) {
  launch_1d_blocks(
      name, n, traffic,
      [&](const Block1D& b) {
        for (long i = b.lo; i < b.hi; ++i) body(i);
        return NoState{};
      },
      [](NoState) {});
}

void Device::launch_2d(const std::string& name, int nx, int ny,
                       const KernelTraffic& traffic,
                       const std::function<void(int, int)>& body) {
  launch_2d_blocks(
      name, nx, ny, traffic,
      [&](const Block2D& b) {
        for (int j = b.y0; j < b.y1; ++j) {
          for (int i = b.x0; i < b.x1; ++i) body(i, j);
        }
        return NoState{};
      },
      [](NoState) {});
}

double Device::reduce_sum(const std::string& name, long n,
                          const std::function<double(long)>& value_of) {
  if (n <= 0) return 0.0;
  const long grid = (n + block_.count() - 1) / block_.count();
  // The partial kernel: one partial per block, through device memory, and
  // a final pass over them in block order (deterministic for a fixed block
  // size, whatever the pool).
  double total = 0.0;
  launch_1d_blocks(
      name, n, {grid * 8, grid * 8, n},
      [&](const Block1D& b) {
        double acc = 0.0;
        for (long i = b.lo; i < b.hi; ++i) acc += value_of(i);
        return acc;
      },
      [&](double partial) { total += partial; });
  // The final-reduce kernel; its scalar result crosses PCIe.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++launches_;
  }
  machine::Instrumentation& counts = machine::sink();
  counts.add_launch();
  counts.add_reduction();
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
