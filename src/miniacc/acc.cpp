#include "miniacc/acc.hpp"

#include <functional>

#include "common/error.hpp"
#include "machine/instrumentation.hpp"

namespace miniacc {

DataRegion::DataRegion(Target target, simgpu::Device* device,
                       tlp::ThreadPool* pool)
    : target_(target), device_(device), pool_(pool) {
  TL_REQUIRE(target_ == Target::kHost || device_ != nullptr,
             "device target requires a device");
}

DataRegion::~DataRegion() {
  if (target_ != Target::kDevice) return;
  for (auto& [host, m] : mappings_) {
    if (m.copy_out && m.device != nullptr) {
      device_->memcpy_d2h(m.host, m.device, m.count * sizeof(double));
    }
    device_->deallocate(m.device);
  }
}

double* DataRegion::map(tl::span<const double> host, bool copy_in,
                        bool copy_out) {
  double* host_ptr = const_cast<double*>(host.data());
  if (target_ == Target::kHost) return host_ptr;

  const auto it = mappings_.find(host.data());
  if (it != mappings_.end()) {
    it->second.copy_out = it->second.copy_out || copy_out;
    return it->second.device;
  }
  Mapping m;
  m.host = host_ptr;
  m.count = host.size();
  m.copy_out = copy_out;
  m.device = static_cast<double*>(device_->allocate(m.count * sizeof(double)));
  if (copy_in) {
    device_->memcpy_h2d(m.device, host.data(), m.count * sizeof(double));
  }
  mappings_[host.data()] = m;
  return m.device;
}

DataRegion::Mapping& DataRegion::mapping_for(const double* host) {
  const auto it = mappings_.find(host);
  TL_REQUIRE(it != mappings_.end(), "update on pointer not in data region");
  return it->second;
}

double* DataRegion::copyin(tl::span<const double> host) {
  return map(host, /*copy_in=*/true, /*copy_out=*/false);
}

double* DataRegion::copy(tl::span<double> host) {
  return map(host, /*copy_in=*/true, /*copy_out=*/true);
}

double* DataRegion::create(tl::span<double> host) {
  return map(host, /*copy_in=*/false, /*copy_out=*/false);
}

void DataRegion::update_host(tl::span<double> host) {
  if (target_ == Target::kHost) return;
  const Mapping& m = mapping_for(host.data());
  device_->memcpy_d2h(m.host, m.device, m.count * sizeof(double));
}

void DataRegion::update_device(tl::span<const double> host) {
  if (target_ == Target::kHost) return;
  const Mapping& m = mapping_for(host.data());
  device_->memcpy_h2d(m.device, m.host, m.count * sizeof(double));
}

tlp::ThreadPool& DataRegion::pool() {
  return pool_ != nullptr ? *pool_ : tlp::global_pool();
}

void DataRegion::parallel_loop(const std::string& name, long n,
                               const KernelTraffic& traffic,
                               const std::function<void(long)>& body) {
  if (target_ == Target::kDevice) {
    device_->launch_1d(name, n, traffic, body);
    return;
  }
  pool().parallel_for(0, n, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) body(i);
  });
  machine::Instrumentation& counts = machine::sink();
  counts.add_launch();
  counts.add_traffic(traffic.bytes_read, traffic.bytes_written, traffic.flops);
}

void DataRegion::parallel_loop_2d(const std::string& name, int nx, int ny,
                                  const KernelTraffic& traffic,
                                  const std::function<void(int, int)>& body) {
  if (target_ == Target::kDevice) {
    device_->launch_2d(name, nx, ny, traffic, body);
    return;
  }
  // collapse(2): work-share the flattened row space.
  pool().parallel_for(0, ny, [&](long jlo, long jhi) {
    for (long j = jlo; j < jhi; ++j) {
      for (int i = 0; i < nx; ++i) body(i, static_cast<int>(j));
    }
  });
  machine::Instrumentation& counts = machine::sink();
  counts.add_launch();
  counts.add_traffic(traffic.bytes_read, traffic.bytes_written, traffic.flops);
}

double DataRegion::parallel_reduce_sum(
    const std::string& name, int nx, int ny,
    const std::function<double(int, int)>& value_of) {
  const long n = static_cast<long>(nx) * ny;
  if (target_ == Target::kDevice) {
    return device_->reduce_sum(name, n, [&](long idx) {
      return value_of(static_cast<int>(idx % nx), static_cast<int>(idx / nx));
    });
  }
  const double result = tlp::reduce_rows(
      &pool(), ny, 0.0,
      [&](long j) {
        double acc = 0.0;
        for (int i = 0; i < nx; ++i) acc += value_of(i, static_cast<int>(j));
        return acc;
      },
      std::plus<>());
  machine::Instrumentation& counts = machine::sink();
  counts.add_launch();
  counts.add_reduction();
  counts.add_traffic(n * 8, 0, n);
  return result;
}

}  // namespace miniacc
