// raja_backend.hpp — TeaLeaf through miniraja, following the RAJA port's
// structure: every kernel is a RAJA::kernel with two For statements (rows
// outer, columns inner — raja::kernel_2d), reductions are portable ReduceSum
// objects that each loop-body copy accumulates privately, and the same loop
// bodies serve the OpenMP and CUDA policies.  The host policy runs on the
// pool the backend is constructed with.
//
//   raja-omp  : RajaBackend<raja::omp_parallel_for_exec>  (host arrays)
//   raja-cuda : RajaBackend<raja::simgpu_exec>            (device arrays)
#pragma once

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/backends/ref_kernels.hpp"
#include "core/problem.hpp"
#include "machine/instrumentation.hpp"
#include "miniraja/miniraja.hpp"
#include "simgpu/device.hpp"

namespace tea {

namespace detail {

/// Field storage trait: host-aligned slabs for CPU policies, device memory
/// for the GPU policy (the original uses CUDA-managed allocations; explicit
/// device buffers preserve the residency without the paging magic).
template <typename Policy>
struct RajaStorage {
  static constexpr bool on_device = false;
  static double* allocate(std::size_t count) {
    auto* p = static_cast<double*>(
        ::operator new(count * sizeof(double), std::align_val_t(64)));
    std::memset(static_cast<void*>(p), 0, count * sizeof(double));
    return p;
  }
  static void deallocate(double* p) {
    ::operator delete(p, std::align_val_t(64));
  }
  static void fill(double* dst, const std::vector<double>& src) {
    std::memcpy(dst, src.data(), src.size() * sizeof(double));
  }
};

template <>
struct RajaStorage<raja::simgpu_exec> {
  static constexpr bool on_device = true;
  static double* allocate(std::size_t count) {
    auto* p = static_cast<double*>(
        simgpu::default_device().allocate(count * sizeof(double)));
    std::vector<double> zeros(count, 0.0);
    simgpu::default_device().memcpy_h2d(p, zeros.data(),
                                        count * sizeof(double));
    return p;
  }
  static void deallocate(double* p) { simgpu::default_device().deallocate(p); }
  static void fill(double* dst, const std::vector<double>& src) {
    simgpu::default_device().memcpy_h2d(dst, src.data(),
                                        src.size() * sizeof(double));
  }
};

/// A field as the kernels index it: a RAJA::View with a 2-D layout over the
/// padded slab, (i, j) from the interior origin in RAJA's 64-bit index type,
/// so a cell address is one multiply-add with no narrowing.
struct RajaView {
  double* origin = nullptr;
  long stride = 0;

  double& operator()(long i, long j) const { return origin[j * stride + i]; }
};

}  // namespace detail

template <typename Policy>
class RajaBackend final : public Backend {
  using Storage = detail::RajaStorage<Policy>;
  using View = detail::RajaView;

public:
  /// `pool` runs the host policy's loops (nullptr: tlp::global_pool()); the
  /// GPU policy runs on the current simgpu device.
  explicit RajaBackend(std::string id, tlp::ThreadPool* pool = nullptr)
      : id_(std::move(id)), pool_(pool) {}

  ~RajaBackend() override {
    for (double* f : fields_) {
      if (f != nullptr) Storage::deallocate(f);
    }
  }

  std::string id() const override { return id_; }

  void setup(const tl::ProblemConfig& cfg) override {
    nx_ = cfg.x_cells;
    ny_ = cfg.y_cells;
    halo_ = cfg.halo_depth;
    pnx_ = nx_ + 2 * halo_;
    pny_ = ny_ + 2 * halo_;
    const std::size_t padded = static_cast<std::size_t>(pnx_) * pny_;
    for (auto& f : fields_) f = Storage::allocate(padded);

    const StateSampler sampler(cfg);
    cell_volume_ = sampler.cell_volume();
    std::vector<double> stage(padded, 0.0);
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        stage[static_cast<std::size_t>(j + halo_) * pnx_ + (i + halo_)] =
            sampler.density_at(i, j);
      }
    }
    Storage::fill(field(FieldId::kDensity), stage);
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        stage[static_cast<std::size_t>(j + halo_) * pnx_ + (i + halo_)] =
            sampler.energy_at(i, j);
      }
    }
    Storage::fill(field(FieldId::kEnergy0), stage);
    Storage::fill(field(FieldId::kEnergy1), stage);

    update_halo({FieldId::kDensity, FieldId::kEnergy0, FieldId::kEnergy1},
                halo_);
  }

  void compute_coefficients(tl::CoefficientKind kind) override {
    const View density = cv(FieldId::kDensity);
    const View kx = cv(FieldId::kKx);
    const View ky = cv(FieldId::kKy);
    const int nx = nx_;
    const int ny = ny_;
    kernel(ny + 1, nx + 1, [=](long j, long i) {
      const double wc = ref::conduction(density(i, j), kind);
      if (j < ny) {
        const double wl = ref::conduction(density(i - 1, j), kind);
        kx(i, j) = (wl + wc) / (2.0 * wl * wc);
      }
      if (i < nx) {
        const double wd = ref::conduction(density(i, j - 1), kind);
        ky(i, j) = (wd + wc) / (2.0 * wd * wc);
      }
    });
    charge(ref::kCostCoefficients);
  }

  void init_u_u0() override {
    const View density = cv(FieldId::kDensity);
    const View energy = cv(FieldId::kEnergy1);
    const View u = cv(FieldId::kU);
    const View u0 = cv(FieldId::kU0);
    kernel(ny_, nx_, [=](long j, long i) {
      const double v = energy(i, j) * density(i, j);
      u(i, j) = v;
      u0(i, j) = v;
    });
    charge(ref::kCostInitU);
  }

  void apply_operator(FieldId in, FieldId out) override {
    const View vin = cv(in);
    const View vout = cv(out);
    const View kx = cv(FieldId::kKx);
    const View ky = cv(FieldId::kKy);
    const double rx = rx_, ry = ry_;
    kernel(ny_, nx_, [=](long j, long i) {
      vout(i, j) = ref::apply_operator_at(vin, kx, ky, rx, ry, i, j);
    });
    charge(ref::kCostOperator);
  }

  void compute_residual() override {
    const View u = cv(FieldId::kU);
    const View u0 = cv(FieldId::kU0);
    const View r = cv(FieldId::kR);
    const View kx = cv(FieldId::kKx);
    const View ky = cv(FieldId::kKy);
    const double rx = rx_, ry = ry_;
    kernel(ny_, nx_, [=](long j, long i) {
      const double au = ref::apply_operator_at(u, kx, ky, rx, ry, i, j);
      r(i, j) = u0(i, j) - au;
    });
    charge(ref::kCostResidual);
  }

  void copy_field(FieldId src, FieldId dst) override {
    const View s = cv(src);
    const View d = cv(dst);
    kernel(ny_, nx_, [=](long j, long i) {
      d(i, j) = s(i, j);
    });
    charge(ref::kCostCopy);
  }

  void scale_copy(FieldId dst, FieldId src, double sc) override {
    const View s = cv(src);
    const View d = cv(dst);
    kernel(ny_, nx_, [=](long j, long i) {
      d(i, j) = sc * s(i, j);
    });
    charge(ref::kCostScaleCopy);
  }

  double dot(FieldId a, FieldId b) override {
    const View va = cv(a);
    const View vb = cv(b);
    raja::ReduceSum<double> sum(0.0);
    kernel(ny_, nx_, [=](long j, long i) {
      sum += va(i, j) * vb(i, j);
    });
    charge(ref::kCostDot);
    charge_reduction();
    return sum.get();
  }

  void axpy(FieldId y, double a, FieldId x) override {
    const View vy = cv(y);
    const View vx = cv(x);
    kernel(ny_, nx_, [=](long j, long i) {
      vy(i, j) += a * vx(i, j);
    });
    charge(ref::kCostAxpy);
  }

  void zaxpy(FieldId p, double beta, FieldId z) override {
    const View vp = cv(p);
    const View vz = cv(z);
    kernel(ny_, nx_, [=](long j, long i) {
      vp(i, j) = vz(i, j) + beta * vp(i, j);
    });
    charge(ref::kCostZaxpy);
  }

  void precondition(FieldId dst, FieldId src) override {
    const View d = cv(dst);
    const View s = cv(src);
    const View kx = cv(FieldId::kKx);
    const View ky = cv(FieldId::kKy);
    const double rx = rx_, ry = ry_;
    kernel(ny_, nx_, [=](long j, long i) {
      const double diag = 1.0 + rx * (kx(i + 1, j) + kx(i, j)) +
                          ry * (ky(i, j + 1) + ky(i, j));
      d(i, j) = s(i, j) / diag;
    });
    charge(ref::kCostOperator);
  }

  void smooth_update(FieldId acc, FieldId res, FieldId w, FieldId sd,
                     double alpha, double beta) override {
    const View vacc = cv(acc);
    const View vres = cv(res);
    const View vw = cv(w);
    const View vsd = cv(sd);
    kernel(ny_, nx_, [=](long j, long i) {
      vacc(i, j) += vsd(i, j);
      vres(i, j) -= vw(i, j);
      vsd(i, j) = alpha * vsd(i, j) + beta * vres(i, j);
    });
    charge(ref::kCostSmooth);
  }

  double jacobi_iterate() override {
    // Sweep u -> w (halo of u freshly updated by the solver), then commit.
    const View uold = cv(FieldId::kU);
    const View u0 = cv(FieldId::kU0);
    const View w = cv(FieldId::kW);
    const View kx = cv(FieldId::kKx);
    const View ky = cv(FieldId::kKy);
    const double rx = rx_, ry = ry_;
    raja::ReduceSum<double> err(0.0);
    kernel(ny_, nx_, [=](long j, long i) {
      const double diag = 1.0 + rx * (kx(i + 1, j) + kx(i, j)) +
                          ry * (ky(i, j + 1) + ky(i, j));
      const double off =
          rx * (kx(i + 1, j) * uold(i + 1, j) + kx(i, j) * uold(i - 1, j)) +
          ry * (ky(i, j + 1) * uold(i, j + 1) + ky(i, j) * uold(i, j - 1));
      const double unew = (u0(i, j) + off) / diag;
      w(i, j) = unew;
      err += std::fabs(unew - uold(i, j));
    });
    copy_field(FieldId::kW, FieldId::kU);
    charge(ref::kCostJacobi);
    charge_reduction();
    return err.get();
  }

  FieldSummary field_summary() override {
    const View density = cv(FieldId::kDensity);
    const View energy = cv(FieldId::kEnergy0);
    const View u = cv(FieldId::kU);
    const double vol_cell = cell_volume_;
    raja::ReduceSum<double> mass(0.0), ie(0.0), temp(0.0);
    kernel(ny_, nx_, [=](long j, long i) {
      mass += density(i, j) * vol_cell;
      ie += density(i, j) * energy(i, j) * vol_cell;
      temp += u(i, j) * vol_cell;
    });
    charge(ref::kCostSummary);
    charge_reduction();
    FieldSummary s;
    s.vol = vol_cell * static_cast<double>(static_cast<long>(nx_) * ny_);
    s.mass = mass.get();
    s.ie = ie.get();
    s.temp = temp.get();
    return s;
  }

  void update_halo(std::initializer_list<FieldId> fields, int depth) override {
    const int nx = nx_;
    const int ny = ny_;
    for (const FieldId fid : fields) {
      const View f = cv(fid);
      kernel(ny, depth, [=](long j, long k) {
        f(-1 - k, j) = f(k, j);
        f(nx + k, j) = f(nx - 1 - k, j);
      });
      kernel(depth, nx + 2 * depth, [=](long k, long ii) {
        const long i = ii - depth;
        f(i, -1 - k) = f(i, k);
        f(i, ny + k) = f(i, ny - 1 - k);
      });
    }
    machine::sink().add_halo_exchange(static_cast<std::int64_t>(fields.size()));
  }

  void finalise() override {
    const View u = cv(FieldId::kU);
    const View density = cv(FieldId::kDensity);
    const View energy = cv(FieldId::kEnergy1);
    kernel(ny_, nx_, [=](long j, long i) {
      energy(i, j) = u(i, j) / density(i, j);
    });
    charge(ref::kCostFinalise);
  }

  std::int64_t working_set_bytes() const override {
    return static_cast<std::int64_t>(kNumFields) * pnx_ * pny_ * 8;
  }

  LocalExtent local_extent() const override {
    return LocalExtent{0, 0, nx_, ny_, nx_, ny_};
  }

  void read_field(FieldId f, tl::span<double> out) override {
    const std::size_t padded = static_cast<std::size_t>(pnx_) * pny_;
    std::vector<double> stage(padded);
    if constexpr (Storage::on_device) {
      simgpu::default_device().memcpy_d2h(stage.data(), field(f),
                                          padded * sizeof(double));
    } else {
      std::memcpy(stage.data(), field(f), padded * sizeof(double));
    }
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        out[static_cast<std::size_t>(j) * nx_ + i] =
            stage[static_cast<std::size_t>(j + halo_) * pnx_ + (i + halo_)];
      }
    }
  }

  /// Host copy of a field value at interior (i, j) — test hook.
  double value_at(FieldId f, int i, int j) const {
    const std::size_t idx =
        static_cast<std::size_t>(j + halo_) * pnx_ + (i + halo_);
    if constexpr (Storage::on_device) {
      double v = 0.0;
      simgpu::default_device().memcpy_d2h(
          &v, field(f) + idx, sizeof(double));
      return v;
    } else {
      return field(f)[idx];
    }
  }

private:
  double* field(FieldId f) const { return fields_[static_cast<std::size_t>(f)]; }

  View cv(FieldId f) const {
    return View{field(f) + static_cast<std::ptrdiff_t>(halo_) * pnx_ + halo_,
                pnx_};
  }

  /// RAJA::kernel with two For statements over [0, rows) x [0, cols), rows
  /// outer; the interior is kernel(ny_, nx_, ...).
  template <typename F>
  void kernel(long rows, long cols, F&& f) const {
    raja::kernel_2d<Policy>(pool_, raja::RangeSegment(0, rows),
                            raja::RangeSegment(0, cols), std::forward<F>(f));
  }

  void charge(const ref::KernelCost& c) const {
    const std::int64_t cells = static_cast<std::int64_t>(nx_) * ny_;
    machine::sink().add_traffic(
        cells * 8 * c.reads, cells * 8 * c.writes, cells * c.flops);
  }

  void charge_reduction() const {
    machine::Instrumentation& counts = machine::sink();
    counts.add_reduction();
    if constexpr (Storage::on_device) {
      // A device-policy reducer reads its result back over PCIe.
      counts.add_d2h(8);
    }
  }

  std::string id_;
  tlp::ThreadPool* pool_;
  int nx_ = 0, ny_ = 0, halo_ = 2, pnx_ = 0, pny_ = 0;
  double cell_volume_ = 0.0;
  std::array<double*, kNumFields> fields_{};
};

}  // namespace tea
