// kokkos_backend.hpp — TeaLeaf through minikokkos, following the structure of
// Martineau's Kokkos port: fields are rank-1 Views in the execution space's
// memory space, interior kernels and reductions are parallel_for /
// parallel_reduce over a 2-D MDRangePolicy2 (j outer, i inner) that index the
// padded field through one captured (i, j) mapping, and initial conditions
// are painted on host mirrors then deep_copied in.
//
//   kokkos-omp  : KokkosBackend<kk::Threads>  (the pool make_backend is given)
//   kokkos-cuda : KokkosBackend<kk::SimGPU>   (simulated GPU)
#pragma once

#include <array>
#include <cmath>
#include <string>

#include "core/backend.hpp"
#include "core/backends/ref_kernels.hpp"
#include "core/problem.hpp"
#include "machine/instrumentation.hpp"
#include "minikokkos/minikokkos.hpp"

namespace tea {

template <typename Exec>
class KokkosBackend final : public Backend {
  using Space = typename kk::SpaceOf<Exec>::type;
  using FieldView = kk::View1D<double, Space>;
  using HostView = kk::View1D<double, kk::HostSpace>;

public:
  /// Launches run on `space` (for Threads, the pool it names).
  explicit KokkosBackend(std::string id, Exec space = {})
      : id_(std::move(id)), space_(space) {}

  std::string id() const override { return id_; }

  void setup(const tl::ProblemConfig& cfg) override {
    nx_ = cfg.x_cells;
    ny_ = cfg.y_cells;
    halo_ = cfg.halo_depth;
    pnx_ = nx_ + 2 * halo_;
    pny_ = ny_ + 2 * halo_;
    const std::size_t padded = static_cast<std::size_t>(pnx_) * pny_;
    for (int f = 0; f < kNumFields; ++f) {
      fields_[static_cast<std::size_t>(f)] = FieldView(
          std::string(field_name(static_cast<FieldId>(f))), padded);
    }

    const StateSampler sampler(cfg);
    cell_volume_ = sampler.cell_volume();
    HostView h_density("density_init", padded);
    HostView h_energy("energy_init", padded);
    const int halo = halo_;
    const int pnx = pnx_;
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(j + halo) * pnx + (i + halo);
        h_density(idx) = sampler.density_at(i, j);
        h_energy(idx) = sampler.energy_at(i, j);
      }
    }
    kk::deep_copy(view(FieldId::kDensity), h_density);
    kk::deep_copy(view(FieldId::kEnergy0), h_energy);
    kk::deep_copy(view(FieldId::kEnergy1), h_energy);

    update_halo({FieldId::kDensity, FieldId::kEnergy0, FieldId::kEnergy1},
                halo_);
  }

  void compute_coefficients(tl::CoefficientKind kind) override {
    auto density = view(FieldId::kDensity);
    auto kx = view(FieldId::kKx);
    auto ky = view(FieldId::kKy);
    const auto at = index_fn();
    const int nx = nx_;
    const int ny = ny_;
    kk::parallel_for(
        "tea_coefficients",
        kk::MDRangePolicy2<Exec>(space_, 0, ny + 1, 0, nx + 1),
        [=](long j, long i) {
          const double wc = ref::conduction(density(at(i, j)), kind);
          if (j < ny) {
            const double wl = ref::conduction(density(at(i - 1, j)), kind);
            kx(at(i, j)) = (wl + wc) / (2.0 * wl * wc);
          }
          if (i < nx) {
            const double wd = ref::conduction(density(at(i, j - 1)), kind);
            ky(at(i, j)) = (wd + wc) / (2.0 * wd * wc);
          }
        });
    charge(ref::kCostCoefficients);
  }

  void init_u_u0() override {
    auto density = view(FieldId::kDensity);
    auto energy = view(FieldId::kEnergy1);
    auto u = view(FieldId::kU);
    auto u0 = view(FieldId::kU0);
    const auto at = index_fn();
    kk::parallel_for("tea_init_u", interior_policy(), [=](long j, long i) {
      const double v = energy(at(i, j)) * density(at(i, j));
      u(at(i, j)) = v;
      u0(at(i, j)) = v;
    });
    charge(ref::kCostInitU);
  }

  void apply_operator(FieldId in, FieldId out) override {
    auto vin = view(in);
    auto vout = view(out);
    auto kx = view(FieldId::kKx);
    auto ky = view(FieldId::kKy);
    const auto at = index_fn();
    const double rx = rx_, ry = ry_;
    kk::parallel_for("tea_smvp", interior_policy(), [=](long j, long i) {
      const double diag = 1.0 + rx * (kx(at(i + 1, j)) + kx(at(i, j))) +
                          ry * (ky(at(i, j + 1)) + ky(at(i, j)));
      vout(at(i, j)) =
          diag * vin(at(i, j)) -
          rx * (kx(at(i + 1, j)) * vin(at(i + 1, j)) +
                kx(at(i, j)) * vin(at(i - 1, j))) -
          ry * (ky(at(i, j + 1)) * vin(at(i, j + 1)) +
                ky(at(i, j)) * vin(at(i, j - 1)));
    });
    charge(ref::kCostOperator);
  }

  void compute_residual() override {
    auto u = view(FieldId::kU);
    auto u0 = view(FieldId::kU0);
    auto r = view(FieldId::kR);
    auto kx = view(FieldId::kKx);
    auto ky = view(FieldId::kKy);
    const auto at = index_fn();
    const double rx = rx_, ry = ry_;
    kk::parallel_for("tea_residual", interior_policy(), [=](long j, long i) {
      const double diag = 1.0 + rx * (kx(at(i + 1, j)) + kx(at(i, j))) +
                          ry * (ky(at(i, j + 1)) + ky(at(i, j)));
      const double au = diag * u(at(i, j)) -
                        rx * (kx(at(i + 1, j)) * u(at(i + 1, j)) +
                              kx(at(i, j)) * u(at(i - 1, j))) -
                        ry * (ky(at(i, j + 1)) * u(at(i, j + 1)) +
                              ky(at(i, j)) * u(at(i, j - 1)));
      r(at(i, j)) = u0(at(i, j)) - au;
    });
    charge(ref::kCostResidual);
  }

  void copy_field(FieldId src, FieldId dst) override {
    auto s = view(src);
    auto d = view(dst);
    const auto at = index_fn();
    kk::parallel_for("tea_copy", interior_policy(),
                     [=](long j, long i) { d(at(i, j)) = s(at(i, j)); });
    charge(ref::kCostCopy);
  }

  void scale_copy(FieldId dst, FieldId src, double sc) override {
    auto s = view(src);
    auto d = view(dst);
    const auto at = index_fn();
    kk::parallel_for("tea_scale_copy", interior_policy(),
                     [=](long j, long i) { d(at(i, j)) = sc * s(at(i, j)); });
    charge(ref::kCostScaleCopy);
  }

  double dot(FieldId a, FieldId b) override {
    auto va = view(a);
    auto vb = view(b);
    const auto at = index_fn();
    double result = 0.0;
    kk::parallel_reduce(
        "tea_dot", interior_policy(),
        [=](long j, long i, double& sum) {
          sum += va(at(i, j)) * vb(at(i, j));
        },
        result);
    charge(ref::kCostDot);
    return result;
  }

  void axpy(FieldId y, double a, FieldId x) override {
    auto vy = view(y);
    auto vx = view(x);
    const auto at = index_fn();
    kk::parallel_for("tea_axpy", interior_policy(),
                     [=](long j, long i) { vy(at(i, j)) += a * vx(at(i, j)); });
    charge(ref::kCostAxpy);
  }

  void zaxpy(FieldId p, double beta, FieldId z) override {
    auto vp = view(p);
    auto vz = view(z);
    const auto at = index_fn();
    kk::parallel_for("tea_zaxpy", interior_policy(), [=](long j, long i) {
      vp(at(i, j)) = vz(at(i, j)) + beta * vp(at(i, j));
    });
    charge(ref::kCostZaxpy);
  }

  void precondition(FieldId dst, FieldId src) override {
    auto d = view(dst);
    auto s = view(src);
    auto kx = view(FieldId::kKx);
    auto ky = view(FieldId::kKy);
    const auto at = index_fn();
    const double rx = rx_, ry = ry_;
    kk::parallel_for("tea_precondition", interior_policy(),
                     [=](long j, long i) {
                       const double diag =
                           1.0 + rx * (kx(at(i + 1, j)) + kx(at(i, j))) +
                           ry * (ky(at(i, j + 1)) + ky(at(i, j)));
                       d(at(i, j)) = s(at(i, j)) / diag;
                     });
    charge(ref::kCostOperator);
  }

  void smooth_update(FieldId acc, FieldId res, FieldId w, FieldId sd,
                     double alpha, double beta) override {
    auto vacc = view(acc);
    auto vres = view(res);
    auto vw = view(w);
    auto vsd = view(sd);
    const auto at = index_fn();
    kk::parallel_for("tea_cheby_iterate", interior_policy(),
                     [=](long j, long i) {
                       vacc(at(i, j)) += vsd(at(i, j));
                       vres(at(i, j)) -= vw(at(i, j));
                       vsd(at(i, j)) =
                           alpha * vsd(at(i, j)) + beta * vres(at(i, j));
                     });
    charge(ref::kCostSmooth);
  }

  double jacobi_iterate() override {
    // Sweep u -> w (halo of u freshly updated by the solver), then commit.
    auto uold = view(FieldId::kU);
    auto u0 = view(FieldId::kU0);
    auto w = view(FieldId::kW);
    auto kx = view(FieldId::kKx);
    auto ky = view(FieldId::kKy);
    const auto at = index_fn();
    const double rx = rx_, ry = ry_;
    double err = 0.0;
    kk::parallel_reduce(
        "tea_jacobi", interior_policy(),
        [=](long j, long i, double& e) {
          const double diag = 1.0 + rx * (kx(at(i + 1, j)) + kx(at(i, j))) +
                              ry * (ky(at(i, j + 1)) + ky(at(i, j)));
          const double off = rx * (kx(at(i + 1, j)) * uold(at(i + 1, j)) +
                                   kx(at(i, j)) * uold(at(i - 1, j))) +
                             ry * (ky(at(i, j + 1)) * uold(at(i, j + 1)) +
                                   ky(at(i, j)) * uold(at(i, j - 1)));
          const double unew = (u0(at(i, j)) + off) / diag;
          w(at(i, j)) = unew;
          e += std::fabs(unew - uold(at(i, j)));
        },
        err);
    copy_field(FieldId::kW, FieldId::kU);
    charge(ref::kCostJacobi);
    return err;
  }

  FieldSummary field_summary() override {
    auto density = view(FieldId::kDensity);
    auto energy = view(FieldId::kEnergy0);
    auto u = view(FieldId::kU);
    const auto at = index_fn();
    const double vol_cell = cell_volume_;
    FieldSummary s;
    s.vol = vol_cell * static_cast<double>(static_cast<long>(nx_) * ny_);
    kk::parallel_reduce(
        "tea_summary_mass", interior_policy(),
        [=](long j, long i, double& acc) {
          acc += density(at(i, j)) * vol_cell;
        },
        s.mass);
    kk::parallel_reduce(
        "tea_summary_ie", interior_policy(),
        [=](long j, long i, double& acc) {
          acc += density(at(i, j)) * energy(at(i, j)) * vol_cell;
        },
        s.ie);
    kk::parallel_reduce(
        "tea_summary_temp", interior_policy(),
        [=](long j, long i, double& acc) {
          acc += u(at(i, j)) * vol_cell;
        },
        s.temp);
    charge(ref::kCostSummary);
    return s;
  }

  void update_halo(std::initializer_list<FieldId> fields, int depth) override {
    const auto at = index_fn();
    const int nx = nx_;
    const int ny = ny_;
    for (const FieldId fid : fields) {
      auto f = view(fid);
      kk::parallel_for("tea_halo_x",
                       kk::MDRangePolicy2<Exec>(space_, 0, ny, 0, depth),
                       [=](long j, long k) {
                         f(at(-1 - k, j)) = f(at(k, j));
                         f(at(nx + k, j)) = f(at(nx - 1 - k, j));
                       });
      kk::parallel_for(
          "tea_halo_y",
          kk::MDRangePolicy2<Exec>(space_, 0, depth, 0, nx + 2 * depth),
          [=](long k, long ii) {
            const long i = ii - depth;
            f(at(i, -1 - k)) = f(at(i, k));
            f(at(i, ny + k)) = f(at(i, ny - 1 - k));
          });
    }
    machine::sink().add_halo_exchange(static_cast<std::int64_t>(fields.size()));
  }

  void finalise() override {
    auto u = view(FieldId::kU);
    auto density = view(FieldId::kDensity);
    auto energy = view(FieldId::kEnergy1);
    const auto at = index_fn();
    kk::parallel_for("tea_finalise", interior_policy(), [=](long j, long i) {
      energy(at(i, j)) = u(at(i, j)) / density(at(i, j));
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
    auto host = kk::create_mirror_view(fields_[static_cast<std::size_t>(f)]);
    kk::deep_copy(host, fields_[static_cast<std::size_t>(f)]);
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        out[static_cast<std::size_t>(j) * nx_ + i] =
            host(static_cast<std::size_t>(j + halo_) * pnx_ + (i + halo_));
      }
    }
  }

  /// Host copy of a field value at interior (i, j) — test hook.
  double value_at(FieldId f, int i, int j) const {
    auto host = kk::create_mirror_view(fields_[static_cast<std::size_t>(f)]);
    kk::deep_copy(host, fields_[static_cast<std::size_t>(f)]);
    return host(static_cast<std::size_t>(j + halo_) * pnx_ + (i + halo_));
  }

private:
  FieldView view(FieldId f) const { return fields_[static_cast<std::size_t>(f)]; }

  /// 2D -> padded 1D index mapping captured into kernels.
  auto index_fn() const {
    const int pnx = pnx_;
    const int halo = halo_;
    return [pnx, halo](long i, long j) {
      return static_cast<std::size_t>(j + halo) * pnx + (i + halo);
    };
  }

  kk::MDRangePolicy2<Exec> interior_policy() const {
    return kk::MDRangePolicy2<Exec>(space_, 0, ny_, 0, nx_);
  }

  void charge(const ref::KernelCost& c) const {
    const std::int64_t cells = static_cast<std::int64_t>(nx_) * ny_;
    machine::sink().add_traffic(
        cells * 8 * c.reads, cells * 8 * c.writes, cells * c.flops);
  }

  std::string id_;
  Exec space_;
  int nx_ = 0, ny_ = 0, halo_ = 2, pnx_ = 0, pny_ = 0;
  double cell_volume_ = 0.0;
  std::array<FieldView, kNumFields> fields_;
};

}  // namespace tea
