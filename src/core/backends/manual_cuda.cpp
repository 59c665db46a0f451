#include "core/backends/manual_cuda.hpp"

#include <cmath>
#include <vector>

#include "core/backends/ref_kernels.hpp"
#include "core/problem.hpp"

namespace tea {

namespace {
simgpu::KernelTraffic traffic(const PartitionGeom& g,
                              const ref::KernelCost& c) {
  const std::int64_t cells = g.cells();
  return simgpu::KernelTraffic{cells * 8 * c.reads, cells * 8 * c.writes,
                               cells * c.flops};
}
}  // namespace

ManualCudaBackend::ManualCudaBackend(simgpu::Device* device)
    : device_(device != nullptr ? *device : simgpu::default_device()) {}

CellView ManualCudaBackend::dv(FieldId f) const {
  const auto& buf = fields_[static_cast<std::size_t>(f)];
  double* origin = buf->data() +
                   static_cast<std::ptrdiff_t>(geom_.halo) * geom_.padded_nx() +
                   geom_.halo;
  return CellView{origin, geom_.padded_nx()};
}

void ManualCudaBackend::setup(const tl::ProblemConfig& cfg) {
  geom_ = PartitionGeom{};
  geom_.gnx = geom_.nx = cfg.x_cells;
  geom_.gny = geom_.ny = cfg.y_cells;
  geom_.halo = cfg.halo_depth;

  const std::size_t padded = static_cast<std::size_t>(geom_.padded_cells());
  for (auto& f : fields_) f.emplace(device_, padded);

  // Paint initial conditions on a host staging buffer, then cudaMemcpy up.
  const StateSampler sampler(cfg);
  cell_volume_ = sampler.cell_volume();
  std::vector<double> stage(padded, 0.0);
  const int pnx = geom_.padded_nx();
  const auto stage_at = [&](int i, int j) -> double& {
    return stage[static_cast<std::size_t>(j + geom_.halo) * pnx +
                 (i + geom_.halo)];
  };

  for (int j = 0; j < geom_.ny; ++j) {
    for (int i = 0; i < geom_.nx; ++i) stage_at(i, j) = sampler.density_at(i, j);
  }
  fields_[static_cast<std::size_t>(FieldId::kDensity)]->upload(stage);
  for (int j = 0; j < geom_.ny; ++j) {
    for (int i = 0; i < geom_.nx; ++i) stage_at(i, j) = sampler.energy_at(i, j);
  }
  fields_[static_cast<std::size_t>(FieldId::kEnergy0)]->upload(stage);
  fields_[static_cast<std::size_t>(FieldId::kEnergy1)]->upload(stage);

  update_halo({FieldId::kDensity, FieldId::kEnergy0, FieldId::kEnergy1},
              geom_.halo);
}

void ManualCudaBackend::compute_coefficients(tl::CoefficientKind kind) {
  CellView density = dv(FieldId::kDensity);
  CellView kx = dv(FieldId::kKx);
  CellView ky = dv(FieldId::kKy);
  const int nx = geom_.nx;
  const int ny = geom_.ny;
  device_.launch_2d(
      "tea_coefficients", nx + 1, ny + 1, traffic(geom_, ref::kCostCoefficients),
      [=](int i, int j) {
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
}

void ManualCudaBackend::init_u_u0() {
  CellView density = dv(FieldId::kDensity);
  CellView energy = dv(FieldId::kEnergy1);
  CellView u = dv(FieldId::kU);
  CellView u0 = dv(FieldId::kU0);
  device_.launch_2d("tea_init_u", geom_.nx, geom_.ny,
                    traffic(geom_, ref::kCostInitU), [=](int i, int j) {
                      const double v = energy(i, j) * density(i, j);
                      u(i, j) = v;
                      u0(i, j) = v;
                    });
}

void ManualCudaBackend::apply_operator(FieldId in, FieldId out) {
  CellView vin = dv(in);
  CellView vout = dv(out);
  CellView kx = dv(FieldId::kKx);
  CellView ky = dv(FieldId::kKy);
  const double rx = rx_, ry = ry_;
  device_.launch_2d(
      "tea_smvp", geom_.nx, geom_.ny, traffic(geom_, ref::kCostOperator),
      [=](int i, int j) {
        const double diag = 1.0 + rx * (kx(i + 1, j) + kx(i, j)) +
                            ry * (ky(i, j + 1) + ky(i, j));
        vout(i, j) =
            diag * vin(i, j) -
            rx * (kx(i + 1, j) * vin(i + 1, j) + kx(i, j) * vin(i - 1, j)) -
            ry * (ky(i, j + 1) * vin(i, j + 1) + ky(i, j) * vin(i, j - 1));
      });
}

void ManualCudaBackend::compute_residual() {
  CellView u = dv(FieldId::kU);
  CellView u0 = dv(FieldId::kU0);
  CellView r = dv(FieldId::kR);
  CellView kx = dv(FieldId::kKx);
  CellView ky = dv(FieldId::kKy);
  const double rx = rx_, ry = ry_;
  device_.launch_2d(
      "tea_residual", geom_.nx, geom_.ny, traffic(geom_, ref::kCostResidual),
      [=](int i, int j) {
        const double diag = 1.0 + rx * (kx(i + 1, j) + kx(i, j)) +
                            ry * (ky(i, j + 1) + ky(i, j));
        const double au =
            diag * u(i, j) -
            rx * (kx(i + 1, j) * u(i + 1, j) + kx(i, j) * u(i - 1, j)) -
            ry * (ky(i, j + 1) * u(i, j + 1) + ky(i, j) * u(i, j - 1));
        r(i, j) = u0(i, j) - au;
      });
}

void ManualCudaBackend::copy_field(FieldId src, FieldId dst) {
  CellView s = dv(src);
  CellView d = dv(dst);
  device_.launch_2d("tea_copy", geom_.nx, geom_.ny,
                    traffic(geom_, ref::kCostCopy),
                    [=](int i, int j) { d(i, j) = s(i, j); });
}

void ManualCudaBackend::scale_copy(FieldId dst, FieldId src, double sc) {
  CellView s = dv(src);
  CellView d = dv(dst);
  device_.launch_2d("tea_scale_copy", geom_.nx, geom_.ny,
                    traffic(geom_, ref::kCostScaleCopy),
                    [=](int i, int j) { d(i, j) = sc * s(i, j); });
}

double ManualCudaBackend::dot(FieldId a, FieldId b) {
  CellView va = dv(a);
  CellView vb = dv(b);
  const int nx = geom_.nx;
  const long n = static_cast<long>(nx) * geom_.ny;
  return device_.reduce_sum("tea_dot", n, [=](long idx) {
    const int i = static_cast<int>(idx % nx);
    const int j = static_cast<int>(idx / nx);
    return va(i, j) * vb(i, j);
  });
}

void ManualCudaBackend::axpy(FieldId y, double a, FieldId x) {
  CellView vy = dv(y);
  CellView vx = dv(x);
  device_.launch_2d("tea_axpy", geom_.nx, geom_.ny,
                    traffic(geom_, ref::kCostAxpy),
                    [=](int i, int j) { vy(i, j) += a * vx(i, j); });
}

void ManualCudaBackend::zaxpy(FieldId p, double beta, FieldId z) {
  CellView vp = dv(p);
  CellView vz = dv(z);
  device_.launch_2d("tea_zaxpy", geom_.nx, geom_.ny,
                    traffic(geom_, ref::kCostZaxpy),
                    [=](int i, int j) { vp(i, j) = vz(i, j) + beta * vp(i, j); });
}

void ManualCudaBackend::precondition(FieldId dst, FieldId src) {
  CellView d = dv(dst);
  CellView s = dv(src);
  CellView kx = dv(FieldId::kKx);
  CellView ky = dv(FieldId::kKy);
  const double rx = rx_, ry = ry_;
  device_.launch_2d("tea_precondition", geom_.nx, geom_.ny,
                    traffic(geom_, ref::kCostOperator), [=](int i, int j) {
                      const double diag = 1.0 + rx * (kx(i + 1, j) + kx(i, j)) +
                                          ry * (ky(i, j + 1) + ky(i, j));
                      d(i, j) = s(i, j) / diag;
                    });
}

void ManualCudaBackend::smooth_update(FieldId acc, FieldId res, FieldId w,
                                      FieldId sd, double alpha, double beta) {
  CellView vacc = dv(acc);
  CellView vres = dv(res);
  CellView vw = dv(w);
  CellView vsd = dv(sd);
  device_.launch_2d("tea_cheby_iterate", geom_.nx, geom_.ny,
                    traffic(geom_, ref::kCostSmooth), [=](int i, int j) {
                      vacc(i, j) += vsd(i, j);
                      vres(i, j) -= vw(i, j);
                      vsd(i, j) = alpha * vsd(i, j) + beta * vres(i, j);
                    });
}

double ManualCudaBackend::jacobi_iterate() {
  // Sweep u -> w as a fused write+reduce kernel (a real CUDA port fuses
  // exactly this way), then commit w back to u.
  CellView uold = dv(FieldId::kU);
  CellView u0 = dv(FieldId::kU0);
  CellView w = dv(FieldId::kW);
  CellView kx = dv(FieldId::kKx);
  CellView ky = dv(FieldId::kKy);
  const double rx = rx_, ry = ry_;
  const int nx = geom_.nx;
  const long n = static_cast<long>(nx) * geom_.ny;
  const double err = device_.reduce_sum("tea_jacobi", n, [=](long idx) {
    const int i = static_cast<int>(idx % nx);
    const int j = static_cast<int>(idx / nx);
    const double diag = 1.0 + rx * (kx(i + 1, j) + kx(i, j)) +
                        ry * (ky(i, j + 1) + ky(i, j));
    const double off =
        rx * (kx(i + 1, j) * uold(i + 1, j) + kx(i, j) * uold(i - 1, j)) +
        ry * (ky(i, j + 1) * uold(i, j + 1) + ky(i, j) * uold(i, j - 1));
    const double unew = (u0(i, j) + off) / diag;
    w(i, j) = unew;
    return std::fabs(unew - uold(i, j));
  });
  copy_field(FieldId::kW, FieldId::kU);
  return err;
}

FieldSummary ManualCudaBackend::field_summary() {
  CellView density = dv(FieldId::kDensity);
  CellView energy = dv(FieldId::kEnergy0);
  CellView u = dv(FieldId::kU);
  const int nx = geom_.nx;
  const long n = static_cast<long>(nx) * geom_.ny;
  const double vol_cell = cell_volume_;
  FieldSummary s;
  s.vol = vol_cell * static_cast<double>(n);
  s.mass = device_.reduce_sum("tea_summary_mass", n, [=](long idx) {
    return density(static_cast<int>(idx % nx), static_cast<int>(idx / nx)) *
           vol_cell;
  });
  s.ie = device_.reduce_sum("tea_summary_ie", n, [=](long idx) {
    const int i = static_cast<int>(idx % nx);
    const int j = static_cast<int>(idx / nx);
    return density(i, j) * energy(i, j) * vol_cell;
  });
  s.temp = device_.reduce_sum("tea_summary_temp", n, [=](long idx) {
    return u(static_cast<int>(idx % nx), static_cast<int>(idx / nx)) *
           vol_cell;
  });
  return s;
}

void ManualCudaBackend::update_halo(std::initializer_list<FieldId> fields,
                                    int depth) {
  const int nx = geom_.nx;
  const int ny = geom_.ny;
  for (const FieldId fid : fields) {
    CellView f = dv(fid);
    const std::int64_t edge_bytes =
        static_cast<std::int64_t>(depth) * (nx + ny) * 8;
    const simgpu::KernelTraffic t{edge_bytes, edge_bytes, 0};
    device_.launch_2d("tea_halo_x", depth, ny, t, [=](int k, int j) {
      f(-1 - k, j) = f(k, j);
      f(nx + k, j) = f(nx - 1 - k, j);
    });
    device_.launch_2d("tea_halo_y", nx + 2 * depth, depth, t,
                      [=](int ii, int k) {
                        const int i = ii - depth;
                        f(i, -1 - k) = f(i, k);
                        f(i, ny + k) = f(i, ny - 1 - k);
                      });
  }
}

void ManualCudaBackend::finalise() {
  CellView u = dv(FieldId::kU);
  CellView density = dv(FieldId::kDensity);
  CellView energy = dv(FieldId::kEnergy1);
  device_.launch_2d("tea_finalise", geom_.nx, geom_.ny,
                    traffic(geom_, ref::kCostFinalise),
                    [=](int i, int j) { energy(i, j) = u(i, j) / density(i, j); });
}

std::int64_t ManualCudaBackend::working_set_bytes() const {
  return static_cast<std::int64_t>(kNumFields) * geom_.padded_cells() * 8;
}

void ManualCudaBackend::read_field(FieldId f, tl::span<double> out) {
  const std::size_t padded = static_cast<std::size_t>(geom_.padded_cells());
  std::vector<double> stage(padded);
  fields_[static_cast<std::size_t>(f)]->download(stage);
  const int pnx = geom_.padded_nx();
  for (int j = 0; j < geom_.ny; ++j) {
    for (int i = 0; i < geom_.nx; ++i) {
      out[static_cast<std::size_t>(j) * geom_.nx + i] =
          stage[static_cast<std::size_t>(j + geom_.halo) * pnx +
                (i + geom_.halo)];
    }
  }
}

}  // namespace tea
