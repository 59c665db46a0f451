#include "core/backends/manual_acc.hpp"

#include <cmath>
#include "common/span.hpp"

#include "core/backends/ref_kernels.hpp"
#include "core/problem.hpp"

namespace tea {

namespace {
miniacc::KernelTraffic traffic(const PartitionGeom& g,
                               const ref::KernelCost& c) {
  const std::int64_t cells = g.cells();
  return miniacc::KernelTraffic{cells * 8 * c.reads, cells * 8 * c.writes,
                                cells * c.flops};
}
}  // namespace

ManualAccBackend::ManualAccBackend(miniacc::Target target,
                                   tlp::ThreadPool* pool)
    : target_(target), pool_(pool) {}

ManualAccBackend::~ManualAccBackend() = default;

CellView ManualAccBackend::rv(FieldId f) const {
  double* base = mapped_[static_cast<std::size_t>(f)];
  return CellView{base + static_cast<std::ptrdiff_t>(geom_.halo) *
                             geom_.padded_nx() +
                      geom_.halo,
                  geom_.padded_nx()};
}

void ManualAccBackend::setup(const tl::ProblemConfig& cfg) {
  geom_ = PartitionGeom{};
  geom_.gnx = geom_.nx = cfg.x_cells;
  geom_.gny = geom_.ny = cfg.y_cells;
  geom_.halo = cfg.halo_depth;
  store_ = std::make_unique<FieldStore>(geom_);

  const StateSampler sampler(cfg);
  cell_volume_ = sampler.cell_volume();
  CellView density = store_->view(FieldId::kDensity);
  CellView energy0 = store_->view(FieldId::kEnergy0);
  CellView energy1 = store_->view(FieldId::kEnergy1);
  for (int j = 0; j < geom_.ny; ++j) {
    for (int i = 0; i < geom_.nx; ++i) {
      density(i, j) = sampler.density_at(i, j);
      energy0(i, j) = sampler.energy_at(i, j);
      energy1(i, j) = energy0(i, j);
    }
  }

  // `#pragma acc data copy(density, energy0, energy1, u, ...)` for the whole
  // run: every field enters the region; solver scratch uses `create`.
  region_ = std::make_unique<miniacc::DataRegion>(
      target_, &simgpu::default_device(), pool_);
  const std::size_t padded = static_cast<std::size_t>(geom_.padded_cells());
  for (int f = 0; f < kNumFields; ++f) {
    const auto fid = static_cast<FieldId>(f);
    tl::span<double> span(store_->padded(fid), padded);
    const bool scratch = fid == FieldId::kP || fid == FieldId::kW ||
                         fid == FieldId::kZ || fid == FieldId::kSd ||
                         fid == FieldId::kRInner || fid == FieldId::kR;
    mapped_[static_cast<std::size_t>(f)] =
        scratch ? region_->create(span) : region_->copy(span);
  }

  update_halo({FieldId::kDensity, FieldId::kEnergy0, FieldId::kEnergy1},
              geom_.halo);
}

void ManualAccBackend::compute_coefficients(tl::CoefficientKind kind) {
  CellView density = rv(FieldId::kDensity);
  CellView kx = rv(FieldId::kKx);
  CellView ky = rv(FieldId::kKy);
  const int nx = geom_.nx;
  const int ny = geom_.ny;
  region_->parallel_loop_2d(
      "acc_coefficients", nx + 1, ny + 1,
      traffic(geom_, ref::kCostCoefficients), [=](int i, int j) {
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

void ManualAccBackend::init_u_u0() {
  CellView density = rv(FieldId::kDensity);
  CellView energy = rv(FieldId::kEnergy1);
  CellView u = rv(FieldId::kU);
  CellView u0 = rv(FieldId::kU0);
  region_->parallel_loop_2d("acc_init_u", geom_.nx, geom_.ny,
                            traffic(geom_, ref::kCostInitU), [=](int i, int j) {
                              const double v = energy(i, j) * density(i, j);
                              u(i, j) = v;
                              u0(i, j) = v;
                            });
}

void ManualAccBackend::apply_operator(FieldId in, FieldId out) {
  CellView vin = rv(in);
  CellView vout = rv(out);
  CellView kx = rv(FieldId::kKx);
  CellView ky = rv(FieldId::kKy);
  const double rx = rx_, ry = ry_;
  region_->parallel_loop_2d(
      "acc_smvp", geom_.nx, geom_.ny, traffic(geom_, ref::kCostOperator),
      [=](int i, int j) {
        const double diag = 1.0 + rx * (kx(i + 1, j) + kx(i, j)) +
                            ry * (ky(i, j + 1) + ky(i, j));
        vout(i, j) =
            diag * vin(i, j) -
            rx * (kx(i + 1, j) * vin(i + 1, j) + kx(i, j) * vin(i - 1, j)) -
            ry * (ky(i, j + 1) * vin(i, j + 1) + ky(i, j) * vin(i, j - 1));
      });
}

void ManualAccBackend::compute_residual() {
  CellView u = rv(FieldId::kU);
  CellView u0 = rv(FieldId::kU0);
  CellView r = rv(FieldId::kR);
  CellView kx = rv(FieldId::kKx);
  CellView ky = rv(FieldId::kKy);
  const double rx = rx_, ry = ry_;
  region_->parallel_loop_2d(
      "acc_residual", geom_.nx, geom_.ny, traffic(geom_, ref::kCostResidual),
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

void ManualAccBackend::copy_field(FieldId src, FieldId dst) {
  CellView s = rv(src);
  CellView d = rv(dst);
  region_->parallel_loop_2d("acc_copy", geom_.nx, geom_.ny,
                            traffic(geom_, ref::kCostCopy),
                            [=](int i, int j) { d(i, j) = s(i, j); });
}

void ManualAccBackend::scale_copy(FieldId dst, FieldId src, double sc) {
  CellView s = rv(src);
  CellView d = rv(dst);
  region_->parallel_loop_2d("acc_scale_copy", geom_.nx, geom_.ny,
                            traffic(geom_, ref::kCostScaleCopy),
                            [=](int i, int j) { d(i, j) = sc * s(i, j); });
}

double ManualAccBackend::dot(FieldId a, FieldId b) {
  CellView va = rv(a);
  CellView vb = rv(b);
  return region_->parallel_reduce_sum(
      "acc_dot", geom_.nx, geom_.ny,
      [=](int i, int j) { return va(i, j) * vb(i, j); });
}

void ManualAccBackend::axpy(FieldId y, double a, FieldId x) {
  CellView vy = rv(y);
  CellView vx = rv(x);
  region_->parallel_loop_2d("acc_axpy", geom_.nx, geom_.ny,
                            traffic(geom_, ref::kCostAxpy),
                            [=](int i, int j) { vy(i, j) += a * vx(i, j); });
}

void ManualAccBackend::zaxpy(FieldId p, double beta, FieldId z) {
  CellView vp = rv(p);
  CellView vz = rv(z);
  region_->parallel_loop_2d(
      "acc_zaxpy", geom_.nx, geom_.ny, traffic(geom_, ref::kCostZaxpy),
      [=](int i, int j) { vp(i, j) = vz(i, j) + beta * vp(i, j); });
}

void ManualAccBackend::precondition(FieldId dst, FieldId src) {
  CellView d = rv(dst);
  CellView s = rv(src);
  CellView kx = rv(FieldId::kKx);
  CellView ky = rv(FieldId::kKy);
  const double rx = rx_, ry = ry_;
  region_->parallel_loop_2d("acc_precondition", geom_.nx, geom_.ny,
                            traffic(geom_, ref::kCostOperator),
                            [=](int i, int j) {
                              const double diag =
                                  1.0 + rx * (kx(i + 1, j) + kx(i, j)) +
                                  ry * (ky(i, j + 1) + ky(i, j));
                              d(i, j) = s(i, j) / diag;
                            });
}

void ManualAccBackend::smooth_update(FieldId acc, FieldId res, FieldId w,
                                     FieldId sd, double alpha, double beta) {
  CellView vacc = rv(acc);
  CellView vres = rv(res);
  CellView vw = rv(w);
  CellView vsd = rv(sd);
  region_->parallel_loop_2d("acc_cheby_iterate", geom_.nx, geom_.ny,
                            traffic(geom_, ref::kCostSmooth),
                            [=](int i, int j) {
                              vacc(i, j) += vsd(i, j);
                              vres(i, j) -= vw(i, j);
                              vsd(i, j) = alpha * vsd(i, j) + beta * vres(i, j);
                            });
}

double ManualAccBackend::jacobi_iterate() {
  // Sweep u -> w with a reduction clause, then commit w back to u.
  CellView uold = rv(FieldId::kU);
  CellView u0 = rv(FieldId::kU0);
  CellView w = rv(FieldId::kW);
  CellView kx = rv(FieldId::kKx);
  CellView ky = rv(FieldId::kKy);
  const double rx = rx_, ry = ry_;
  const double err = region_->parallel_reduce_sum(
      "acc_jacobi", geom_.nx, geom_.ny, [=](int i, int j) {
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

FieldSummary ManualAccBackend::field_summary() {
  CellView density = rv(FieldId::kDensity);
  CellView energy = rv(FieldId::kEnergy0);
  CellView u = rv(FieldId::kU);
  const int nx = geom_.nx;
  const int ny = geom_.ny;
  const double vol_cell = cell_volume_;
  FieldSummary s;
  s.vol = vol_cell * static_cast<double>(static_cast<long>(nx) * ny);
  s.mass = region_->parallel_reduce_sum(
      "acc_summary_mass", nx, ny,
      [=](int i, int j) { return density(i, j) * vol_cell; });
  s.ie = region_->parallel_reduce_sum(
      "acc_summary_ie", nx, ny,
      [=](int i, int j) { return density(i, j) * energy(i, j) * vol_cell; });
  s.temp = region_->parallel_reduce_sum(
      "acc_summary_temp", nx, ny,
      [=](int i, int j) { return u(i, j) * vol_cell; });
  return s;
}

void ManualAccBackend::update_halo(std::initializer_list<FieldId> fields,
                                   int depth) {
  const int nx = geom_.nx;
  const int ny = geom_.ny;
  for (const FieldId fid : fields) {
    CellView f = rv(fid);
    const std::int64_t edge_bytes =
        static_cast<std::int64_t>(depth) * (nx + ny) * 8;
    const miniacc::KernelTraffic t{edge_bytes, edge_bytes, 0};
    region_->parallel_loop_2d("acc_halo_x", depth, ny, t, [=](int k, int j) {
      f(-1 - k, j) = f(k, j);
      f(nx + k, j) = f(nx - 1 - k, j);
    });
    region_->parallel_loop_2d("acc_halo_y", nx + 2 * depth, depth, t,
                              [=](int ii, int k) {
                                const int i = ii - depth;
                                f(i, -1 - k) = f(i, k);
                                f(i, ny + k) = f(i, ny - 1 - k);
                              });
  }
}

void ManualAccBackend::finalise() {
  CellView u = rv(FieldId::kU);
  CellView density = rv(FieldId::kDensity);
  CellView energy = rv(FieldId::kEnergy1);
  region_->parallel_loop_2d(
      "acc_finalise", geom_.nx, geom_.ny, traffic(geom_, ref::kCostFinalise),
      [=](int i, int j) { energy(i, j) = u(i, j) / density(i, j); });
}

std::int64_t ManualAccBackend::working_set_bytes() const {
  return static_cast<std::int64_t>(kNumFields) * geom_.padded_cells() * 8;
}

void ManualAccBackend::read_field(FieldId f, tl::span<double> out) {
  sync_host(f);
  ConstCellView v = store_->cview(f);
  for (int j = 0; j < geom_.ny; ++j) {
    for (int i = 0; i < geom_.nx; ++i) {
      out[static_cast<std::size_t>(j) * geom_.nx + i] = v(i, j);
    }
  }
}

void ManualAccBackend::sync_host(FieldId f) {
  const std::size_t padded = static_cast<std::size_t>(geom_.padded_cells());
  region_->update_host(tl::span<double>(store_->padded(f), padded));
}

}  // namespace tea
