#include "core/backends/ops_backend.hpp"

#include <cmath>

#include "core/backends/ref_kernels.hpp"
#include "core/problem.hpp"

namespace tea {

using ops::Acc;
using ops::AccessMode;
using ops::arg_dat;
using ops::arg_gbl;
using ops::Stencil;

OpsBackend::OpsBackend(std::string id, ops::ContextOptions options)
    : id_(std::move(id)), ctx_(std::make_unique<ops::Context>(options)) {}

ops::Range OpsBackend::interior() const {
  return ops::Range{0, gnx_, 0, gny_};
}

void OpsBackend::setup(const tl::ProblemConfig& cfg) {
  gnx_ = cfg.x_cells;
  gny_ = cfg.y_cells;
  block_ = &ctx_->decl_block("tea", gnx_, gny_);
  for (int f = 0; f < kNumFields; ++f) {
    dats_[static_cast<std::size_t>(f)] = &ctx_->decl_dat(
        *block_, std::string(field_name(static_cast<FieldId>(f))),
        cfg.halo_depth);
  }

  const StateSampler sampler(cfg);
  cell_volume_ = sampler.cell_volume();

  // Initial painting happens directly on the rank's local host storage (OPS
  // apps fill dats through an init loop; the sampler needs global indices,
  // which the dat's partition supplies).
  ops::Dat& density = dat(FieldId::kDensity);
  ops::Dat& energy0 = dat(FieldId::kEnergy0);
  ops::Dat& energy1 = dat(FieldId::kEnergy1);
  for (int j = 0; j < density.local_ny(); ++j) {
    for (int i = 0; i < density.local_nx(); ++i) {
      const int gi = density.local_x0() + i;
      const int gj = density.local_y0() + j;
      density.at(i, j) = sampler.density_at(gi, gj);
      energy0.at(i, j) = sampler.energy_at(gi, gj);
      energy1.at(i, j) = energy0.at(i, j);
    }
  }
  density.set_halo_dirty(true);
  energy0.set_halo_dirty(true);
  energy1.set_halo_dirty(true);
  // Device contexts must observe the host-painted data.
  density.set_device_stale(true);
  energy0.set_device_stale(true);
  energy1.set_device_stale(true);

  update_halo({FieldId::kDensity, FieldId::kEnergy0, FieldId::kEnergy1},
              cfg.halo_depth);
}

void OpsBackend::compute_coefficients(tl::CoefficientKind kind) {
  // Faces are computed over the interior only; each rank's +x/+y face halo
  // (and the physical boundary faces) is completed by the dirty-bit halo
  // exchange the first stencil read of kx/ky triggers.  Reflection-filled
  // physical faces are mathematically inert: the reflected solution halo
  // zeroes the boundary flux term for any face value.
  ops::par_loop(
      *ctx_, "tea_coefficients", interior(), 6,
      [kind](Acc density, Acc kx, Acc ky) {
        const double wc = ref::conduction(density(0, 0), kind);
        const double wl = ref::conduction(density(-1, 0), kind);
        kx(0, 0) = (wl + wc) / (2.0 * wl * wc);
        const double wd = ref::conduction(density(0, -1), kind);
        ky(0, 0) = (wd + wc) / (2.0 * wd * wc);
      },
      arg_dat(dat(FieldId::kDensity), AccessMode::kRead,
              Stencil({{0, 0}, {-1, 0}, {0, -1}})),
      arg_dat(dat(FieldId::kKx), AccessMode::kWrite),
      arg_dat(dat(FieldId::kKy), AccessMode::kWrite));
}

void OpsBackend::init_u_u0() {
  ops::par_loop(
      *ctx_, "tea_init_u", interior(), 1,
      [](Acc density, Acc energy, Acc u, Acc u0) {
        const double v = energy(0, 0) * density(0, 0);
        u(0, 0) = v;
        u0(0, 0) = v;
      },
      arg_dat(dat(FieldId::kDensity), AccessMode::kRead),
      arg_dat(dat(FieldId::kEnergy1), AccessMode::kRead),
      arg_dat(dat(FieldId::kU), AccessMode::kWrite),
      arg_dat(dat(FieldId::kU0), AccessMode::kWrite));
}

void OpsBackend::apply_operator(FieldId in, FieldId out) {
  const double rx = rx_, ry = ry_;
  ops::par_loop(
      *ctx_, "tea_smvp", interior(), 13,
      [rx, ry](Acc vin, Acc kx, Acc ky, Acc vout) {
        const double diag =
            1.0 + rx * (kx(1, 0) + kx(0, 0)) + ry * (ky(0, 1) + ky(0, 0));
        vout(0, 0) = diag * vin(0, 0) -
                     rx * (kx(1, 0) * vin(1, 0) + kx(0, 0) * vin(-1, 0)) -
                     ry * (ky(0, 1) * vin(0, 1) + ky(0, 0) * vin(0, -1));
      },
      arg_dat(dat(in), AccessMode::kRead, Stencil::star5()),
      arg_dat(dat(FieldId::kKx), AccessMode::kRead,
              Stencil({{0, 0}, {1, 0}})),
      arg_dat(dat(FieldId::kKy), AccessMode::kRead,
              Stencil({{0, 0}, {0, 1}})),
      arg_dat(dat(out), AccessMode::kWrite));
}

void OpsBackend::compute_residual() {
  const double rx = rx_, ry = ry_;
  ops::par_loop(
      *ctx_, "tea_residual", interior(), 14,
      [rx, ry](Acc u, Acc u0, Acc kx, Acc ky, Acc r) {
        const double diag =
            1.0 + rx * (kx(1, 0) + kx(0, 0)) + ry * (ky(0, 1) + ky(0, 0));
        const double au = diag * u(0, 0) -
                          rx * (kx(1, 0) * u(1, 0) + kx(0, 0) * u(-1, 0)) -
                          ry * (ky(0, 1) * u(0, 1) + ky(0, 0) * u(0, -1));
        r(0, 0) = u0(0, 0) - au;
      },
      arg_dat(dat(FieldId::kU), AccessMode::kRead, Stencil::star5()),
      arg_dat(dat(FieldId::kU0), AccessMode::kRead),
      arg_dat(dat(FieldId::kKx), AccessMode::kRead, Stencil({{0, 0}, {1, 0}})),
      arg_dat(dat(FieldId::kKy), AccessMode::kRead, Stencil({{0, 0}, {0, 1}})),
      arg_dat(dat(FieldId::kR), AccessMode::kWrite));
}

void OpsBackend::copy_field(FieldId src, FieldId dst) {
  ops::par_loop(
      *ctx_, "tea_copy", interior(), 0,
      [](Acc s, Acc d) { d(0, 0) = s(0, 0); },
      arg_dat(dat(src), AccessMode::kRead),
      arg_dat(dat(dst), AccessMode::kWrite));
}

void OpsBackend::scale_copy(FieldId dst, FieldId src, double sc) {
  ops::par_loop(
      *ctx_, "tea_scale_copy", interior(), 1,
      [sc](Acc s, Acc d) { d(0, 0) = sc * s(0, 0); },
      arg_dat(dat(src), AccessMode::kRead),
      arg_dat(dat(dst), AccessMode::kWrite));
}

double OpsBackend::dot(FieldId a, FieldId b) {
  double result = 0.0;
  ops::par_loop(
      *ctx_, "tea_dot", interior(), 2,
      [](Acc va, Acc vb, double& sum) { sum += va(0, 0) * vb(0, 0); },
      arg_dat(dat(a), AccessMode::kRead), arg_dat(dat(b), AccessMode::kRead),
      arg_gbl(result));
  return result;
}

void OpsBackend::axpy(FieldId y, double a, FieldId x) {
  ops::par_loop(
      *ctx_, "tea_axpy", interior(), 2,
      [a](Acc vy, Acc vx) { vy(0, 0) += a * vx(0, 0); },
      arg_dat(dat(y), AccessMode::kReadWrite),
      arg_dat(dat(x), AccessMode::kRead));
}

void OpsBackend::zaxpy(FieldId p, double beta, FieldId z) {
  ops::par_loop(
      *ctx_, "tea_zaxpy", interior(), 2,
      [beta](Acc vp, Acc vz) { vp(0, 0) = vz(0, 0) + beta * vp(0, 0); },
      arg_dat(dat(p), AccessMode::kReadWrite),
      arg_dat(dat(z), AccessMode::kRead));
}

void OpsBackend::precondition(FieldId dst, FieldId src) {
  const double rx = rx_, ry = ry_;
  ops::par_loop(
      *ctx_, "tea_precondition", interior(), 9,
      [rx, ry](Acc s, Acc kx, Acc ky, Acc d) {
        const double diag =
            1.0 + rx * (kx(1, 0) + kx(0, 0)) + ry * (ky(0, 1) + ky(0, 0));
        d(0, 0) = s(0, 0) / diag;
      },
      arg_dat(dat(src), AccessMode::kRead),
      arg_dat(dat(FieldId::kKx), AccessMode::kRead, Stencil({{0, 0}, {1, 0}})),
      arg_dat(dat(FieldId::kKy), AccessMode::kRead, Stencil({{0, 0}, {0, 1}})),
      arg_dat(dat(dst), AccessMode::kWrite));
}

void OpsBackend::smooth_update(FieldId acc_f, FieldId res, FieldId w,
                               FieldId sd, double alpha, double beta) {
  ops::par_loop(
      *ctx_, "tea_cheby_iterate", interior(), 6,
      [alpha, beta](Acc vacc, Acc vres, Acc vw, Acc vsd) {
        vacc(0, 0) += vsd(0, 0);
        vres(0, 0) -= vw(0, 0);
        vsd(0, 0) = alpha * vsd(0, 0) + beta * vres(0, 0);
      },
      arg_dat(dat(acc_f), AccessMode::kReadWrite),
      arg_dat(dat(res), AccessMode::kReadWrite),
      arg_dat(dat(w), AccessMode::kRead),
      arg_dat(dat(sd), AccessMode::kReadWrite));
}

double OpsBackend::jacobi_iterate() {
  // Sweep u (halo freshly updated by the solver) into w, then commit.
  const double rx = rx_, ry = ry_;
  double err = 0.0;
  ops::par_loop(
      *ctx_, "tea_jacobi", interior(), 16,
      [rx, ry](Acc uold, Acc u0, Acc kx, Acc ky, Acc w, double& e) {
        const double diag =
            1.0 + rx * (kx(1, 0) + kx(0, 0)) + ry * (ky(0, 1) + ky(0, 0));
        const double off =
            rx * (kx(1, 0) * uold(1, 0) + kx(0, 0) * uold(-1, 0)) +
            ry * (ky(0, 1) * uold(0, 1) + ky(0, 0) * uold(0, -1));
        const double unew = (u0(0, 0) + off) / diag;
        w(0, 0) = unew;
        e += std::fabs(unew - uold(0, 0));
      },
      arg_dat(dat(FieldId::kU), AccessMode::kRead, Stencil::star5()),
      arg_dat(dat(FieldId::kU0), AccessMode::kRead),
      arg_dat(dat(FieldId::kKx), AccessMode::kRead, Stencil({{0, 0}, {1, 0}})),
      arg_dat(dat(FieldId::kKy), AccessMode::kRead, Stencil({{0, 0}, {0, 1}})),
      arg_dat(dat(FieldId::kW), AccessMode::kWrite), arg_gbl(err));
  copy_field(FieldId::kW, FieldId::kU);
  return err;
}

FieldSummary OpsBackend::field_summary() {
  const double vol_cell = cell_volume_;
  FieldSummary s;
  ops::par_loop(
      *ctx_, "tea_field_summary", interior(), 8,
      [vol_cell](Acc density, Acc energy, Acc u, double& vol, double& mass,
                 double& ie, double& temp) {
        vol += vol_cell;
        mass += density(0, 0) * vol_cell;
        ie += density(0, 0) * energy(0, 0) * vol_cell;
        temp += u(0, 0) * vol_cell;
      },
      arg_dat(dat(FieldId::kDensity), AccessMode::kRead),
      arg_dat(dat(FieldId::kEnergy0), AccessMode::kRead),
      arg_dat(dat(FieldId::kU), AccessMode::kRead), arg_gbl(s.vol),
      arg_gbl(s.mass), arg_gbl(s.ie), arg_gbl(s.temp));
  return s;
}

void OpsBackend::update_halo(std::initializer_list<FieldId> fields,
                             int depth) {
  std::vector<ops::Dat*> list;
  list.reserve(fields.size());
  for (const FieldId f : fields) list.push_back(&dat(f));
  ctx_->update_halo(list, depth);
}

void OpsBackend::finalise() {
  ops::par_loop(
      *ctx_, "tea_finalise", interior(), 1,
      [](Acc u, Acc density, Acc energy) {
        energy(0, 0) = u(0, 0) / density(0, 0);
      },
      arg_dat(dat(FieldId::kU), AccessMode::kRead),
      arg_dat(dat(FieldId::kDensity), AccessMode::kRead),
      arg_dat(dat(FieldId::kEnergy1), AccessMode::kWrite));
}

std::int64_t OpsBackend::working_set_bytes() const {
  std::int64_t local = 0;
  for (const ops::Dat* d : dats_) {
    local += static_cast<std::int64_t>(d->bytes());
  }
  if (ctx_->comm() != nullptr) local *= ctx_->comm()->size();
  return local;
}

tea::Backend::LocalExtent OpsBackend::local_extent() const {
  const ops::Dat& d = dat(FieldId::kU);
  return LocalExtent{d.local_x0(), d.local_y0(), d.local_nx(), d.local_ny(),
                     gnx_, gny_};
}

void OpsBackend::read_field(FieldId f, tl::span<double> out) {
  ctx_->flush();
  ctx_->fetch_to_host(dat(f));
  const ops::Dat& d = dat(f);
  for (int j = 0; j < d.local_ny(); ++j) {
    for (int i = 0; i < d.local_nx(); ++i) {
      out[static_cast<std::size_t>(j) * d.local_nx() + i] = d.at(i, j);
    }
  }
}

double OpsBackend::value_at(FieldId f, int i, int j) {
  ctx_->flush();
  ctx_->fetch_to_host(dat(f));
  return dat(f).at(i, j);
}

}  // namespace tea
