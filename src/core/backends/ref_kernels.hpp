// ref_kernels.hpp — the serial reference implementation of every TeaLeaf
// kernel, over CellViews.  This is the golden math: the serial backend uses
// these directly, the tests compare every other backend against them, and
// the per-kernel flop/byte footprints the instrumentation charges are
// documented here next to the loops that incur them.
//
// Operator (matrix-free 5-point, SPD):
//   (A u)(i,j) = (1 + rx (Kx(i+1,j)+Kx(i,j)) + ry (Ky(i,j+1)+Ky(i,j))) u(i,j)
//              -  rx (Kx(i+1,j) u(i+1,j) + Kx(i,j) u(i-1,j))
//              -  ry (Ky(i,j+1) u(i,j+1) + Ky(i,j) u(i,j-1))
// with rx = dt/dx^2, ry = dt/dy^2.  Kx(i,j) is the face between cells
// (i-1,j) and (i,j).  Reflective halos make the boundary fluxes vanish
// (Neumann), so A is symmetric positive definite.
//
// Loop structure: every kernel walks contiguous rows through TL_RESTRICT
// row pointers, with a branch-free unit-stride inner loop, so the compiler
// vectorizes without runtime aliasing checks.  Per-element arithmetic is
// spelled exactly as the operator definition above — vectorization must not
// change results bitwise.  Reductions (dot, jacobi error) use an explicit
// four-lane partial-accumulator scheme per row; that fixed association order
// is the repo-wide contract for deterministic reductions (the golden suite
// freezes numbers produced through it), independent of the vector width the
// target machine happens to have.
#pragma once

#include <cmath>

#include "common/config.hpp"
#include "common/simd.hpp"
#include "core/backends/field_store.hpp"
#include "core/field.hpp"

namespace tea::ref {

/// Per-kernel cost table (per interior cell): reads, writes, flops.  Shared
/// by every backend's traffic charging so variants are compared on the same
/// footprint accounting a DRAM-side profiler would use.
struct KernelCost {
  int reads;
  int writes;
  int flops;
};
inline constexpr KernelCost kCostCoefficients{1, 2, 6};
inline constexpr KernelCost kCostInitU{2, 2, 1};
inline constexpr KernelCost kCostOperator{4, 1, 13};  // u, kx, ky (+reuse), w
inline constexpr KernelCost kCostResidual{5, 1, 14};
inline constexpr KernelCost kCostCopy{1, 1, 0};
inline constexpr KernelCost kCostScaleCopy{1, 1, 1};
inline constexpr KernelCost kCostDot{2, 0, 2};
inline constexpr KernelCost kCostAxpy{2, 1, 2};
inline constexpr KernelCost kCostZaxpy{2, 1, 2};
inline constexpr KernelCost kCostSmooth{4, 3, 6};
inline constexpr KernelCost kCostJacobi{7, 2, 16};
inline constexpr KernelCost kCostSummary{3, 0, 8};
inline constexpr KernelCost kCostFinalise{2, 1, 1};
// Fused w = A p; p.w: the operator's footprint plus the dot's two flops —
// the dot re-reads nothing from memory (p is already streaming, w is in
// registers), which is exactly why the solvers fuse it.
inline constexpr KernelCost kCostOperatorDot{4, 1, 15};

/// Row pointer of a view: `row(v, j)[i]` == `v(i, j)`.  The TL_RESTRICT on
/// the callers' locals is what lets the inner loops vectorize cleanly.
inline double* row(const CellView& v, int j) {
  return v.origin + static_cast<std::ptrdiff_t>(j) * v.stride;
}
inline const double* row(const ConstCellView& v, int j) {
  return v.origin + static_cast<std::ptrdiff_t>(j) * v.stride;
}

/// Deterministic row reduction: four explicit partial accumulators over the
/// unit-stride row, folded as (a0+a2)+(a1+a3), remainder appended serially.
/// Every dot-like reduction in the repo sums each row through this shape.
template <typename ElemFn>
inline double row_reduce4(int n, const ElemFn& elem) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += elem(i);
    a1 += elem(i + 1);
    a2 += elem(i + 2);
    a3 += elem(i + 3);
  }
  double acc = (a0 + a2) + (a1 + a3);
  for (; i < n; ++i) acc += elem(i);
  return acc;
}

/// Conduction coefficient of one cell from its density.
inline double conduction(double density, tl::CoefficientKind kind) {
  return kind == tl::CoefficientKind::kRecipDensity ? 1.0 / density : density;
}

/// Face coefficients from cell densities (TeaLeaf tea_leaf_common formula:
/// Kface = (w_a + w_b) / (2 w_a w_b) of the two adjacent cell coefficients).
/// Split into one branch-free pass per face direction: kx rows run j < ny
/// over i <= nx, ky rows run j <= ny over i < nx — same values as the fused
/// conditional loop, without per-element branches.
inline void compute_coefficients(ConstCellView density, CellView kx,
                                 CellView ky, int nx, int ny,
                                 tl::CoefficientKind kind) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT dc = row(density, j);
    double* TL_RESTRICT kxr = row(kx, j);
    for (int i = 0; i <= nx; ++i) {
      const double wc = conduction(dc[i], kind);
      const double wl = conduction(dc[i - 1], kind);
      kxr[i] = (wl + wc) / (2.0 * wl * wc);
    }
  }
  for (int j = 0; j <= ny; ++j) {
    const double* TL_RESTRICT dc = row(density, j);
    const double* TL_RESTRICT dd = row(density, j - 1);
    double* TL_RESTRICT kyr = row(ky, j);
    for (int i = 0; i < nx; ++i) {
      const double wc = conduction(dc[i], kind);
      const double wd = conduction(dd[i], kind);
      kyr[i] = (wd + wc) / (2.0 * wd * wc);
    }
  }
}

inline void init_u_u0(ConstCellView density, ConstCellView energy, CellView u,
                      CellView u0, int nx, int ny) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT dr = row(density, j);
    const double* TL_RESTRICT er = row(energy, j);
    double* TL_RESTRICT ur = row(u, j);
    double* TL_RESTRICT u0r = row(u0, j);
    for (int i = 0; i < nx; ++i) {
      const double v = er[i] * dr[i];
      ur[i] = v;
      u0r[i] = v;
    }
  }
}

/// One cell of the operator, for kernels that index a field view per cell
/// (the RAJA port); `View` is any (i, j)-callable field view.
template <typename View, typename Index>
double apply_operator_at(const View& in, const View& kx, const View& ky,
                         double rx, double ry, Index i, Index j) {
  const double diag =
      1.0 + rx * (kx(i + 1, j) + kx(i, j)) + ry * (ky(i, j + 1) + ky(i, j));
  return diag * in(i, j) -
         rx * (kx(i + 1, j) * in(i + 1, j) + kx(i, j) * in(i - 1, j)) -
         ry * (ky(i, j + 1) * in(i, j + 1) + ky(i, j) * in(i, j - 1));
}

inline void apply_operator(ConstCellView in, CellView out, ConstCellView kx,
                           ConstCellView ky, double rx, double ry, int nx,
                           int ny) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT uc = row(in, j);
    const double* TL_RESTRICT un = row(in, j + 1);
    const double* TL_RESTRICT us = row(in, j - 1);
    const double* TL_RESTRICT kxr = row(kx, j);
    const double* TL_RESTRICT kyc = row(ky, j);
    const double* TL_RESTRICT kyn = row(ky, j + 1);
    double* TL_RESTRICT out_r = row(out, j);
    for (int i = 0; i < nx; ++i) {
      const double diag =
          1.0 + rx * (kxr[i + 1] + kxr[i]) + ry * (kyn[i] + kyc[i]);
      out_r[i] = diag * uc[i] -
                 rx * (kxr[i + 1] * uc[i + 1] + kxr[i] * uc[i - 1]) -
                 ry * (kyn[i] * un[i] + kyc[i] * us[i]);
    }
  }
}

/// Fused w = A p and p.w over the same rows: the dot consumes each stencil
/// result while it is still in registers, saving the separate dot's full
/// memory pass.  The reduction uses the same four-lane row scheme as dot().
inline double apply_operator_dot(ConstCellView in, CellView out,
                                 ConstCellView kx, ConstCellView ky, double rx,
                                 double ry, int nx, int ny) {
  double acc = 0.0;
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT uc = row(in, j);
    const double* TL_RESTRICT un = row(in, j + 1);
    const double* TL_RESTRICT us = row(in, j - 1);
    const double* TL_RESTRICT kxr = row(kx, j);
    const double* TL_RESTRICT kyc = row(ky, j);
    const double* TL_RESTRICT kyn = row(ky, j + 1);
    double* TL_RESTRICT out_r = row(out, j);
    for (int i = 0; i < nx; ++i) {
      const double diag =
          1.0 + rx * (kxr[i + 1] + kxr[i]) + ry * (kyn[i] + kyc[i]);
      out_r[i] = diag * uc[i] -
                 rx * (kxr[i + 1] * uc[i + 1] + kxr[i] * uc[i - 1]) -
                 ry * (kyn[i] * un[i] + kyc[i] * us[i]);
    }
    acc += row_reduce4(nx, [&](int i) { return uc[i] * out_r[i]; });
  }
  return acc;
}

inline void compute_residual(ConstCellView u, ConstCellView u0, CellView r,
                             ConstCellView kx, ConstCellView ky, double rx,
                             double ry, int nx, int ny) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT uc = row(u, j);
    const double* TL_RESTRICT un = row(u, j + 1);
    const double* TL_RESTRICT us = row(u, j - 1);
    const double* TL_RESTRICT u0r = row(u0, j);
    const double* TL_RESTRICT kxr = row(kx, j);
    const double* TL_RESTRICT kyc = row(ky, j);
    const double* TL_RESTRICT kyn = row(ky, j + 1);
    double* TL_RESTRICT rr = row(r, j);
    for (int i = 0; i < nx; ++i) {
      const double diag =
          1.0 + rx * (kxr[i + 1] + kxr[i]) + ry * (kyn[i] + kyc[i]);
      rr[i] = u0r[i] - (diag * uc[i] -
                        rx * (kxr[i + 1] * uc[i + 1] + kxr[i] * uc[i - 1]) -
                        ry * (kyn[i] * un[i] + kyc[i] * us[i]));
    }
  }
}

inline void copy_field(ConstCellView src, CellView dst, int nx, int ny) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT s = row(src, j);
    double* TL_RESTRICT d = row(dst, j);
    for (int i = 0; i < nx; ++i) d[i] = s[i];
  }
}

inline void scale_copy(CellView dst, ConstCellView src, double sc, int nx,
                       int ny) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT s = row(src, j);
    double* TL_RESTRICT d = row(dst, j);
    for (int i = 0; i < nx; ++i) d[i] = sc * s[i];
  }
}

inline double dot(ConstCellView a, ConstCellView b, int nx, int ny) {
  double acc = 0.0;
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT ar = row(a, j);
    const double* TL_RESTRICT br = row(b, j);
    acc += row_reduce4(nx, [&](int i) { return ar[i] * br[i]; });
  }
  return acc;
}

inline void axpy(CellView y, double a, ConstCellView x, int nx, int ny) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT xr = row(x, j);
    double* TL_RESTRICT yr = row(y, j);
    for (int i = 0; i < nx; ++i) yr[i] += a * xr[i];
  }
}

inline void zaxpy(CellView p, double beta, ConstCellView z, int nx, int ny) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT zr = row(z, j);
    double* TL_RESTRICT pr = row(p, j);
    for (int i = 0; i < nx; ++i) pr[i] = zr[i] + beta * pr[i];
  }
}

inline void smooth_update(CellView acc, CellView res, ConstCellView w,
                          CellView sd, double alpha, double beta, int nx,
                          int ny) {
  for (int j = 0; j < ny; ++j) {
    double* TL_RESTRICT accr = row(acc, j);
    double* TL_RESTRICT resr = row(res, j);
    const double* TL_RESTRICT wr = row(w, j);
    double* TL_RESTRICT sdr = row(sd, j);
    for (int i = 0; i < nx; ++i) {
      accr[i] += sdr[i];
      resr[i] -= wr[i];
      sdr[i] = alpha * sdr[i] + beta * resr[i];
    }
  }
}

/// One Jacobi sweep: u_old must be in `uold`; writes u.  Returns sum|du|.
inline double jacobi_sweep(ConstCellView uold, ConstCellView u0, CellView u,
                           ConstCellView kx, ConstCellView ky, double rx,
                           double ry, int nx, int ny) {
  double err = 0.0;
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT uc = row(uold, j);
    const double* TL_RESTRICT un = row(uold, j + 1);
    const double* TL_RESTRICT us = row(uold, j - 1);
    const double* TL_RESTRICT u0r = row(u0, j);
    const double* TL_RESTRICT kxr = row(kx, j);
    const double* TL_RESTRICT kyc = row(ky, j);
    const double* TL_RESTRICT kyn = row(ky, j + 1);
    double* TL_RESTRICT ur = row(u, j);
    err += row_reduce4(nx, [&](int i) {
      const double diag =
          1.0 + rx * (kxr[i + 1] + kxr[i]) + ry * (kyn[i] + kyc[i]);
      const double off = rx * (kxr[i + 1] * uc[i + 1] + kxr[i] * uc[i - 1]) +
                         ry * (kyn[i] * un[i] + kyc[i] * us[i]);
      const double unew = (u0r[i] + off) / diag;
      ur[i] = unew;
      return std::fabs(unew - uc[i]);
    });
  }
  return err;
}

inline FieldSummary field_summary(ConstCellView density, ConstCellView energy,
                                  ConstCellView u, double cell_volume, int nx,
                                  int ny) {
  FieldSummary s;
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT dr = row(density, j);
    const double* TL_RESTRICT er = row(energy, j);
    const double* TL_RESTRICT ur = row(u, j);
    for (int i = 0; i < nx; ++i) {
      const double vol = cell_volume;
      s.vol += vol;
      s.mass += dr[i] * vol;
      s.ie += dr[i] * er[i] * vol;
      s.temp += ur[i] * vol;
    }
  }
  return s;
}

inline void finalise(ConstCellView u, ConstCellView density, CellView energy,
                     int nx, int ny) {
  for (int j = 0; j < ny; ++j) {
    const double* TL_RESTRICT ur = row(u, j);
    const double* TL_RESTRICT dr = row(density, j);
    double* TL_RESTRICT er = row(energy, j);
    for (int i = 0; i < nx; ++i) er[i] = ur[i] / dr[i];
  }
}

/// Reflective (mirror) fill of `depth` halo layers on the flagged physical
/// edges; the y pass covers the x halo so corners stay consistent.
inline void reflect_halo(CellView f, int nx, int ny, int depth, bool at_xlo,
                         bool at_xhi, bool at_ylo, bool at_yhi) {
  if (at_xlo) {
    for (int j = 0; j < ny; ++j) {
      double* TL_RESTRICT fr = row(f, j);
      for (int k = 0; k < depth; ++k) fr[-1 - k] = fr[k];
    }
  }
  if (at_xhi) {
    for (int j = 0; j < ny; ++j) {
      double* TL_RESTRICT fr = row(f, j);
      for (int k = 0; k < depth; ++k) fr[nx + k] = fr[nx - 1 - k];
    }
  }
  if (at_ylo) {
    for (int k = 0; k < depth; ++k) {
      double* TL_RESTRICT dst = row(f, -1 - k);
      const double* TL_RESTRICT src = row(f, k);
      for (int i = -depth; i < nx + depth; ++i) dst[i] = src[i];
    }
  }
  if (at_yhi) {
    for (int k = 0; k < depth; ++k) {
      double* TL_RESTRICT dst = row(f, ny + k);
      const double* TL_RESTRICT src = row(f, ny - 1 - k);
      for (int i = -depth; i < nx + depth; ++i) dst[i] = src[i];
    }
  }
}

}  // namespace tea::ref
