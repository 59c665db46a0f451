// backend.hpp — the kernel-level interface every TeaLeaf implementation
// provides.  The generic drivers and solvers (core/solvers, core/driver) are
// written once against this interface; the paper's sixteen variants differ
// only in how these kernels are parallelised and where the fields live.
//
// Distributed variants run the whole driver SPMD (one Backend per rank, as
// real TeaLeaf runs its main loop on every rank); `dot`, `field_summary` and
// `jacobi_iterate` return globally-reduced values on every rank, and
// `update_halo` performs the rank-edge exchanges.
#pragma once

#include <cstdint>
#include <initializer_list>
#include "common/span.hpp"
#include <string>

#include "common/config.hpp"
#include "core/field.hpp"

namespace tea {

/// Phases of the retired cross-rank counter fence; nothing calls
/// Backend::counter_fence.  Kept while perfbench's TimedBackend names it.
enum class CounterFence { kReady, kGo, kDone };

class Backend {
public:
  virtual ~Backend() = default;

  /// Registry id, e.g. "manual-omp", "ops-tiled", "kokkos-cuda".
  virtual std::string id() const = 0;

  /// Allocate fields and paint the initial density/energy0 (and energy1)
  /// from the deck's states.  Must be called exactly once, first.
  virtual void setup(const tl::ProblemConfig& cfg) = 0;

  // --- per-step scalars, set by the driver before the solve ------------------

  /// rx = dt/dx^2, ry = dt/dy^2 for the current step.
  void set_rx_ry(double rx, double ry) {
    rx_ = rx;
    ry_ = ry;
  }
  double rx() const { return rx_; }
  double ry() const { return ry_; }

  // --- TeaLeaf kernels ---------------------------------------------------------

  /// Face conduction coefficients kx, ky from density (TeaLeaf's
  /// tea_leaf_init coefficient block).  Requires density halo depth >= 1.
  virtual void compute_coefficients(tl::CoefficientKind kind) = 0;

  /// u = energy1 * density over the interior; u0 = u.
  virtual void init_u_u0() = 0;

  /// out = A in over the interior (5-point SPD operator with rx/ry and the
  /// face coefficients).  Requires `in` halo depth >= 1.
  virtual void apply_operator(FieldId in, FieldId out) = 0;

  /// Fused out = A in; return <in, out> (globally reduced).  The CG/PPCG
  /// inner iteration always needs this pair; fusing lets a backend consume
  /// each operator result while it is still in registers instead of paying
  /// a second memory pass for the dot.  The default is the unfused pair, so
  /// backends without a fused kernel keep bit-identical behaviour.
  virtual double apply_operator_dot(FieldId in, FieldId out) {
    apply_operator(in, out);
    return dot(in, out);
  }

  /// Select fused vs unfused apply_operator_dot (RunOptions
  /// .fuse_operator_dot, a tuning search dimension).  Backends with a fused
  /// kernel must honour `fused_operator_dot()` in their override; results
  /// are bitwise identical either way (PR 3 contract), only the launch and
  /// traffic counts differ.
  void set_fused_operator_dot(bool fused) { fused_op_dot_ = fused; }
  bool fused_operator_dot() const { return fused_op_dot_; }

  /// r = u0 - A u.  Requires u halo depth >= 1.
  virtual void compute_residual() = 0;

  // --- fused halo-refresh + kernel entry points --------------------------------
  // The solvers always refresh a field's halo immediately before the stencil
  // that reads it; these fused entries let a distributed backend overlap the
  // exchange with interior-cell compute (split-phase HaloExchange).  The
  // defaults are the blocking pair, and overlapped overrides must be bitwise
  // identical to them — same per-cell arithmetic, reductions through the
  // same deterministic row_reduce4 association.

  /// update_halo({in}, 1) then out = A in.
  virtual void exchange_apply_operator(FieldId in, FieldId out) {
    update_halo({in}, 1);
    apply_operator(in, out);
  }

  /// update_halo({in}, 1) then fused out = A in; return <in, out>.
  virtual double exchange_apply_operator_dot(FieldId in, FieldId out) {
    update_halo({in}, 1);
    return apply_operator_dot(in, out);
  }

  /// update_halo({u}, 1) then r = u0 - A u.
  virtual void exchange_compute_residual() {
    update_halo({FieldId::kU}, 1);
    compute_residual();
  }

  /// update_halo({u}, 1) then one Jacobi sweep; returns the global error sum.
  virtual double exchange_jacobi_iterate() {
    update_halo({FieldId::kU}, 1);
    return jacobi_iterate();
  }

  virtual void copy_field(FieldId src, FieldId dst) = 0;

  /// dst = s * src.
  virtual void scale_copy(FieldId dst, FieldId src, double s) = 0;

  /// Globally-reduced interior dot product.
  virtual double dot(FieldId a, FieldId b) = 0;

  /// y += a * x.
  virtual void axpy(FieldId y, double a, FieldId x) = 0;

  /// p = z + beta * p (CG direction update).
  virtual void zaxpy(FieldId p, double beta, FieldId z) = 0;

  /// dst = src / diag(A): the Jacobi-diagonal preconditioner
  /// (tl_preconditioner_type=jac_diag).  Requires coefficients computed.
  virtual void precondition(FieldId dst, FieldId src) = 0;

  /// Fused Chebyshev/PPCG smoothing step: acc += sd; res -= w;
  /// sd = alpha * sd + beta * res.  (w = A sd must already be computed.)
  virtual void smooth_update(FieldId acc, FieldId res, FieldId w, FieldId sd,
                             double alpha, double beta) = 0;

  /// One Jacobi sweep u_new = D^-1 (u0 + offdiag(u_old)); returns the
  /// globally-reduced sum |u_new - u_old| (TeaLeaf's Jacobi error).  Uses kR
  /// as the u_old scratch.
  virtual double jacobi_iterate() = 0;

  /// Conserved-quantity reductions over the interior, globally combined.
  virtual FieldSummary field_summary() = 0;

  /// Refresh halos (rank exchanges + reflective physical boundaries).
  virtual void update_halo(std::initializer_list<FieldId> fields,
                           int depth) = 0;

  /// energy1 = u / density over the interior.
  virtual void finalise() = 0;

  /// Bytes of field storage this variant keeps resident (for the KNL
  /// MCDRAM-capacity rule); global (all ranks).
  virtual std::int64_t working_set_bytes() const = 0;

  /// True on the instance that charges logical events (launches,
  /// reductions, halo exchanges, iterations) for the whole run: rank 0, or
  /// any shared-memory variant.  run_simulation sums every rank's counts,
  /// so this keeps them from being multiplied by the rank count.
  virtual bool counts_globally() const { return true; }

  /// Uncalled no-op (see CounterFence).
  virtual void counter_fence(CounterFence) {}

  // --- field access (visualisation, tests) ------------------------------------

  /// The interior cells this backend instance owns: offset within the global
  /// mesh plus local and global extents (a shared-memory backend owns all of
  /// it).
  struct LocalExtent {
    int x0 = 0, y0 = 0;
    int nx = 0, ny = 0;
    int gnx = 0, gny = 0;
  };
  virtual LocalExtent local_extent() const = 0;

  /// Copy the locally-owned interior of `f` into `out` (row-major,
  /// nx*ny values), synchronising from the device where needed.
  virtual void read_field(FieldId f, tl::span<double> out) = 0;

protected:
  double rx_ = 0.0;
  double ry_ = 0.0;
  bool fused_op_dot_ = true;
};

}  // namespace tea
