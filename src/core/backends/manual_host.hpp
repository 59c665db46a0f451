// manual_host.hpp — the hand-parallelised CPU TeaLeaf variants.
//
// One class covers the paper's four manual CPU builds through its
// construction parameters, keeping the parallelisation mechanics explicit:
//   serial         : no pool, no comm   — the reference implementation
//   manual-omp     : tlp pool           — OpenMP-style row work-sharing
//   manual-mpi     : minimpi comm       — block decomposition + halo exchange
//   manual-hybrid  : comm + per-rank pool
// Kernels delegate the per-row math to ref_kernels (exactly what the Fortran
// OpenMP port does around its loop pragmas); distribution adds halo
// exchanges and allreduced reductions.
#pragma once

#include <memory>

#include "core/backend.hpp"
#include "core/backends/field_arena.hpp"
#include "core/backends/field_store.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"
#include "threading/thread_pool.hpp"

namespace tea {

class ManualHostBackend final : public Backend {
public:
  /// `pool` may be null (serial rows); `comm` may be null (undecomposed).
  /// `arena` may be null (own a fresh FieldStore, the default); with one,
  /// setup() leases the field slab from the arena and the destructor
  /// returns it — the solve-service path that amortises field allocation
  /// across back-to-back solves.  The backend owns none of the three.
  ManualHostBackend(std::string id, tlp::ThreadPool* pool, minimpi::Comm* comm,
                    FieldArena* arena = nullptr);
  ~ManualHostBackend() override;

  std::string id() const override { return id_; }
  void setup(const tl::ProblemConfig& cfg) override;

  void compute_coefficients(tl::CoefficientKind kind) override;
  void init_u_u0() override;
  void apply_operator(FieldId in, FieldId out) override;
  double apply_operator_dot(FieldId in, FieldId out) override;
  void compute_residual() override;
  // Overlapped split-phase exchanges: interior stencil while strips fly,
  // boundary ring after finish.  Bitwise identical to the blocking defaults
  // (pure per-cell writes; reductions re-read through the canonical
  // row_reduce4 passes).  Undecomposed instances use the defaults.
  void exchange_apply_operator(FieldId in, FieldId out) override;
  double exchange_apply_operator_dot(FieldId in, FieldId out) override;
  void exchange_compute_residual() override;
  double exchange_jacobi_iterate() override;
  void copy_field(FieldId src, FieldId dst) override;
  void scale_copy(FieldId dst, FieldId src, double s) override;
  double dot(FieldId a, FieldId b) override;
  void axpy(FieldId y, double a, FieldId x) override;
  void zaxpy(FieldId p, double beta, FieldId z) override;
  void precondition(FieldId dst, FieldId src) override;
  void smooth_update(FieldId acc, FieldId res, FieldId w, FieldId sd,
                     double alpha, double beta) override;
  double jacobi_iterate() override;
  FieldSummary field_summary() override;
  void update_halo(std::initializer_list<FieldId> fields, int depth) override;
  void finalise() override;
  std::int64_t working_set_bytes() const override;
  bool counts_globally() const override {
    return comm_ == nullptr || comm_->rank() == 0;
  }
  LocalExtent local_extent() const override;
  void read_field(FieldId f, tl::span<double> out) override;

  const PartitionGeom& geom() const { return store_->geom(); }
  FieldStore& store() { return *store_; }

private:
  /// Work-share rows [0, ny) over the pool (or run inline when serial).
  template <typename RowFn>
  void rows(const RowFn& fn);
  /// `fn(j, j + 1)` per row, folded in row order (tlp::reduce_rows) and
  /// then combined across ranks.
  template <typename MapFn>
  double reduce_rows(const MapFn& fn);
  /// Split-phase exchange of one layer of `exchanged` overlapped with the
  /// interior cells of a stencil pass; `band(i0, bnx, j0, j1)` computes
  /// local columns [i0, i0+bnx) of rows [j0, j1).
  template <typename BandFn>
  void overlap_exchange(FieldId exchanged, const BandFn& band);

  std::string id_;
  tlp::ThreadPool* pool_;
  minimpi::Comm* comm_;
  FieldArena* arena_;
  std::unique_ptr<minimpi::Cart2D> cart_;
  std::unique_ptr<FieldStore> store_;
  double cell_volume_ = 0.0;
};

}  // namespace tea
