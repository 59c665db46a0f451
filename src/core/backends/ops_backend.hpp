// ops_backend.hpp — TeaLeaf re-engineered through the miniops DSL, as the
// paper's OPS variants are (§III-B).  One source covers every OPS build:
//
//   ops-omp    : Context{use_pool}
//   ops-mpi    : Context{comm}
//   ops-hybrid : Context{comm, use_pool}
//   ops-tiled  : Context{comm, tiled}           (the paper's "MPI Tiled")
//   ops-cuda   : Context{device}
//   ops-acc    : Context{device}                (OpenACC-generated flavour)
//
// — exactly the single-source / many-parallelisations property the paper
// credits OPS with.  Kernels are expressed as ops::par_loop calls with
// stencil-typed arguments; halo maintenance and reductions go through the
// Context (dirty bits, exchanges, allreduce), and the tiled variant queues
// chains of loops for cache-blocked execution.
#pragma once

#include <memory>

#include "core/backend.hpp"
#include "miniops/miniops.hpp"

namespace tea {

class OpsBackend final : public Backend {
public:
  OpsBackend(std::string id, ops::ContextOptions options);

  std::string id() const override { return id_; }
  void setup(const tl::ProblemConfig& cfg) override;

  void compute_coefficients(tl::CoefficientKind kind) override;
  void init_u_u0() override;
  void apply_operator(FieldId in, FieldId out) override;
  void compute_residual() override;
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
    return ctx_->comm() == nullptr || ctx_->comm()->rank() == 0;
  }
  LocalExtent local_extent() const override;
  void read_field(FieldId f, tl::span<double> out) override;

  ops::Context& context() { return *ctx_; }
  /// Host view of a dat's value at local interior cell (i, j) (tests;
  /// fetches from the device first on device contexts).
  double value_at(FieldId f, int i, int j);

private:
  ops::Dat& dat(FieldId f) const { return *dats_[static_cast<std::size_t>(f)]; }
  ops::Range interior() const;

  std::string id_;
  std::unique_ptr<ops::Context> ctx_;
  ops::Block* block_ = nullptr;
  std::array<ops::Dat*, kNumFields> dats_{};
  int gnx_ = 0, gny_ = 0;
  double cell_volume_ = 0.0;
};

}  // namespace tea
