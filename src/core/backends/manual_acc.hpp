// manual_acc.hpp — the hand-written OpenACC TeaLeaf variant (miniacc).
//
// OpenACC's defining structure is preserved: fields are host arrays wrapped
// in a long-lived data region (`#pragma acc data copy(...)` around the whole
// run), kernels are `parallel loop collapse(2)` constructs, reductions use
// reduction clauses.  The same code serves both targets the paper tests:
//   manual-acc-cpu : -ta=multicore  (host thread pool)
//   manual-acc-gpu : -ta=tesla     (simulated GPU; the region manages the
//                                   device copies and copyout at teardown)
#pragma once

#include <array>
#include <memory>

#include "core/backend.hpp"
#include "core/backends/field_store.hpp"
#include "miniacc/acc.hpp"

namespace tea {

class ManualAccBackend final : public Backend {
public:
  /// `pool` runs the host target's loops (nullptr: tlp::global_pool()).
  explicit ManualAccBackend(miniacc::Target target,
                            tlp::ThreadPool* pool = nullptr);
  ~ManualAccBackend() override;

  std::string id() const override {
    return target_ == miniacc::Target::kHost ? "manual-acc-cpu"
                                             : "manual-acc-gpu";
  }
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
  LocalExtent local_extent() const override {
    return LocalExtent{0, 0, geom_.nx, geom_.ny, geom_.gnx, geom_.gny};
  }
  void read_field(FieldId f, tl::span<double> out) override;

  /// Sync the region's device copy of `f` back to the host store (`update
  /// host` directive); no-op on the host target.
  void sync_host(FieldId f);
  FieldStore& store() { return *store_; }

private:
  CellView rv(FieldId f) const;  // region-pointer view

  miniacc::Target target_;
  tlp::ThreadPool* pool_;
  std::unique_ptr<FieldStore> store_;
  std::unique_ptr<miniacc::DataRegion> region_;
  std::array<double*, kNumFields> mapped_{};
  PartitionGeom geom_;
  double cell_volume_ = 0.0;
};

}  // namespace tea
