// manual_cuda.hpp — the hand-written CUDA TeaLeaf variant, on the simulated
// GPU: every field lives in device memory, kernels are grid/block launches,
// dot products are two-phase device reductions, and halos are refreshed by
// device-side reflection kernels (this variant is single-device, no MPI).
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "core/backend.hpp"
#include "core/backends/field_store.hpp"
#include "simgpu/device_buffer.hpp"

namespace tea {

class ManualCudaBackend final : public Backend {
public:
  explicit ManualCudaBackend(simgpu::Device* device = nullptr);

  std::string id() const override { return "manual-cuda"; }
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

private:
  CellView dv(FieldId f) const;

  simgpu::Device& device_;
  PartitionGeom geom_;
  double cell_volume_ = 0.0;
  std::array<std::optional<simgpu::DeviceBuffer<double>>, kNumFields> fields_;
};

}  // namespace tea
