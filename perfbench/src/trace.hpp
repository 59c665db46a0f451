// trace.hpp — the benchmark's one timing/trace path: an in-memory span
// recorder exported as Trace Event JSON, and TimedBackend, a decorator that
// forwards every tea::Backend virtual to the real backend and times it.
//
// Everything here sits outside the program under test: spans are recorded
// around calls into the repo's public functions, never inside them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/backend.hpp"

namespace pb {

/// One closed span on the steady clock.  `id` correlates a span with its
/// parent: spans of one solve or one wire request share it.
struct Span {
  const char* cat = "";
  const char* name = "";
  std::uint64_t id = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Fixed-capacity span store: spans past the capacity are counted, not
/// kept, so a long traced run cannot grow without bound.  Single-threaded:
/// every span of a run is recorded on the thread that drives the workload.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 100000);

  void record(const char* cat, const char* name, std::uint64_t id,
              Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  long dropped() const { return dropped_; }

  /// Trace Event Format JSON ("X" complete events, microseconds, one
  /// thread lane per id; solves in process 1, wire requests in process 2);
  /// `metadata` lands in "otherData".  Loads in Perfetto and
  /// chrome://tracing.
  void write_trace_events(
      const std::string& path,
      const std::map<std::string, std::string>& metadata) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  long dropped_ = 0;
  Clock::time_point origin_;
};

/// Calls, wall time and computed bytes (machine::Counters delta) of one
/// backend entry point.
struct KernelStat {
  long calls = 0;
  double seconds = 0.0;
  std::int64_t bytes = 0;
};

/// What TimedBackend learned about one or more solves.  The solver window
/// of a step runs from the end of init_u_u0 to the start of finalise: that
/// is exactly the span of tea::solve inside TeaDriver::run, seen from the
/// backend boundary.
struct LayerLedger {
  std::map<std::string, KernelStat> kernels;
  double kernel_seconds = 0.0;         // every decorated call
  double solver_seconds = 0.0;         // solver windows
  double solver_kernel_seconds = 0.0;  // decorated calls inside them

  void merge(const LayerLedger& other);
};

class TimedBackend final : public tea::Backend {
 public:
  /// `inner` and `ledger` must outlive the decorator; `spans` may be null.
  TimedBackend(tea::Backend& inner, LayerLedger& ledger, SpanRecorder* spans,
               std::uint64_t id);

  std::string id() const override { return inner_.id(); }
  void setup(const tl::ProblemConfig& cfg) override;
  void compute_coefficients(tl::CoefficientKind kind) override;
  void init_u_u0() override;
  void apply_operator(tea::FieldId in, tea::FieldId out) override;
  double apply_operator_dot(tea::FieldId in, tea::FieldId out) override;
  void compute_residual() override;
  // The exchange_* entries keep Backend's default pairing (update_halo,
  // then the kernel, both through this decorator).  That is what every
  // shared-memory backend runs, so halo refresh and stencil are timed
  // apart; distributed backends are never wrapped.
  void copy_field(tea::FieldId src, tea::FieldId dst) override;
  void scale_copy(tea::FieldId dst, tea::FieldId src, double s) override;
  double dot(tea::FieldId a, tea::FieldId b) override;
  void axpy(tea::FieldId y, double a, tea::FieldId x) override;
  void zaxpy(tea::FieldId p, double beta, tea::FieldId z) override;
  void precondition(tea::FieldId dst, tea::FieldId src) override;
  void smooth_update(tea::FieldId acc, tea::FieldId res, tea::FieldId w,
                     tea::FieldId sd, double alpha, double beta) override;
  double jacobi_iterate() override;
  tea::FieldSummary field_summary() override;
  void update_halo(std::initializer_list<tea::FieldId> fields,
                   int depth) override;
  void finalise() override;
  std::int64_t working_set_bytes() const override {
    return inner_.working_set_bytes();
  }
  bool counts_globally() const override { return inner_.counts_globally(); }
  void counter_fence(tea::CounterFence phase) override {
    inner_.counter_fence(phase);
  }
  LocalExtent local_extent() const override { return inner_.local_extent(); }
  void read_field(tea::FieldId f, tl::span<double> out) override {
    inner_.read_field(f, out);
  }

 private:
  template <typename Call>
  auto timed(const char* name, Call&& call);

  tea::Backend& inner_;
  LayerLedger& ledger_;
  SpanRecorder* spans_;
  std::uint64_t id_;
  bool in_solver_ = false;
  Clock::time_point solver_start_;
};

}  // namespace pb
