#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "machine/instrumentation.hpp"

namespace pb {

SpanRecorder::SpanRecorder(std::size_t capacity)
    : capacity_(capacity), origin_(Clock::now()) {
  spans_.reserve(capacity_);
}

void SpanRecorder::record(const char* cat, const char* name, std::uint64_t id,
                          Clock::time_point start, Clock::time_point end) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{cat, name, id, start, end});
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Trace Event process of a span: solves (driver, solver, backend) are
/// process 1 and wire requests (loadgen, net, service) process 2, so solve
/// and request ids, each one lane, never share a lane.
int process_of(const char* cat) {
  return std::strcmp(cat, "driver") == 0 || std::strcmp(cat, "solver") == 0 ||
                 std::strcmp(cat, "backend") == 0
             ? 1
             : 2;
}

}  // namespace

void SpanRecorder::write_trace_events(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw tl::Error("cannot write trace file " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%d,\"tid\":%llu,\"args\":{\"id\":%llu}}",
                 i == 0 ? "" : ",\n", s.name, s.cat,
                 micros(s.start - origin_), micros(s.end - s.start),
                 process_of(s.cat),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
  bool first = true;
  for (const auto& [key, value] : metadata) {
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",",
                 json_escape(key).c_str(), json_escape(value).c_str());
    first = false;
  }
  std::fprintf(f, "%s\"dropped_spans\":\"%ld\"}}\n", first ? "" : ",",
               dropped_);
  std::fclose(f);
}

void LayerLedger::merge(const LayerLedger& other) {
  for (const auto& [name, stat] : other.kernels) {
    KernelStat& mine = kernels[name];
    mine.calls += stat.calls;
    mine.seconds += stat.seconds;
    mine.bytes += stat.bytes;
  }
  kernel_seconds += other.kernel_seconds;
  solver_seconds += other.solver_seconds;
  solver_kernel_seconds += other.solver_kernel_seconds;
}

TimedBackend::TimedBackend(tea::Backend& inner, LayerLedger& ledger,
                           SpanRecorder* spans, std::uint64_t id)
    : inner_(inner), ledger_(ledger), spans_(spans), id_(id) {}

template <typename Call>
auto TimedBackend::timed(const char* name, Call&& call) {
  // rx/ry and the fusion flag are plain setters on Backend, so the driver
  // sets them on this decorator; hand them on before every forwarded call.
  inner_.set_rx_ry(rx(), ry());
  inner_.set_fused_operator_dot(fused_operator_dot());
  const machine::Counters before =
      machine::Instrumentation::global().snapshot();
  const Clock::time_point start = Clock::now();
  const auto finish = [&] {
    const Clock::time_point end = Clock::now();
    const double seconds = std::chrono::duration<double>(end - start).count();
    KernelStat& stat = ledger_.kernels[name];
    ++stat.calls;
    stat.seconds += seconds;
    stat.bytes +=
        (machine::Instrumentation::global().snapshot() - before).total_bytes();
    ledger_.kernel_seconds += seconds;
    if (in_solver_) ledger_.solver_kernel_seconds += seconds;
    if (spans_ != nullptr) spans_->record("backend", name, id_, start, end);
  };
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    finish();
  } else {
    auto result = call();
    finish();
    return result;
  }
}

void TimedBackend::setup(const tl::ProblemConfig& cfg) {
  timed("setup", [&] { inner_.setup(cfg); });
}
void TimedBackend::compute_coefficients(tl::CoefficientKind kind) {
  timed("compute_coefficients", [&] { inner_.compute_coefficients(kind); });
}
void TimedBackend::init_u_u0() {
  timed("init_u_u0", [&] { inner_.init_u_u0(); });
  in_solver_ = true;
  solver_start_ = Clock::now();
}
void TimedBackend::apply_operator(tea::FieldId in, tea::FieldId out) {
  timed("apply_operator", [&] { inner_.apply_operator(in, out); });
}
double TimedBackend::apply_operator_dot(tea::FieldId in, tea::FieldId out) {
  return timed("apply_operator_dot",
               [&] { return inner_.apply_operator_dot(in, out); });
}
void TimedBackend::compute_residual() {
  timed("compute_residual", [&] { inner_.compute_residual(); });
}
void TimedBackend::copy_field(tea::FieldId src, tea::FieldId dst) {
  timed("copy_field", [&] { inner_.copy_field(src, dst); });
}
void TimedBackend::scale_copy(tea::FieldId dst, tea::FieldId src, double s) {
  timed("scale_copy", [&] { inner_.scale_copy(dst, src, s); });
}
double TimedBackend::dot(tea::FieldId a, tea::FieldId b) {
  return timed("dot", [&] { return inner_.dot(a, b); });
}
void TimedBackend::axpy(tea::FieldId y, double a, tea::FieldId x) {
  timed("axpy", [&] { inner_.axpy(y, a, x); });
}
void TimedBackend::zaxpy(tea::FieldId p, double beta, tea::FieldId z) {
  timed("zaxpy", [&] { inner_.zaxpy(p, beta, z); });
}
void TimedBackend::precondition(tea::FieldId dst, tea::FieldId src) {
  timed("precondition", [&] { inner_.precondition(dst, src); });
}
void TimedBackend::smooth_update(tea::FieldId acc, tea::FieldId res,
                                 tea::FieldId w, tea::FieldId sd, double alpha,
                                 double beta) {
  timed("smooth_update",
        [&] { inner_.smooth_update(acc, res, w, sd, alpha, beta); });
}
double TimedBackend::jacobi_iterate() {
  return timed("jacobi_iterate", [&] { return inner_.jacobi_iterate(); });
}
tea::FieldSummary TimedBackend::field_summary() {
  return timed("field_summary", [&] { return inner_.field_summary(); });
}
void TimedBackend::update_halo(std::initializer_list<tea::FieldId> fields,
                               int depth) {
  timed("update_halo", [&] { inner_.update_halo(fields, depth); });
}
void TimedBackend::finalise() {
  if (in_solver_) {
    const Clock::time_point end = Clock::now();
    ledger_.solver_seconds +=
        std::chrono::duration<double>(end - solver_start_).count();
    if (spans_ != nullptr)
      spans_->record("solver", "solve", id_, solver_start_, end);
    in_solver_ = false;
  }
  timed("finalise", [&] { inner_.finalise(); });
}

}  // namespace pb
