#include "machine/instrumentation.hpp"

#include <iterator>
#include <sstream>

namespace machine {

namespace {
// Counters' fields in declaration order (Instrumentation's slot order).
constexpr std::int64_t Counters::*kFields[] = {
    &Counters::bytes_read,      &Counters::bytes_written,
    &Counters::flops,           &Counters::kernel_launches,
    &Counters::reductions,      &Counters::messages,
    &Counters::message_bytes,   &Counters::h2d_bytes,
    &Counters::d2h_bytes,       &Counters::halo_exchanges,
    &Counters::solver_iterations};
}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  for (const auto field : kFields) this->*field += o.*field;
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  for (const auto field : kFields) d.*field -= o.*field;
  return d;
}

std::string Counters::to_string() const {
  std::ostringstream os;
  os << "bytes_read=" << bytes_read << " bytes_written=" << bytes_written
     << " flops=" << flops << " launches=" << kernel_launches
     << " reductions=" << reductions << " messages=" << messages
     << " message_bytes=" << message_bytes << " h2d=" << h2d_bytes
     << " d2h=" << d2h_bytes << " halo_exchanges=" << halo_exchanges
     << " solver_iterations=" << solver_iterations;
  return os.str();
}

Instrumentation& Instrumentation::global() {
  static Instrumentation root(nullptr);
  return root;
}

Counters Instrumentation::snapshot() const {
  static_assert(std::size(kFields) == kNumFields);
  Counters c;
  for (int i = 0; i < kNumFields; ++i) {
    c.*kFields[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return c;
}

namespace {
thread_local Instrumentation* bound_sink = nullptr;
}  // namespace

Instrumentation& sink() {
  return bound_sink != nullptr ? *bound_sink : Instrumentation::global();
}

SinkBinding::SinkBinding(Instrumentation& bound) : previous_(bound_sink) {
  bound_sink = &bound;
}

SinkBinding::~SinkBinding() { bound_sink = previous_; }

}  // namespace machine
