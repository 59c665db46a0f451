// instrumentation.hpp — execution counters collected by every backend while
// kernels actually run.  These play the role Intel VTune and nvprof play in
// the paper (§V: achieved GB/s and GFLOP/s): the roofline machine models turn
// the counts into projected times on the paper's systems.
//
// Counters are added once per kernel invocation (not per element), so the
// overhead in hot loops is one handful of relaxed atomic adds per launch.
//
// Counts go to the calling thread's counter sink (machine::sink()), bound
// for one execution the way simgpu::DeviceScope binds a device.  A charge
// reaches that sink and every ancestor up to Instrumentation::global(), so a
// CounterScope holds only its own execution's counts and global() stays the
// process-wide total.  Kernels charge on the dispatching thread, never in a
// pool worker's loop body, so pool dispatch binds nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace machine {

/// Plain snapshot of the counter set.
struct Counters {
  // Logical main-memory traffic in bytes, as a DRAM-side profiler would see.
  // Backends report per-kernel footprints; the tiled executor reports the
  // post-cache-reuse traffic it actually generates (see miniops/tiling).
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t flops = 0;

  std::int64_t kernel_launches = 0;    // device kernels / parallel regions
  std::int64_t reductions = 0;         // global reductions (dot products &c.)
  std::int64_t messages = 0;           // point-to-point messages
  std::int64_t message_bytes = 0;
  std::int64_t h2d_bytes = 0;          // host -> device copies
  std::int64_t d2h_bytes = 0;
  std::int64_t halo_exchanges = 0;
  std::int64_t solver_iterations = 0;

  std::int64_t total_bytes() const { return bytes_read + bytes_written; }

  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
  std::string to_string() const;
};

/// Thread-safe accumulating counter sink.  A sink built with the default
/// constructor is a child of global(); a charge is added to the sink and to
/// each of its ancestors.
class Instrumentation {
public:
  Instrumentation() : Instrumentation(&global()) {}
  explicit Instrumentation(Instrumentation* parent) : parent_(parent) {}

  /// Root sink: the process-wide total of every charge.
  static Instrumentation& global();

  void add_traffic(std::int64_t read_bytes, std::int64_t written_bytes,
                   std::int64_t flops) {
    add(kBytesRead, read_bytes);
    add(kBytesWritten, written_bytes);
    add(kFlops, flops);
  }
  void add_launch(std::int64_t n = 1) { add(kKernelLaunches, n); }
  void add_reduction(std::int64_t n = 1) { add(kReductions, n); }
  void add_message(std::int64_t bytes) {
    add(kMessages, 1);
    add(kMessageBytes, bytes);
  }
  void add_h2d(std::int64_t bytes) { add(kH2dBytes, bytes); }
  void add_d2h(std::int64_t bytes) { add(kD2hBytes, bytes); }
  void add_halo_exchange(std::int64_t n = 1) { add(kHaloExchanges, n); }
  void add_solver_iterations(std::int64_t n) { add(kSolverIterations, n); }

  Counters snapshot() const;

private:
  // One slot per Counters field, in declaration order.
  enum Field {
    kBytesRead, kBytesWritten, kFlops, kKernelLaunches, kReductions,
    kMessages, kMessageBytes, kH2dBytes, kD2hBytes, kHaloExchanges,
    kSolverIterations, kNumFields
  };

  void add(Field field, std::int64_t n) {
    for (Instrumentation* s = this; s != nullptr; s = s->parent_) {
      s->counts_[field].fetch_add(n, std::memory_order_relaxed);
    }
  }

  Instrumentation* const parent_;
  std::atomic<std::int64_t> counts_[kNumFields] = {};
};

/// The sink this thread charges: the innermost live SinkBinding's, or
/// global() when none is bound.  Every charge goes through this accessor.
Instrumentation& sink();

/// RAII thread-local binding: while alive, sink() on this thread returns
/// `bound`; destruction restores the previous binding (bindings nest).
class SinkBinding {
public:
  explicit SinkBinding(Instrumentation& bound);
  ~SinkBinding();

  SinkBinding(const SinkBinding&) = delete;
  SinkBinding& operator=(const SinkBinding&) = delete;

private:
  Instrumentation* previous_;
};

/// RAII capture of one execution's counts: a child of the thread's current
/// sink, bound to this thread while the scope lives.
class CounterScope {
public:
  CounterScope() : sink_(&sink()), binding_(sink_) {}

  /// Counts charged on this thread (or on threads bound to this scope's
  /// sink) since construction.
  Counters delta() const { return sink_.snapshot(); }

private:
  Instrumentation sink_;
  SinkBinding binding_;
};

}  // namespace machine
