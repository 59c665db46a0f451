// bench.hpp — shared types of the perfbench driver: run arguments, the
// per-run outcome (correctness verdict, attempt counts, named metrics) and
// the order statistics every workload reports through.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";    // where trace exports and sockets go
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the verdict, the attempt ledger and the metrics.
/// `notes` are the human-readable lines printed above the JSON result
/// (sample counts, per-check verdicts, the known-defect mismatch count).
struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  long serial_mismatches = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank q-quantile of `v`, reported only when at least
/// `kMinBeyond` samples lie strictly above its rank (so a p95 needs 200
/// samples).  Returns false, leaving `out` alone, when the sample is too
/// small to support the percentile.
constexpr long kMinBeyond = 10;
bool percentile(std::vector<double> v, double q, double* out);

/// "p50=1.23 p95=4.56 (n=240)" style summary for the notes.
std::string describe(const std::vector<double>& v, double scale,
                     const std::string& unit);

/// setup_s as the median of a run's repeated set-ups, with a note giving
/// the count and range behind it.
void report_setup(const std::vector<double>& setups, Outcome& out);

class SpanRecorder;

/// The service and wire layers, measured per layer: the small population
/// sent to tead over a Unix socket in an open-loop lo (no queue) and hi
/// (a queue) phase.  Sets the service.*, net.* and loadgen.* metrics.
void trace_wire_layers(const Args& args, SpanRecorder& spans, Outcome& out);

Outcome run_solve_dram(const Args& args);
Outcome run_solve_small(const Args& args);

}  // namespace pb
