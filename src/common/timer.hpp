// timer.hpp — the monotonic wall-clock stopwatch behind the repo's wall
// times: the driver's run time, service solve times, sweep timings and the
// replay driver's wall clock.
#pragma once

#include <chrono>

namespace tl {

/// Monotonic wall-clock stopwatch.
class StopWatch {
public:
  StopWatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace tl
