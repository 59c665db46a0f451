// sibling_solver.hpp — other work in the process, for counter-isolation
// tests: a thread looping serial solves beside the code under test.
#pragma once

#include <atomic>
#include <thread>

#include "common/config.hpp"
#include "core/registry.hpp"
#include "results/sweep.hpp"

namespace test {

// Loops serial 64^2 solves on its own thread from construction (after the
// first one finishes) until destruction: other work in the process.
class SiblingSolver {
public:
  SiblingSolver() : thread_([this] { loop(); }) {
    while (solves_.load() == 0) std::this_thread::yield();
  }
  ~SiblingSolver() {
    stop_.store(true);
    thread_.join();
  }

  SiblingSolver(const SiblingSolver&) = delete;
  SiblingSolver& operator=(const SiblingSolver&) = delete;

private:
  void loop() {
    const tl::ProblemConfig problem = results::bench_problem(64, 2);
    while (!stop_.load()) {
      (void)tea::run_simulation("serial", problem);
      solves_.fetch_add(1);
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<long> solves_{0};
  std::thread thread_;  // last: starts once the flags exist
};

}  // namespace test
