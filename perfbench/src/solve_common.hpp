// solve_common.hpp — what the solve workloads and the wire oracle share:
// the golden quantities of a solve, the physics and bitwise comparisons
// against a reference, and one direct solve timed from outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/config.hpp"
#include "core/driver.hpp"
#include "threading/thread_pool.hpp"
#include "trace.hpp"

namespace pb {

/// The quantities a solve is judged on.
struct Golden {
  bool converged = false;
  long iterations = 0;
  long inner_iterations = 0;
  double initial_rr = 0.0;
  double final_rr = 0.0;
  double temperature = 0.0;  // conserved-quantity summary after the last step
};

Golden golden_of(const tea::RunResult& run);

/// Every field equal, doubles compared bit for bit.
bool bitwise_equal(const Golden& a, const Golden& b);

/// Physics tolerance against a reference: same convergence, iteration
/// count within max(2, 2%), conserved temperature within 1e-6 relative.
/// On a miss, `why` says which quantity and by how much.
bool physics_match(const Golden& ref, const Golden& got, std::string* why);

/// One input of a workload, pinned under perfbench/decks so the benchmark's
/// inputs change only with the benchmark.
struct Deck {
  std::string name;
  tl::ProblemConfig problem;
};

/// Where the pinned decks live, relative to the checkout root the driver
/// runs from.
inline const char* const kDeckDir = "perfbench/decks";

/// The solve-dram deck: tea_bm_5 at 1536^2, 1 step, CG to 1e-5.
Deck dram_deck();

/// The small-deck population of solve-small and the traced wire phases:
/// the generator's default population (seed 1, 24-96 cells, mixed solvers
/// and preconditioners), 25 decks, as written by gen::write_population.
/// It is fixed rather than drawn from the run's seed: across generator
/// seeds 1-10 the cost of a 24-deck population varies 5x (0.19-0.99 s on
/// one thread) and its slowest deck ranges from 57 to 525 ms, so no metric
/// over it would repeat from seed to seed.  The run's seed orders the work
/// instead (see NOTES.md).  An odd count keeps a phase's p50 inside one
/// deck's band of latencies rather than on the edge between two.
std::vector<Deck> small_population();

/// Threads of every threaded solve, and ranks of the distributed one.
constexpr int kSolveThreads = 2;

/// Tracing context for a direct solve: the ledger the decorator fills and
/// where its spans go.
struct SolveTrace {
  LayerLedger ledger;
  SpanRecorder* spans = nullptr;
  std::uint64_t id = 1;
  double driver_seconds = 0.0;  // outside wall of every traced driver run
  long steps = 0;
  long iterations = 0;
};

/// A direct solve's result and its wall time seen from outside.
struct DirectSolve {
  tea::RunResult run;
  double seconds = 0.0;
};

/// One direct solve of `cfg` on `variant`: backend construction plus
/// TeaDriver::run (manual-mpi: tea::run_simulation on kSolveThreads
/// ranks), timed from outside as a whole, Backend::setup included.
/// Threaded shared-memory variants run on `pool`, or on the global pool for
/// the variants whose substrate owns its threads.  With `trace`, the
/// backend is wrapped in TimedBackend.
DirectSolve solve_direct(const std::string& variant,
                         const tl::ProblemConfig& cfg, tlp::ThreadPool& pool,
                         SolveTrace* trace = nullptr);

/// Backend construction plus Backend::setup, timed, for setup_s.
double time_setup(const std::string& variant, const tl::ProblemConfig& cfg,
                  tlp::ThreadPool& pool);

/// Per-layer solver and driver metrics from a trace, plus the share of the
/// driver wall that no layer accounts for (checked against `tolerance`).
void report_solver_layers(const SolveTrace& trace, double tolerance,
                          Outcome& out);

}  // namespace pb
