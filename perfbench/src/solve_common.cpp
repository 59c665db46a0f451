#include "solve_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "core/registry.hpp"

namespace pb {

Golden golden_of(const tea::RunResult& run) {
  Golden g;
  g.converged = run.all_converged();
  g.iterations = run.total_iterations;
  for (const tea::StepResult& step : run.steps)
    g.inner_iterations += step.solve.inner_iterations;
  if (!run.steps.empty()) {
    g.initial_rr = run.steps.front().solve.initial_rr;
    g.final_rr = run.steps.back().solve.final_rr;
  }
  g.temperature = run.final_summary.temp;
  return g;
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

bool bitwise_equal(const Golden& a, const Golden& b) {
  return a.converged == b.converged && a.iterations == b.iterations &&
         a.inner_iterations == b.inner_iterations &&
         same_bits(a.initial_rr, b.initial_rr) &&
         same_bits(a.final_rr, b.final_rr) &&
         same_bits(a.temperature, b.temperature);
}

bool physics_match(const Golden& ref, const Golden& got, std::string* why) {
  char buf[200];
  if (ref.converged != got.converged) {
    *why = got.converged ? "converged where the reference did not"
                         : "did not converge";
    return false;
  }
  const long allowed = std::max(2L, std::lround(0.02 * ref.iterations));
  if (std::labs(got.iterations - ref.iterations) > allowed) {
    std::snprintf(buf, sizeof buf, "iterations %ld vs reference %ld",
                  got.iterations, ref.iterations);
    *why = buf;
    return false;
  }
  const double scale = std::max(std::fabs(ref.temperature), 1e-300);
  const double rel = std::fabs(got.temperature - ref.temperature) / scale;
  if (!(rel <= 1e-6)) {
    std::snprintf(buf, sizeof buf, "temperature %.17g vs reference %.17g",
                  got.temperature, ref.temperature);
    *why = buf;
    return false;
  }
  return true;
}

namespace {

Deck load_deck(const std::filesystem::path& path) {
  return Deck{path.stem().string(), tl::Config::load(path.string()).problem()};
}

}  // namespace

Deck dram_deck() {
  return load_deck(std::filesystem::path(kDeckDir) / "tea_bm_5_1536.in");
}

std::vector<Deck> small_population() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(kDeckDir) /
                                           "small"))
    if (entry.path().extension() == ".in") paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  if (paths.empty())
    throw tl::Error(std::string("no decks in ") + kDeckDir + "/small");
  std::vector<Deck> decks;
  for (const auto& path : paths) decks.push_back(load_deck(path));
  return decks;
}

namespace {

tlp::ThreadPool* pool_for(const std::string& variant, tlp::ThreadPool& pool) {
  return variant == "serial" ? nullptr : &pool;
}

}  // namespace

DirectSolve solve_direct(const std::string& variant,
                         const tl::ProblemConfig& cfg, tlp::ThreadPool& pool,
                         SolveTrace* trace) {
  const Clock::time_point start = Clock::now();
  if (tea::backend_is_distributed(variant)) {
    tea::RunOptions options;
    options.ranks = kSolveThreads;
    options.threads = kSolveThreads;
    tea::RunResult run = tea::run_simulation(variant, cfg, options);
    return {std::move(run), seconds_since(start)};
  }
  const auto backend =
      tea::make_backend(variant, pool_for(variant, pool), tea::RunOptions{});
  const tea::TeaDriver driver(cfg);
  if (trace == nullptr) {
    tea::RunResult run = driver.run(*backend);
    return {std::move(run), seconds_since(start)};
  }

  TimedBackend timed(*backend, trace->ledger, trace->spans, trace->id);
  const Clock::time_point driver_start = Clock::now();
  tea::RunResult run = driver.run(timed);
  const Clock::time_point end = Clock::now();
  trace->driver_seconds +=
      std::chrono::duration<double>(end - driver_start).count();
  trace->steps += static_cast<long>(run.steps.size());
  trace->iterations += run.total_iterations;
  if (trace->spans != nullptr)
    trace->spans->record("driver", "TeaDriver::run", trace->id, driver_start,
                         end);
  ++trace->id;
  return {std::move(run), std::chrono::duration<double>(end - start).count()};
}

double time_setup(const std::string& variant, const tl::ProblemConfig& cfg,
                  tlp::ThreadPool& pool) {
  const Clock::time_point start = Clock::now();
  const auto backend =
      tea::make_backend(variant, pool_for(variant, pool), tea::RunOptions{});
  backend->setup(cfg);
  return seconds_since(start);
}

void report_solver_layers(const SolveTrace& trace, double tolerance,
                          Outcome& out) {
  const LayerLedger& ledger = trace.ledger;
  const double setup = ledger.kernels.count("setup") != 0
                           ? ledger.kernels.at("setup").seconds
                           : 0.0;
  const double solver_self =
      ledger.solver_seconds - ledger.solver_kernel_seconds;
  const double driver_self =
      trace.driver_seconds - ledger.kernel_seconds - solver_self;
  out.set("solvers.iterations", static_cast<double>(trace.iterations), "count");
  out.set("solvers.us_per_iter",
          trace.iterations > 0 ? 1e6 * ledger.solver_seconds / trace.iterations
                               : 0.0,
          "us");
  out.set("solvers.self_s", solver_self, "s");
  out.set("driver.setup_s", setup, "s");
  out.set("driver.step_s",
          trace.steps > 0 ? (trace.driver_seconds - setup) / trace.steps : 0.0,
          "s");
  out.set("driver.self_s", driver_self, "s");

  // The named layers (backend calls, solver windows, driver) must account
  // for the outside wall of TeaDriver::run: what is left is time no span
  // covers.
  const double unattributed =
      trace.driver_seconds > 0 ? driver_self / trace.driver_seconds : 0.0;
  out.set("trace.unattributed_frac", unattributed, "fraction");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "parts: kernels %.4f s + solver self %.4f s + driver self "
                "%.4f s = %.4f s of %.4f s driver wall (unattributed %.2f%%, "
                "tolerance %.0f%%)",
                ledger.kernel_seconds, solver_self, driver_self,
                ledger.kernel_seconds + solver_self + driver_self,
                trace.driver_seconds, 100.0 * unattributed, 100.0 * tolerance);
  out.note(buf);
  if (!(std::fabs(unattributed) <= tolerance) || solver_self < 0.0)
    out.fail("traced layers do not account for the driver wall");
}

}  // namespace pb
