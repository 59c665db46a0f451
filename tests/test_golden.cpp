// Golden numerics regression suite: freezes outer/inner iteration counts,
// final residuals and the conserved temperature sum for every solver on every
// shipped deck, against baselines committed in golden_cases.hpp (shared with
// the multi-rank suite).  Any kernel, threading or
// summation-order change that shifts the numerics beyond the tight tolerances
// here is a regression (or a deliberate re-baseline, which must be explained
// in the commit that regenerates the table).
//
// The baselines are produced by this binary itself:
//
//   TEA_GOLDEN_REGEN=1 ./test_golden --gtest_filter=Golden/GoldenCaseTest.*
//
// prints the kGolden table in C++ source form; paste it over the table in
// golden_cases.hpp.
// Regeneration uses the identical configuration code as the checks, so the
// frozen numbers can never drift from the harness that produced them.
//
// All cases run the "serial" backend: a fixed thread count (one) gives a
// fixed reduction order, which is what makes iteration counts exactly
// reproducible across machines with the same FP semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/config.hpp"
#include "core/registry.hpp"
#include "golden_cases.hpp"

namespace {

using golden::GoldenCase;
using golden::clamp_budgets;
using golden::decks_dir;
using golden::golden_config;
using golden::kConvergedResidualFactor;
using golden::kGolden;
using golden::kInitialRrRelTol;
using golden::kResidualRelTol;
using golden::kTempRelTol;

namespace fs = std::filesystem;

struct GoldenResult {
  long outer = 0;
  long inner = 0;
  bool converged = false;
  double initial_rr = 0.0;
  double final_rr = 0.0;
  double temp = 0.0;
};

GoldenResult run_case(const GoldenCase& c) {
  const tea::RunResult run = tea::run_simulation("serial", golden_config(c));
  GoldenResult g;
  g.outer = run.total_iterations;
  for (const tea::StepResult& s : run.steps) g.inner += s.solve.inner_iterations;
  g.converged = run.all_converged();
  g.initial_rr = run.steps.back().solve.initial_rr;
  g.final_rr = run.steps.back().solve.final_rr;
  g.temp = run.final_summary.temp;
  return g;
}

bool regen_mode() { return std::getenv("TEA_GOLDEN_REGEN") != nullptr; }

class GoldenCaseTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenCaseTest, MatchesCommittedBaseline) {
  const GoldenCase c = GetParam();
  ASSERT_FALSE(decks_dir().empty());

  // Sanity: the frozen budgets in the table must equal what clamp_budgets
  // derives, so a budget-rule edit cannot silently invalidate the table.
  int steps, max_iters;
  double eps;
  {
    const fs::path deck = decks_dir() / (std::string(c.deck) + ".in");
    const tl::ProblemConfig p = tl::Config::load(deck.string()).problem();
    clamp_budgets(c.deck, c.solver, p.end_step, p.eps, &steps, &eps,
                  &max_iters);
  }
  ASSERT_EQ(steps, c.steps) << "budget rule drifted; regenerate the table";
  ASSERT_EQ(eps, c.eps) << "budget rule drifted; regenerate the table";
  ASSERT_EQ(max_iters, c.max_iters) << "budget rule drifted; regenerate";

  const GoldenResult g = run_case(c);

  if (regen_mode()) {
    std::printf(
        "    {\"%s\", \"%s\", %d, %g, %d, %ld, %ld, %d, %.17g, %.17g, "
        "%.17g},\n",
        c.deck, c.solver, c.steps, c.eps, c.max_iters, g.outer, g.inner,
        g.converged ? 1 : 0, g.initial_rr, g.final_rr, g.temp);
    return;
  }

  EXPECT_EQ(g.outer, c.outer) << c.deck << "/" << c.solver;
  EXPECT_EQ(g.inner, c.inner) << c.deck << "/" << c.solver;
  EXPECT_EQ(g.converged, c.converged != 0) << c.deck << "/" << c.solver;
  EXPECT_NEAR(g.temp, c.temp, kTempRelTol * std::fabs(c.temp))
      << c.deck << "/" << c.solver;
  EXPECT_NEAR(g.initial_rr, c.initial_rr,
              kInitialRrRelTol * std::fabs(c.initial_rr))
      << c.deck << "/" << c.solver;
  if (c.converged != 0) {
    // The solver contract: the exit residual crossed the threshold at the
    // frozen iteration.  Freeze the bound exactly and the landing value to
    // within a two-sided order-of-magnitude band.
    EXPECT_LE(g.final_rr, c.eps * g.initial_rr * (1.0 + 1e-6))
        << c.deck << "/" << c.solver;
    if (c.final_rr > 0.0) {
      EXPECT_LE(g.final_rr, c.final_rr * kConvergedResidualFactor +
                                1.0e-6 * c.eps * c.initial_rr)
          << c.deck << "/" << c.solver;
      EXPECT_GE(g.final_rr, c.final_rr / kConvergedResidualFactor -
                                1.0e-6 * c.eps * c.initial_rr)
          << c.deck << "/" << c.solver;
    }
  } else {
    EXPECT_NEAR(g.final_rr, c.final_rr,
                kResidualRelTol * std::fabs(c.final_rr))
        << c.deck << "/" << c.solver;
  }
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return std::string(info.param.deck) + "_" + info.param.solver;
}

INSTANTIATE_TEST_SUITE_P(Golden, GoldenCaseTest, ::testing::ValuesIn(kGolden),
                         case_name);

// --- threaded determinism ----------------------------------------------------
//
// The determinism contract: every reduction sums each row through the fixed
// four-lane scheme (ref::row_reduce4) and folds the row partials in row
// order (tlp::fold_rows), so the threaded manual host backend must walk the
// *same* iteration trajectory as the serial reference — same outer/inner
// counts, same convergence flags, same conserved temperature — at any
// thread count (test_thread_count pins the bits).
class ThreadedGoldenCaseTest
    : public ::testing::TestWithParam<std::tuple<GoldenCase, int>> {};

TEST_P(ThreadedGoldenCaseTest, MatchesSerialGoldenTable) {
  const GoldenCase c = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  ASSERT_FALSE(decks_dir().empty());

  tea::RunOptions options;
  options.threads = threads;
  const tea::RunResult run =
      tea::run_simulation("manual-omp", golden_config(c), options);

  long inner = 0;
  for (const tea::StepResult& s : run.steps) inner += s.solve.inner_iterations;
  EXPECT_EQ(run.total_iterations, c.outer)
      << c.deck << "/" << c.solver << " @" << threads << " threads";
  EXPECT_EQ(inner, c.inner)
      << c.deck << "/" << c.solver << " @" << threads << " threads";
  EXPECT_EQ(run.all_converged(), c.converged != 0)
      << c.deck << "/" << c.solver << " @" << threads << " threads";
  EXPECT_NEAR(run.final_summary.temp, c.temp, kTempRelTol * std::fabs(c.temp))
      << c.deck << "/" << c.solver << " @" << threads << " threads";
  EXPECT_NEAR(run.steps.back().solve.initial_rr, c.initial_rr,
              kInitialRrRelTol * std::fabs(c.initial_rr))
      << c.deck << "/" << c.solver << " @" << threads << " threads";
}

std::string threaded_case_name(
    const ::testing::TestParamInfo<std::tuple<GoldenCase, int>>& info) {
  const GoldenCase& c = std::get<0>(info.param);
  return std::string(c.deck) + "_" + c.solver + "_t" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(GoldenThreads, ThreadedGoldenCaseTest,
                         ::testing::Combine(::testing::ValuesIn(kGolden),
                                            ::testing::Values(2, 4)),
                         threaded_case_name);

// The table must cover the full deck x solver matrix the suite advertises.
TEST(GoldenTable, CoversAllDecksAndSolvers) {
  const char* decks[] = {"tea_bm_1", "tea_bm_2", "tea_bm_16", "tea_aniso",
                         "tea_ppcg_precon", "tea_circle", "tea_point"};
  const char* solvers[] = {"jacobi", "cg", "chebyshev", "ppcg"};
  for (const char* d : decks) {
    for (const char* s : solvers) {
      bool found = false;
      for (const GoldenCase& c : kGolden) {
        if (std::string(c.deck) == d && std::string(c.solver) == s) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << d << "/" << s << " missing from golden table";
    }
  }
}

}  // namespace
