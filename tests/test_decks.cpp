// Deck-level integration tests: the shipped input decks must parse to the
// expected configurations, and the runnable ones must execute end-to-end
// with conserved physics.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config.hpp"
#include "core/registry.hpp"
#include "results/sweep.hpp"

namespace {

namespace fs = std::filesystem;

fs::path decks_dir() {
  // Tests run from the build tree; decks live in the source tree.
  for (fs::path p :
       {fs::path(TEA_SOURCE_DIR) / "examples" / "decks",
        fs::path("examples/decks"), fs::path("../examples/decks")}) {
    if (fs::exists(p)) return p;
  }
  return {};
}

TEST(Decks, AllShippedDecksParse) {
  const fs::path dir = decks_dir();
  ASSERT_FALSE(dir.empty()) << "decks directory not found";
  int parsed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".in") continue;
    EXPECT_NO_THROW({
      const tl::Config cfg = tl::Config::load(entry.path().string());
      EXPECT_GT(cfg.problem().x_cells, 0);
      EXPECT_FALSE(cfg.problem().states.empty());
    }) << entry.path();
    ++parsed;
  }
  EXPECT_GE(parsed, 8);
}

TEST(Decks, Bm1MatchesUpstreamShape) {
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_bm_1.in").string());
  EXPECT_EQ(cfg.problem().x_cells, 10);
  EXPECT_EQ(cfg.problem().end_step, 2);
  EXPECT_EQ(cfg.problem().solver, tl::SolverKind::kCg);
  EXPECT_DOUBLE_EQ(cfg.problem().eps, 1e-15);
  ASSERT_EQ(cfg.problem().states.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.problem().states[1].ymax, 2.0);
}

TEST(Decks, Bm5IsThePaperTable3Problem) {
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_bm_5.in").string());
  EXPECT_EQ(cfg.problem().x_cells, 4000);
  EXPECT_EQ(cfg.problem().y_cells, 4000);
  EXPECT_EQ(cfg.problem().end_step, 10);
}

TEST(Decks, Bm1RunsEndToEnd) {
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_bm_1.in").string());
  const auto run = tea::run_simulation("serial", cfg.problem());
  ASSERT_TRUE(run.all_converged());
  // Upstream bm_1 conserved quantities: mass = 20*0.1 + 80*100, ie likewise.
  EXPECT_NEAR(run.final_summary.mass, 8002.0, 1e-6);
  EXPECT_NEAR(run.final_summary.vol, 100.0, 1e-9);
  EXPECT_NEAR(run.final_summary.ie, 50.8, 1e-3);
}

// Expected painted totals, replicating the cell-centre painting rule in
// src/core/problem.cpp: later states overwrite earlier ones where they cover
// a cell's centre.
struct PaintedTotals {
  double mass = 0.0;
  double ie = 0.0;
};

PaintedTotals expected_totals(const tl::ProblemConfig& p) {
  PaintedTotals t;
  const double dx = p.dx();
  const double dy = p.dy();
  for (int j = 0; j < p.y_cells; ++j) {
    for (int i = 0; i < p.x_cells; ++i) {
      const double cx = p.xmin + (i + 0.5) * dx;
      const double cy = p.ymin + (j + 0.5) * dy;
      double density = 0.0, energy = 0.0;
      for (const tl::StateConfig& st : p.states) {
        bool inside = st.index == 1;
        switch (st.geometry) {
          case tl::Geometry::kRectangle:
            if (st.index > 1) {
              inside = cx >= st.xmin && cx < st.xmax && cy >= st.ymin &&
                       cy < st.ymax;
            }
            break;
          case tl::Geometry::kCircle:
            inside = std::hypot(cx - st.cx, cy - st.cy) <= st.radius;
            break;
          case tl::Geometry::kPoint:
            inside = st.cx >= cx - 0.5 * dx && st.cx < cx + 0.5 * dx &&
                     st.cy >= cy - 0.5 * dy && st.cy < cy + 0.5 * dy;
            break;
        }
        if (inside) {
          density = st.density;
          energy = st.energy;
        }
      }
      t.mass += density * dx * dy;
      t.ie += density * energy * dx * dy;
    }
  }
  return t;
}

TEST(Decks, CircleDeckConservesPaintedQuantities) {
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_circle.in").string());
  EXPECT_EQ(cfg.problem().states[1].geometry, tl::Geometry::kCircle);
  EXPECT_DOUBLE_EQ(cfg.problem().states[1].radius, 2.5);

  const PaintedTotals expected = expected_totals(cfg.problem());
  const auto run = tea::run_simulation("serial", cfg.problem());
  ASSERT_TRUE(run.all_converged());
  EXPECT_NEAR(run.final_summary.vol, 100.0, 1e-9);
  // Density is never modified, so mass must match the painted mass exactly;
  // internal energy is conserved by the reflective boundaries.
  EXPECT_NEAR(run.final_summary.mass, expected.mass, 1e-6 * expected.mass);
  EXPECT_NEAR(run.final_summary.ie, expected.ie, 1e-4 * expected.ie);
  // The circle must actually paint: a pure state-1 mesh would weigh
  // 100 * 100.0.
  EXPECT_LT(expected.mass, 100.0 * 100.0);

  // Cross-backend agreement on the same deck.
  const auto ops = tea::run_simulation("ops-omp", cfg.problem());
  ASSERT_TRUE(ops.all_converged());
  EXPECT_NEAR(ops.final_summary.temp, run.final_summary.temp,
              1e-7 * std::fabs(run.final_summary.temp));
}

TEST(Decks, PointDeckConservesPaintedQuantities) {
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_point.in").string());
  EXPECT_EQ(cfg.problem().states[1].geometry, tl::Geometry::kPoint);

  const tl::ProblemConfig& p = cfg.problem();
  const PaintedTotals expected = expected_totals(p);
  // Exactly one cell carries the point state: total mass differs from the
  // ambient mesh by (10.0 - 100.0) * cell volume.
  const double cell_vol = p.dx() * p.dy();
  EXPECT_NEAR(expected.mass, 100.0 * 100.0 + (10.0 - 100.0) * cell_vol, 1e-9);

  const auto run = tea::run_simulation("serial", p);
  ASSERT_TRUE(run.all_converged());
  EXPECT_NEAR(run.final_summary.vol, 100.0, 1e-9);
  EXPECT_NEAR(run.final_summary.mass, expected.mass, 1e-6 * expected.mass);
  EXPECT_NEAR(run.final_summary.ie, expected.ie, 1e-4 * expected.ie);
}

TEST(Decks, Bm16IsTheLargerSolverMatrixDeck) {
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_bm_16.in").string());
  EXPECT_EQ(cfg.problem().x_cells, 160);
  EXPECT_EQ(cfg.problem().y_cells, 160);
  EXPECT_EQ(cfg.problem().end_step, 10);
  EXPECT_EQ(cfg.problem().solver, tl::SolverKind::kCg);

  // Shrink the step count (not the mesh) and check conservation end-to-end.
  tl::ProblemConfig p = cfg.problem();
  p.end_step = 1;
  const PaintedTotals expected = expected_totals(p);
  const auto run = tea::run_simulation("serial", p);
  ASSERT_TRUE(run.all_converged());
  EXPECT_NEAR(run.final_summary.vol, 100.0, 1e-9);
  EXPECT_NEAR(run.final_summary.mass, expected.mass, 1e-6 * expected.mass);
  EXPECT_NEAR(run.final_summary.ie, expected.ie, 1e-4 * expected.ie);
}

TEST(Decks, AnisoDeckHasAnAnisotropicOperator) {
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_aniso.in").string());
  const tl::ProblemConfig& p0 = cfg.problem();
  // Square cell counts over a 4:1 domain: dx = 4*dy, so rx/ry = 1/16 — the
  // discrete conduction operator is strongly anisotropic.
  EXPECT_EQ(p0.x_cells, p0.y_cells);
  EXPECT_NEAR(p0.dx() / p0.dy(), 4.0, 1e-12);

  tl::ProblemConfig p = p0;
  p.end_step = 1;
  const PaintedTotals expected = expected_totals(p);
  const auto run = tea::run_simulation("serial", p);
  ASSERT_TRUE(run.all_converged());
  EXPECT_NEAR(run.final_summary.mass, expected.mass, 1e-6 * expected.mass);
  EXPECT_NEAR(run.final_summary.ie, expected.ie, 1e-4 * expected.ie);

  // Cross-backend agreement holds on the anisotropic operator too.
  const auto omp = tea::run_simulation("manual-omp", p);
  ASSERT_TRUE(omp.all_converged());
  EXPECT_NEAR(omp.final_summary.temp, run.final_summary.temp,
              1e-7 * std::fabs(run.final_summary.temp));
}

// --- parser robustness -------------------------------------------------------

/// Field-by-field equality of two parsed problems (the round-trip contract).
void expect_same_problem(const tl::ProblemConfig& a, const tl::ProblemConfig& b,
                         const std::string& context) {
  EXPECT_EQ(a.x_cells, b.x_cells) << context;
  EXPECT_EQ(a.y_cells, b.y_cells) << context;
  EXPECT_DOUBLE_EQ(a.xmin, b.xmin) << context;
  EXPECT_DOUBLE_EQ(a.xmax, b.xmax) << context;
  EXPECT_DOUBLE_EQ(a.ymin, b.ymin) << context;
  EXPECT_DOUBLE_EQ(a.ymax, b.ymax) << context;
  EXPECT_DOUBLE_EQ(a.initial_timestep, b.initial_timestep) << context;
  EXPECT_EQ(a.end_step, b.end_step) << context;
  EXPECT_EQ(a.solver, b.solver) << context;
  EXPECT_EQ(a.coefficient, b.coefficient) << context;
  EXPECT_EQ(a.preconditioner, b.preconditioner) << context;
  EXPECT_DOUBLE_EQ(a.eps, b.eps) << context;
  EXPECT_EQ(a.max_iters, b.max_iters) << context;
  EXPECT_EQ(a.ppcg_inner_steps, b.ppcg_inner_steps) << context;
  EXPECT_EQ(a.cheby_cg_presteps, b.cheby_cg_presteps) << context;
  EXPECT_EQ(a.check_result, b.check_result) << context;
  EXPECT_EQ(a.halo_depth, b.halo_depth) << context;
  ASSERT_EQ(a.states.size(), b.states.size()) << context;
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    const tl::StateConfig& sa = a.states[i];
    const tl::StateConfig& sb = b.states[i];
    EXPECT_EQ(sa.index, sb.index) << context;
    EXPECT_DOUBLE_EQ(sa.density, sb.density) << context;
    EXPECT_DOUBLE_EQ(sa.energy, sb.energy) << context;
    EXPECT_EQ(sa.geometry, sb.geometry) << context;
    EXPECT_DOUBLE_EQ(sa.xmin, sb.xmin) << context;
    EXPECT_DOUBLE_EQ(sa.xmax, sb.xmax) << context;
    EXPECT_DOUBLE_EQ(sa.ymin, sb.ymin) << context;
    EXPECT_DOUBLE_EQ(sa.ymax, sb.ymax) << context;
    EXPECT_DOUBLE_EQ(sa.cx, sb.cx) << context;
    EXPECT_DOUBLE_EQ(sa.cy, sb.cy) << context;
    EXPECT_DOUBLE_EQ(sa.radius, sb.radius) << context;
  }
}

TEST(Decks, AllShippedDecksRoundTripThroughToDeck) {
  // parse -> serialize -> parse is the identity on every typed field, for
  // every shipped deck (to_deck writes full precision and the complete
  // solver configuration, including preconditioner and inner-step counts).
  const fs::path dir = decks_dir();
  ASSERT_FALSE(dir.empty());
  int round_tripped = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".in") continue;
    const tl::Config first = tl::Config::load(entry.path().string());
    const std::string deck_text = tl::to_deck(first.problem());
    const tl::Config second = tl::Config::parse(deck_text);
    expect_same_problem(first.problem(), second.problem(),
                        entry.path().filename().string());
    // Serialization is a fixed point: one more lap changes nothing.
    EXPECT_EQ(tl::to_deck(second.problem()), deck_text) << entry.path();
    ++round_tripped;
  }
  EXPECT_GE(round_tripped, 8);
}

TEST(Decks, UnknownKeysAreRejectedEverywhere) {
  // Top-level directive.
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "warp_factor=9\n*endtea"),
               tl::ConfigError);
  // State attribute.
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1 "
                                 "viscosity=2\n*endtea"),
               tl::ConfigError);
  // Unknown geometry and preconditioner names.
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "state 2 density=1 energy=1 "
                                 "geometry=hexagon\n*endtea"),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "tl_preconditioner_type=ilu0\n*endtea"),
               tl::ConfigError);
  // Upstream-only keys stay accepted-and-ignored.
  EXPECT_NO_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                    "test_problem=5\nprofiler_on\n*endtea"));
}

TEST(Decks, MalformedValuesAreRejected) {
  const auto deck = [](const std::string& line) {
    return "*tea\nstate 1 density=1 energy=1\n" + line + "\n*endtea";
  };
  // Non-numeric and half-numeric values.
  EXPECT_THROW(tl::Config::parse(deck("x_cells=ten")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_eps=1.0e")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_eps=fast")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("end_step=2.5")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("check_result=maybe")), tl::ConfigError);
  // Doubled '=' and missing values.
  EXPECT_THROW(tl::Config::parse(deck("x_cells=4=5")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("x_cells")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_preconditioner_type")),
               tl::ConfigError);
  // Malformed state attributes.
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=abc energy=1\n*endtea"),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse("*tea\nstate one density=1 energy=1\n*endtea"),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density energy=1\n*endtea"),
               tl::ConfigError);
  // Semantic validation after a clean parse.
  EXPECT_THROW(tl::Config::parse(deck("x_cells=-4")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("halo_depth=0")), tl::ConfigError);
}

TEST(Decks, OutOfRangeIntegersAreRejected) {
  // Integer keys are stored as int.  4294967306 is 2^32 + 10: a narrowing
  // cast used to load it as 10 cells, solving a different problem under
  // the caller's label.
  std::ifstream file(decks_dir() / "tea_bm_1.in");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  std::string bm1 = text.str();
  const std::string cells = "x_cells=10";
  const auto at = bm1.find(cells);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(tl::Config::parse(bm1).problem().x_cells, 10);
  bm1.replace(at, cells.size(), "x_cells=4294967306");
  EXPECT_THROW(tl::Config::parse(bm1), tl::ConfigError);

  const auto deck = [](const std::string& line) {
    return "*tea\nstate 1 density=1 energy=1\n" + line + "\n*endtea";
  };
  for (const std::string key :
       {"x_cells", "y_cells", "end_step", "tl_max_iters",
        "tl_ppcg_inner_steps", "tl_cheby_cg_presteps", "halo_depth"}) {
    EXPECT_THROW(tl::Config::parse(deck(key + "=4294967306")),
                 tl::ConfigError)
        << key;
    EXPECT_THROW(tl::Config::parse(deck(key + "=-4294967306")),
                 tl::ConfigError)
        << key;
    EXPECT_THROW(tl::Config::parse(deck(key + "=99999999999999999999")),
                 tl::ConfigError)
        << key;
  }
  EXPECT_THROW(tl::Config::parse("*tea\nstate 4294967297 density=1 "
                                 "energy=1\n*endtea"),
               tl::ConfigError);
  // The int range itself still loads.
  EXPECT_EQ(tl::Config::parse(deck("tl_max_iters=2147483647"))
                .problem()
                .max_iters,
            2147483647);
}

TEST(Decks, NonFiniteValuesAreRejected) {
  // strtod happily parses "nan" and "inf", and NaN then sails through every
  // ordered sanity check (all comparisons are false), so the parser must
  // reject non-finite values explicitly — at the line that names them, not
  // as a solver blow-up ten minutes later.
  const auto deck = [](const std::string& line) {
    return "*tea\nstate 1 density=1 energy=1\n" + line + "\n*endtea";
  };
  EXPECT_THROW(tl::Config::parse(deck("xmax=nan")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("ymax=inf")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("xmin=-inf")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("initial_timestep=nan")),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_eps=inf")), tl::ConfigError);
  EXPECT_THROW(
      tl::Config::parse("*tea\nstate 1 density=nan energy=1\n*endtea"),
      tl::ConfigError);
  EXPECT_THROW(
      tl::Config::parse("*tea\nstate 1 density=1 energy=inf\n*endtea"),
      tl::ConfigError);
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "state 2 density=1 energy=1 geometry=circle "
                                 "xcentre=nan ycentre=5 radius=1\n*endtea"),
               tl::ConfigError);
}

TEST(Decks, UnphysicalValuesAreRejected) {
  const auto deck = [](const std::string& line) {
    return "*tea\nstate 1 density=1 energy=1\n" + line + "\n*endtea";
  };
  // Degenerate or inverted domain extents.
  EXPECT_THROW(tl::Config::parse(deck("xmin=10.0 xmax=10.0")),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("ymin=5.0 ymax=1.0")), tl::ConfigError);
  // Non-positive timestep, tolerance and iteration budgets.
  EXPECT_THROW(tl::Config::parse(deck("initial_timestep=0.0")),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("initial_timestep=-0.004")),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_eps=0.0")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_eps=-1e-10")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_max_iters=0")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("end_step=0")), tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_ppcg_inner_steps=0")),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse(deck("tl_cheby_cg_presteps=0")),
               tl::ConfigError);
  // Negative material energy.
  EXPECT_THROW(
      tl::Config::parse("*tea\nstate 1 density=1 energy=-1\n*endtea"),
      tl::ConfigError);
  // Zero-area painted regions: an empty rectangle, a zero-radius circle.
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "state 2 density=2 energy=2 "
                                 "geometry=rectangle xmin=1 xmax=1 ymin=0 "
                                 "ymax=2\n*endtea"),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "state 2 density=2 energy=2 "
                                 "geometry=rectangle xmin=0 xmax=2 ymin=3 "
                                 "ymax=1\n*endtea"),
               tl::ConfigError);
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "state 2 density=2 energy=2 geometry=circle "
                                 "xcentre=5 ycentre=5 radius=0\n*endtea"),
               tl::ConfigError);
  // The ambient state (index 1) covers everything and carries no geometry;
  // a point region has no area by construction.  Both stay accepted.
  EXPECT_NO_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                    "state 2 density=2 energy=2 "
                                    "geometry=point xcentre=5 ycentre=5\n"
                                    "*endtea"));
}

TEST(Decks, AnisoBenchProblemMatchesTheCommittedDeck) {
  // The figure benches cannot load deck files (no TEA_SOURCE_DIR), so the
  // anisotropic bench rows are built programmatically; this pins the two
  // constructions together so they cannot drift apart.
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_aniso.in").string());
  const tl::ProblemConfig& deck = cfg.problem();
  const tl::ProblemConfig built = results::aniso_bench_problem(
      deck.x_cells, deck.end_step, deck.eps);
  expect_same_problem(deck, built, "tea_aniso.in vs aniso_bench_problem");
}

TEST(Decks, PpcgPreconDeckExercisesExtensions) {
  const tl::Config cfg =
      tl::Config::load((decks_dir() / "tea_ppcg_precon.in").string());
  EXPECT_EQ(cfg.problem().solver, tl::SolverKind::kPpcg);
  EXPECT_EQ(cfg.problem().preconditioner, tl::PreconKind::kJacDiag);
  EXPECT_EQ(cfg.problem().coefficient, tl::CoefficientKind::kDensity);
  EXPECT_EQ(cfg.problem().ppcg_inner_steps, 12);
  // Run a shrunken version end-to-end on two backend families.
  auto p = cfg.problem();
  p.x_cells = 48;
  p.y_cells = 48;
  p.end_step = 1;
  const auto ref = tea::run_simulation("serial", p);
  const auto kk = tea::run_simulation("kokkos-omp", p);
  ASSERT_TRUE(ref.all_converged());
  ASSERT_TRUE(kk.all_converged());
  EXPECT_NEAR(kk.final_summary.temp, ref.final_summary.temp,
              1e-7 * std::fabs(ref.final_summary.temp));
}

}  // namespace
