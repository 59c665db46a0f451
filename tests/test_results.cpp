// Tests for the results subsystem: JSON round-tripping, the content-
// addressed measurement cache (hit/miss semantics under RunOptions and
// problem changes), store merge, and the regression-gate verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "results/compare.hpp"
#include "results/json.hpp"
#include "results/result_store.hpp"
#include "results/sweep.hpp"
#include "validation/validation.hpp"

namespace {

// --- JSON ------------------------------------------------------------------

TEST(Json, ParseAndAccess) {
  const auto j = results::Json::parse(
      R"({"a": 1, "b": -2.5e3, "c": "x\n\"y\"", "d": [true, false, null], "e": {}})");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.get_int("a", 0), 1);
  EXPECT_DOUBLE_EQ(j.get_double("b", 0.0), -2500.0);
  EXPECT_EQ(j.get_string("c", ""), "x\n\"y\"");
  ASSERT_NE(j.get("d"), nullptr);
  ASSERT_EQ(j.get("d")->items().size(), 3u);
  EXPECT_TRUE(j.get("d")->items()[0].as_bool());
  EXPECT_TRUE(j.get("d")->items()[2].is_null());
  EXPECT_TRUE(j.get("e")->is_object());
  EXPECT_EQ(j.get("missing"), nullptr);
}

TEST(Json, RoundTripPreservesValuesAndKeyOrder) {
  results::Json obj = results::Json::object();
  obj.set("zeta", results::Json(std::int64_t{9007199254740993}));
  obj.set("alpha", results::Json(0.1));
  obj.set("text", results::Json("tabs\tand\\slashes"));
  results::Json arr = results::Json::array();
  arr.push_back(results::Json(1));
  arr.push_back(results::Json(2.25));
  obj.set("arr", std::move(arr));

  const auto back = results::Json::parse(obj.dump(2));
  // Large int64 survives exactly (doubles would lose the low bit).
  EXPECT_EQ(back.get_int("zeta", 0), 9007199254740993LL);
  EXPECT_DOUBLE_EQ(back.get_double("alpha", 0.0), 0.1);
  EXPECT_EQ(back.get_string("text", ""), "tabs\tand\\slashes");
  // First-insertion key order is preserved through dump/parse.
  EXPECT_EQ(back.members()[0].first, "zeta");
  EXPECT_EQ(back.members()[3].first, "arr");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(results::Json::parse("{"), tl::ConfigError);
  EXPECT_THROW(results::Json::parse("[1,]"), tl::ConfigError);
  EXPECT_THROW(results::Json::parse("{\"a\" 1}"), tl::ConfigError);
  EXPECT_THROW(results::Json::parse("1 2"), tl::ConfigError);
}

TEST(Json, NestingDepthIsCappedNotAStackOverflow) {
  // 1 MiB of '[' used to recurse once per byte and die with SIGSEGV;
  // nested objects took the same path.
  std::string objects;
  while (objects.size() < (std::size_t(1) << 20)) objects += "{\"k\":";
  for (const std::string& deep :
       {std::string(std::size_t(1) << 20, '['), objects}) {
    try {
      results::Json::parse(deep);
      FAIL() << "parsed 1 MiB of nesting starting " << deep.substr(0, 8);
    } catch (const tl::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos)
          << e.what();
    }
  }
  // Nesting right at the cap still parses; one more level is refused.
  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(results::Json::parse(nested(64)));
  EXPECT_THROW(results::Json::parse(nested(65)), tl::ConfigError);
}

TEST(Json, RejectsMalformedNumbers) {
  for (const char* bad : {"[1-2]", "[1.2.3]", "[+1]", "[1.]", "[.5]", "[1e]",
                          "[1e+]", "[--1]", "[-]"}) {
    EXPECT_THROW(results::Json::parse(bad), tl::ConfigError) << bad;
  }
  // The shapes the store actually writes still parse.
  const auto ok = results::Json::parse("[-3.2177500000000049e-05, 1e+100, 0, -7]");
  EXPECT_DOUBLE_EQ(ok.items()[0].as_double(), -3.2177500000000049e-05);
  EXPECT_DOUBLE_EQ(ok.items()[1].as_double(), 1e100);
  EXPECT_EQ(ok.items()[2].as_int(), 0);
  EXPECT_EQ(ok.items()[3].as_int(), -7);
}

TEST(Json, UnicodeEscapes) {
  // BMP escape, and a surrogate pair combining to U+1F600 (4-byte UTF-8).
  const auto j = results::Json::parse("[\"\\u00e9\", \"\\ud83d\\ude00\"]");
  EXPECT_EQ(j.items()[0].as_string(), "\xc3\xa9");
  EXPECT_EQ(j.items()[1].as_string(), "\xf0\x9f\x98\x80");
  // Lone surrogates would be invalid UTF-8: rejected.
  EXPECT_THROW(results::Json::parse(R"(["\ud83d"])"), tl::ConfigError);
  EXPECT_THROW(results::Json::parse(R"(["\ude00"])"), tl::ConfigError);
  EXPECT_THROW(results::Json::parse(R"(["\ud83dx"])"), tl::ConfigError);
}

// --- store round-trip ------------------------------------------------------

results::ResultRow sample_row(const std::string& variant, double seconds) {
  results::ResultRow r;
  r.variant = variant;
  r.platform = "host";
  r.deck = "bench-64";
  r.mesh_x = r.mesh_y = 64;
  r.steps = 2;
  r.solver = "cg";
  r.eps = 1e-15;
  r.ranks = 4;
  r.timing = results::TimingStats::from_samples({seconds, seconds * 1.5,
                                                 seconds * 1.2});
  r.iterations = 128;
  r.inner_iterations = 12;
  r.converged = true;
  r.working_set_bytes = 1 << 20;
  r.counters.bytes_read = 123456789012345LL;
  r.counters.flops = 42;
  r.projections.push_back({"xeon", 1.25, 100.0, 9.5});
  r.toolchain = "-O3";
  r.git_rev = "abc1234";
  r.timestamp = "2026-07-26T00:00:00Z";
  r.key = "key-" + variant;
  return r;
}

TEST(ResultStore, JsonRoundTrip) {
  results::ResultStore store;
  store.put(sample_row("manual-omp", 0.5));
  store.put(sample_row("ops-tiled", 0.25));

  const results::ResultStore back =
      results::ResultStore::from_json(store.to_json());
  ASSERT_EQ(back.size(), 2u);
  const results::ResultRow* row = back.find("key-manual-omp");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->variant, "manual-omp");
  EXPECT_EQ(row->deck, "bench-64");
  EXPECT_EQ(row->mesh_x, 64);
  EXPECT_EQ(row->solver, "cg");
  EXPECT_DOUBLE_EQ(row->eps, 1e-15);
  ASSERT_EQ(row->timing.samples_s.size(), 3u);
  EXPECT_DOUBLE_EQ(row->timing.min_s, 0.5);
  EXPECT_DOUBLE_EQ(row->timing.median_s, 0.6);
  EXPECT_EQ(row->iterations, 128);
  EXPECT_EQ(row->inner_iterations, 12);
  EXPECT_TRUE(row->converged);
  EXPECT_EQ(row->counters.bytes_read, 123456789012345LL);
  ASSERT_EQ(row->projections.size(), 1u);
  EXPECT_EQ(row->projections[0].machine, "xeon");
  EXPECT_DOUBLE_EQ(row->projections[0].seconds, 1.25);
  EXPECT_EQ(row->git_rev, "abc1234");
}

TEST(ResultStore, SchemaVersionIsEnforced) {
  EXPECT_THROW(
      results::ResultStore::from_json(R"({"schema_version": 999, "rows": []})"),
      tl::ConfigError);
  EXPECT_THROW(results::ResultStore::from_json(R"([1,2,3])"), tl::Error);
}

TEST(ResultStore, LoadOfMissingFileYieldsEmptyStore) {
  const results::ResultStore store =
      results::ResultStore::load("does_not_exist_12345.json");
  EXPECT_EQ(store.size(), 0u);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> dir_entries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    names.push_back(entry.path().filename().string());
  return names;
}

// Persisted state survives a failed save: a save that dies part-way (here
// the process file-size limit stops the write, as a full disk would) leaves
// the previous file byte-identical and no temp file behind.
TEST(ResultStore, FailedSaveKeepsThePreviousFileAndNoTemp) {
  std::string dir = testing::TempDir() + "atomic_save_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/store.json";
  results::ResultStore before;
  before.put(sample_row("manual-omp", 0.5));
  before.save(path);
  const std::string saved = read_file(path);

  results::ResultStore bigger = before;
  for (int i = 0; i < 200; ++i)
    bigger.put(sample_row("variant-" + std::to_string(i), 0.1));
  ASSERT_GT(bigger.to_json().size(), 4 * saved.size());

  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &original), 0);
  rlimit capped = original;
  capped.rlim_cur = static_cast<rlim_t>(2 * saved.size());
  const auto previous_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  EXPECT_THROW(bigger.save(path), tl::Error);
  ::setrlimit(RLIMIT_FSIZE, &original);
  std::signal(SIGXFSZ, previous_handler);

  EXPECT_EQ(read_file(path), saved);
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"store.json"});

  // Uncapped, the same save replaces the file whole.
  bigger.save(path);
  EXPECT_EQ(read_file(path), bigger.to_json());
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"store.json"});
  std::filesystem::remove_all(dir);
}

TEST(TimingStats, MinMedianStddev) {
  const auto s = results::TimingStats::from_samples({3.0, 1.0, 2.0, 10.0});
  EXPECT_DOUBLE_EQ(s.min_s, 1.0);
  EXPECT_DOUBLE_EQ(s.median_s, 2.5);
  EXPECT_DOUBLE_EQ(s.mean_s, 4.0);
  EXPECT_NEAR(s.stddev_s, 3.5355339, 1e-6);
  const auto single = results::TimingStats::from_samples({2.0});
  EXPECT_DOUBLE_EQ(single.median_s, 2.0);
  EXPECT_DOUBLE_EQ(single.stddev_s, 0.0);
}

// --- content-addressed cache ----------------------------------------------

TEST(MeasurementKey, SensitiveToVariantProblemAndOptions) {
  const tl::ProblemConfig problem = results::bench_problem(48, 1, 1e-8);
  const tea::RunOptions options;
  const std::string base = results::measurement_key("serial", problem, options);
  EXPECT_EQ(base, results::measurement_key("serial", problem, options))
      << "key must be deterministic";

  EXPECT_NE(base, results::measurement_key("manual-omp", problem, options));

  tea::RunOptions more_ranks = options;
  more_ranks.ranks = 8;
  EXPECT_NE(base, results::measurement_key("serial", problem, more_ranks));

  tea::RunOptions tiled = options;
  tiled.tile.tile_rows = 16;
  EXPECT_NE(base, results::measurement_key("serial", problem, tiled));

  tl::ProblemConfig tighter = problem;
  tighter.eps = 1e-10;
  EXPECT_NE(base, results::measurement_key("serial", tighter, options));

  tl::ProblemConfig other_solver = problem;
  other_solver.solver = tl::SolverKind::kJacobi;
  EXPECT_NE(base, results::measurement_key("serial", other_solver, options));
}

TEST(Measure, CacheHitSkipsExecutionAndOptionsChangeMisses) {
  results::ResultStore store;
  results::MeasureSpec spec;
  spec.variant = "serial";
  spec.deck_label = "unit";
  spec.problem = results::bench_problem(32, 1, 1e-8);
  spec.samples = 2;

  const results::ResultRow first = results::measure(store, spec);
  EXPECT_EQ(store.misses(), 1);
  EXPECT_EQ(store.hits(), 0);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(first.converged);
  EXPECT_GT(first.iterations, 0);
  ASSERT_EQ(first.timing.samples_s.size(), 2u);
  EXPECT_FALSE(first.projections.empty());
  EXPECT_EQ(first.deck_hash, results::problem_hash(spec.problem));

  // Identical spec: pure cache hit, stored values returned verbatim.
  const results::ResultRow again = results::measure(store, spec);
  EXPECT_EQ(store.misses(), 1);
  EXPECT_EQ(store.hits(), 1);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(again.timing.median_s, first.timing.median_s);
  EXPECT_EQ(again.timestamp, first.timestamp);

  // A RunOptions change is a different measurement.
  spec.options.threads = 2;
  const results::ResultRow threaded = results::measure(store, spec);
  EXPECT_EQ(store.misses(), 2);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(threaded.key, first.key);

  // So is a problem change.
  spec.problem.end_step = 2;
  (void)results::measure(store, spec);
  EXPECT_EQ(store.misses(), 3);
  EXPECT_EQ(store.size(), 3u);
}

// --- merge -----------------------------------------------------------------

TEST(ResultStore, MergePrefersIncomingRows) {
  results::ResultStore a;
  a.put(sample_row("manual-omp", 0.5));
  a.put(sample_row("ops-omp", 0.4));

  results::ResultStore b;
  results::ResultRow updated = sample_row("manual-omp", 0.1);  // same key
  b.put(updated);
  b.put(sample_row("raja-omp", 0.3));

  const std::size_t changed = a.merge(b);
  EXPECT_EQ(changed, 2u);
  EXPECT_EQ(a.size(), 3u);
  // The incoming row replaced the resident one.
  EXPECT_DOUBLE_EQ(a.find("key-manual-omp")->timing.min_s, 0.1);
  EXPECT_NE(a.find("key-raja-omp"), nullptr);
  EXPECT_NE(a.find("key-ops-omp"), nullptr);
}

// --- regression gate -------------------------------------------------------

TEST(RegressionGate, PassFailAndMissingBaselineVerdicts) {
  results::ResultStore baseline;
  baseline.put(sample_row("manual-omp", 1.0));  // min 1.0
  baseline.put(sample_row("ops-omp", 1.0));

  results::ResultStore current;
  current.put(sample_row("manual-omp", 1.05));  // +5%: inside tolerance
  current.put(sample_row("ops-omp", 1.5));      // +50%: regression
  current.put(sample_row("raja-omp", 0.2));     // not in baseline

  const results::GateReport report =
      results::regression_gate(baseline, current, 0.25);
  EXPECT_EQ(report.passed, 1);
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.missing, 1);
  EXPECT_FALSE(report.ok());

  ASSERT_EQ(report.results.size(), 3u);
  for (const results::GateResult& g : report.results) {
    if (g.variant == "manual-omp") {
      EXPECT_EQ(g.verdict, results::GateVerdict::kPass);
      EXPECT_NEAR(g.rel_delta, 0.05, 1e-9);
    } else if (g.variant == "ops-omp") {
      EXPECT_EQ(g.verdict, results::GateVerdict::kFail);
      EXPECT_NEAR(g.rel_delta, 0.5, 1e-9);
    } else {
      EXPECT_EQ(g.verdict, results::GateVerdict::kMissingBaseline);
    }
  }

  // Faster-than-baseline and equal-to-baseline both pass.
  const results::GateReport relaxed =
      results::regression_gate(baseline, baseline, 0.0);
  EXPECT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed.failed, 0);

  // A baseline row with no usable timing cannot vouch for anything: it is
  // reported as missing, not as a pass.
  results::ResultStore corrupt;
  results::ResultRow empty = sample_row("manual-omp", 1.0);
  empty.timing = results::TimingStats::from_samples({});
  corrupt.put(empty);
  const results::GateReport degenerate =
      results::regression_gate(corrupt, current, 0.25);
  for (const results::GateResult& g : degenerate.results) {
    if (g.variant == "manual-omp") {
      EXPECT_EQ(g.verdict, results::GateVerdict::kMissingBaseline);
    }
  }
}

TEST(RegressionGate, CountersComparedExactlyWhenRequested) {
  results::ResultStore baseline;
  baseline.put(sample_row("manual-omp", 1.0));
  baseline.put(sample_row("ops-omp", 1.0));
  baseline.put(sample_row("raja-omp", 1.0));

  results::ResultStore current;
  current.put(sample_row("manual-omp", 1.0));  // identical: pass
  results::ResultRow drifted = sample_row("ops-omp", 1.0);  // same time...
  drifted.counters.kernel_launches += 7;  // ...but different work
  current.put(drifted);
  results::ResultRow extra_iters = sample_row("raja-omp", 1.0);
  extra_iters.iterations += 1;
  current.put(extra_iters);

  // Without the flag the counter drift is invisible.
  EXPECT_TRUE(results::regression_gate(baseline, current, 0.25).ok());

  results::GateOptions options;
  options.rel_tolerance = 0.25;
  options.compare_counters = true;
  const results::GateReport strict =
      results::regression_gate(baseline, current, options);
  EXPECT_EQ(strict.passed, 1);
  EXPECT_EQ(strict.failed, 2);
  for (const results::GateResult& g : strict.results) {
    if (g.variant == "manual-omp") {
      EXPECT_EQ(g.verdict, results::GateVerdict::kPass);
      EXPECT_TRUE(g.counter_mismatch.empty());
    } else if (g.variant == "ops-omp") {
      EXPECT_EQ(g.verdict, results::GateVerdict::kFail);
      EXPECT_NE(g.counter_mismatch.find("kernel_launches"), std::string::npos)
          << g.counter_mismatch;
    } else {
      EXPECT_EQ(g.verdict, results::GateVerdict::kFail);
      EXPECT_NE(g.counter_mismatch.find("iterations"), std::string::npos)
          << g.counter_mismatch;
    }
  }
}

// --- sweep matrix ----------------------------------------------------------

TEST(Sweep, DefaultMatrixCoversPaperVariantsAndNewDecks) {
  const results::SweepConfig config = results::default_sweep(256, 5, 3);
  EXPECT_EQ(config.variants.size(), 16u);
  ASSERT_EQ(config.problems.size(), 1u);
  EXPECT_EQ(config.problems[0].label, "bench-256");
  EXPECT_EQ(config.problems[0].problem.x_cells, 256);

  const auto& decks = results::sweep_deck_names();
  EXPECT_NE(std::find(decks.begin(), decks.end(), "tea_circle"), decks.end());
  EXPECT_NE(std::find(decks.begin(), decks.end(), "tea_point"), decks.end());
}

TEST(Sweep, DeckSweepRowsAreFoundByTheValidationJoin) {
  // The `tea_sweep run --decks` path end-to-end: load shipped decks through
  // the shared helper, sweep them into a store, and prove the validation
  // subsystem consumes the rows (the join finds them and the calibration
  // fits from them) — closing the "--decks rows unconsumed" note from PR 2.
  std::vector<std::string> skipped;
  results::SweepConfig config;
  config.variants = {"serial", "manual-omp"};
  config.problems = results::load_deck_problems(
      std::string(TEA_SOURCE_DIR) + "/examples/decks",
      {"tea_bm_1", "tea_point"}, &skipped);
  config.samples = 1;
  ASSERT_EQ(config.problems.size(), 2u) << "decks failed to load";
  EXPECT_TRUE(skipped.empty());
  // Keep the point deck tiny: the sweep runs for real below.
  for (results::SweepProblem& sp : config.problems) {
    sp.problem.x_cells = std::min(sp.problem.x_cells, 32);
    sp.problem.y_cells = std::min(sp.problem.y_cells, 32);
    sp.problem.end_step = 1;
  }

  results::ResultStore store;
  const results::SweepOutcome outcome = results::run_sweep(store, config);
  EXPECT_EQ(outcome.measured, 4);  // 2 variants x 2 decks

  // The join: select_rows resolves the deck rows by content-addressed key.
  std::vector<std::string> missing;
  const auto rows = results::select_rows(store, config, {}, &missing);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_TRUE(missing.empty());
  for (const results::ResultRow& r : rows) {
    EXPECT_TRUE(r.deck == "tea_bm_1" || r.deck == "tea_point") << r.deck;
    EXPECT_GT(r.iterations, 0);
    EXPECT_GT(r.counters.total_bytes(), 0);
  }

  // The consumption: validate() feeds every deck row into the host
  // calibration and reports it by name.
  validation::ValidationOptions options;
  const validation::ValidationReport report =
      validation::validate(store, options);
  ASSERT_EQ(report.deck_rows.size(), 4u);
  EXPECT_NE(std::find(report.deck_rows.begin(), report.deck_rows.end(),
                      "tea_bm_1/serial"),
            report.deck_rows.end());
  EXPECT_NE(std::find(report.deck_rows.begin(), report.deck_rows.end(),
                      "tea_point/manual-omp"),
            report.deck_rows.end());
  ASSERT_TRUE(report.calibration.ok) << report.calibration.note;
  EXPECT_EQ(report.calibration.rows_used, 4);
  EXPECT_GT(report.calibration.fitted_bw_gbs, 0.0);
}

TEST(Sweep, LoadDeckProblemsReportsUnreadableDecks) {
  std::vector<std::string> skipped;
  const auto problems = results::load_deck_problems(
      "/nonexistent-deck-dir", {"tea_bm_1"}, &skipped);
  EXPECT_TRUE(problems.empty());
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_NE(skipped[0].find("tea_bm_1"), std::string::npos);
}

TEST(Sweep, RunSweepThenSelectRowsRoundTrip) {
  results::SweepConfig config;
  config.variants = {"serial", "manual-omp"};
  config.problems.push_back({"unit", results::bench_problem(32, 1, 1e-8)});
  config.samples = 1;

  results::ResultStore store;
  const results::SweepOutcome first = results::run_sweep(store, config);
  EXPECT_EQ(first.measured, 2);
  EXPECT_EQ(first.cached, 0);

  // Re-running the sweep is a no-op on the store.
  const results::SweepOutcome second = results::run_sweep(store, config);
  EXPECT_EQ(second.measured, 0);
  EXPECT_EQ(second.cached, 2);
  EXPECT_EQ(store.size(), 2u);

  std::vector<std::string> missing;
  const auto rows = results::select_rows(store, config, {}, &missing);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE(missing.empty());

  // Projection from stored rows alone produces usable paper-mesh times.
  results::ProjectionSpec spec;
  spec.paper_mesh = 1000;
  spec.paper_steps = 10;
  spec.machines = {"xeon", "knl"};
  const auto projected = results::project_rows(rows, spec);
  ASSERT_EQ(projected.size(), 2u);
  for (const auto& pv : projected) {
    EXPECT_GT(pv.projected_iterations, 0);
    for (const double s : pv.seconds) EXPECT_GT(s, 0.0);
  }
}

}  // namespace
