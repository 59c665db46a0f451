// test_perfbench.cpp — the benchmark's own checks: its timing layer must
// not change what it times, its parts must add up, and its load and
// percentile rules must hold.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/registry.hpp"
#include "gen/generator.hpp"
#include "loadgen.hpp"
#include "results/json.hpp"
#include "solve_common.hpp"
#include "trace.hpp"

namespace {

std::vector<gen::GeneratedDeck> population(std::uint64_t seed, int count) {
  gen::GenOptions options;
  options.seed = seed;
  options.count = count;
  return gen::generate(options);
}

TEST(PoissonSchedule, SameSeedSameScheduleAndExactRate) {
  const auto a = pb::poisson_schedule(7, 40.0, 240, 24);
  const auto b = pb::poisson_schedule(7, 40.0, 240, 24);
  const auto c = pb::poisson_schedule(8, 40.0, 240, 24);
  ASSERT_EQ(a.size(), 240u);
  std::vector<int> per_deck(24, 0);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset_s, b[i].offset_s);
    EXPECT_EQ(a[i].deck, b[i].deck);
    EXPECT_LT(a[i].deck, 24u);
    EXPECT_GE(a[i].offset_s, 0.0);
    EXPECT_LT(a[i].offset_s, 240 / 40.0);
    ++per_deck[a[i].deck];
    if (i > 0) EXPECT_LE(a[i - 1].offset_s, a[i].offset_s);
    differs = differs || a[i].offset_s != c[i].offset_s;
  }
  EXPECT_TRUE(differs);
  for (int count : per_deck) EXPECT_EQ(count, 10);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  double p = 0.0;
  EXPECT_FALSE(pb::percentile(v, 0.95, &p));
  v.push_back(200);
  ASSERT_TRUE(pb::percentile(v, 0.95, &p));
  EXPECT_EQ(p, 190.0);
  ASSERT_TRUE(pb::percentile(v, 0.50, &p));
  EXPECT_EQ(p, 100.0);
  EXPECT_EQ(pb::median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

// Every shared-memory variant the benchmark times gives bit-identical
// results with and without the TimedBackend decorator.
TEST(TimedBackend, TracedResultsAreBitwiseIdentical) {
  tlp::ThreadPool pool(pb::kSolveThreads);
  for (const char* variant :
       {"serial", "manual-omp", "ops-omp", "kokkos-omp", "raja-omp"}) {
    for (const gen::GeneratedDeck& deck : population(5, 6)) {
      pb::SolveTrace trace;
      const pb::DirectSolve plain_solve =
          pb::solve_direct(variant, deck.problem, pool);
      const pb::Golden plain = pb::golden_of(plain_solve.run);
      const pb::Golden traced = pb::golden_of(
          pb::solve_direct(variant, deck.problem, pool, &trace).run);
      EXPECT_TRUE(pb::bitwise_equal(plain, traced))
          << variant << " on " << deck.name;
      EXPECT_GT(trace.ledger.kernels["setup"].calls, 0);
      EXPECT_GT(trace.ledger.solver_seconds, 0.0);
      EXPECT_EQ(trace.iterations, plain.iterations);
      // The outside time holds the driver's own timed region.
      EXPECT_GE(plain_solve.seconds, plain_solve.run.wall_seconds);
    }
  }
}

// Driver self + solver self + kernels reproduce the outside wall, and the
// named layers leave at most 5% of a mid-sized solve unattributed.
TEST(TimedBackend, LayerPartsSumToDriverWall) {
  tl::ProblemConfig cfg = population(3, 1).front().problem;
  cfg.x_cells = cfg.y_cells = 192;
  tlp::ThreadPool pool(pb::kSolveThreads);
  pb::SolveTrace trace;
  pb::solve_direct("manual-omp", cfg, pool, &trace);
  const pb::LayerLedger& l = trace.ledger;
  const double solver_self = l.solver_seconds - l.solver_kernel_seconds;
  const double driver_self =
      trace.driver_seconds - l.kernel_seconds - solver_self;
  EXPECT_GE(solver_self, 0.0);
  EXPECT_GE(driver_self, 0.0);
  EXPECT_LE(driver_self, 0.05 * trace.driver_seconds);
  double kernels = 0.0;
  for (const auto& entry : l.kernels) kernels += entry.second.seconds;
  EXPECT_NEAR(kernels, l.kernel_seconds, 1e-9);

  pb::Outcome out;
  pb::report_solver_layers(trace, 0.05, out);
  EXPECT_TRUE(out.correct);
  EXPECT_EQ(out.metrics.at("solvers.iterations").value, trace.iterations);
}

// The pinned inputs: run from the checkout root, as the driver is.
TEST(Decks, PinnedDecksLoad) {
  const std::vector<pb::Deck> small = pb::small_population();
  ASSERT_EQ(small.size(), 25u);
  EXPECT_EQ(small.front().name, "gen_s1_000");
  for (const pb::Deck& deck : small) {
    EXPECT_GE(deck.problem.x_cells, 24);
    EXPECT_LE(deck.problem.x_cells, 96);
  }
  const pb::Deck dram = pb::dram_deck();
  EXPECT_EQ(dram.problem.x_cells, 1536);
  EXPECT_EQ(dram.problem.y_cells, 1536);
  EXPECT_EQ(dram.problem.end_step, 1);
}

TEST(SpanRecorder, ExportsTraceEventJsonWithinCapacity) {
  pb::SpanRecorder spans(3);
  const pb::Clock::time_point t = pb::Clock::now();
  for (int i = 0; i < 5; ++i)
    spans.record("backend", "dot", 42, t, t + std::chrono::microseconds(i));
  EXPECT_EQ(spans.spans().size(), 3u);
  EXPECT_EQ(spans.dropped(), 2);
  char path[] = "perfbench_trace_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  spans.write_trace_events(path, {{"host.cpu_model", "test \"cpu\""}});
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path);
  const results::Json doc = results::Json::parse(text.str());
  const results::Json* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 3u);
  EXPECT_EQ(events->items()[2].get_string("ph", ""), "X");
  EXPECT_EQ(events->items()[2].get("args")->get_int("id", 0), 42);
  EXPECT_EQ(doc.get("otherData")->get_string("host.cpu_model", ""),
            "test \"cpu\"");
}

}  // namespace
