// Thread-count invariance: a solve's answer must not depend on how many
// threads computed it.  Every host substrate reduces through tlp::fold_rows —
// one partial per row, folded in row order on the caller — so each threaded
// host variant returns bitwise-identical golden response quantities at 1, 2,
// 3, 4 and 8 threads, and manual-omp, which sums each row exactly as the
// serial reference does, equals serial bit for bit.  The population is the
// generator's seed-1 and seed-3 decks: a fold whose order followed the
// thread split moves their last bits and, on some decks, the iteration
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "gen/generator.hpp"

namespace {

constexpr int kDecksPerSeed = 8;
// The generator's meshes capped as CI's gen-smoke population caps them, so
// the whole matrix solves in seconds.
constexpr int kMaxCells = 48;

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// The service's golden response quantities (service::SolveResponse) plus
/// the whole final field summary, with the doubles as bit patterns.
struct Golden {
  bool converged = false;
  long iterations = 0;
  long inner_iterations = 0;
  std::uint64_t initial_rr = 0, final_rr = 0;
  std::uint64_t vol = 0, mass = 0, ie = 0, temp = 0;

  bool operator==(const Golden& o) const {
    return converged == o.converged && iterations == o.iterations &&
           inner_iterations == o.inner_iterations &&
           initial_rr == o.initial_rr && final_rr == o.final_rr &&
           vol == o.vol && mass == o.mass && ie == o.ie && temp == o.temp;
  }
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << "{iterations " << g.iterations << ", inner "
            << g.inner_iterations << ", initial_rr " << std::hex
            << g.initial_rr << ", final_rr " << g.final_rr << ", temp "
            << g.temp << std::dec << "}";
}

Golden solve(const std::string& variant, const tl::ProblemConfig& problem,
             const tea::RunOptions& options) {
  const tea::RunResult r = tea::run_simulation(variant, problem, options);
  Golden g;
  g.converged = r.all_converged();
  g.iterations = r.total_iterations;
  for (const tea::StepResult& s : r.steps) {
    g.inner_iterations += s.solve.inner_iterations;
  }
  if (!r.steps.empty()) {
    g.initial_rr = bits(r.steps.front().solve.initial_rr);
    g.final_rr = bits(r.steps.back().solve.final_rr);
  }
  g.vol = bits(r.final_summary.vol);
  g.mass = bits(r.final_summary.mass);
  g.ie = bits(r.final_summary.ie);
  g.temp = bits(r.final_summary.temp);
  return g;
}

Golden solve_on(const std::string& variant, const tl::ProblemConfig& problem,
                int threads) {
  tea::RunOptions options;
  options.threads = threads;
  return solve(variant, problem, options);
}

const std::vector<gen::GeneratedDeck>& population() {
  static const std::vector<gen::GeneratedDeck> decks = [] {
    std::vector<gen::GeneratedDeck> all;
    for (const std::uint64_t seed : {1u, 3u}) {
      gen::GenOptions options;
      options.seed = seed;
      options.count = kDecksPerSeed;
      options.max_cells = kMaxCells;
      for (gen::GeneratedDeck& d : gen::generate(options)) {
        all.push_back(std::move(d));
      }
    }
    return all;
  }();
  return decks;
}

class ThreadCountTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ThreadCountTest, ResponsesAreBitwiseIdenticalAtEveryThreadCount) {
  const std::string variant = GetParam();
  for (const gen::GeneratedDeck& deck : population()) {
    const Golden one = solve_on(variant, deck.problem, 1);
    for (const int threads : {2, 3, 4, 8}) {
      EXPECT_EQ(solve_on(variant, deck.problem, threads), one)
          << deck.name << " on " << variant << " @" << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HostVariants, ThreadCountTest,
                         ::testing::Values("manual-omp", "ops-omp",
                                           "kokkos-omp", "raja-omp",
                                           "manual-acc-cpu"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ThreadCount, ManualOmpEqualsSerial) {
  for (const gen::GeneratedDeck& deck : population()) {
    EXPECT_EQ(solve_on("manual-omp", deck.problem, 3),
              solve_on("serial", deck.problem, 1))
        << deck.name;
  }
}

// Two ranks, each on its own pool: the ranks' row folds do not depend on
// the per-rank thread count, so only the (fixed) cross-rank allreduce
// separates manual-hybrid from manual-mpi at the same rank count.
TEST(ThreadCount, HybridRanksGiveTheSameBitsAtEveryThreadCount) {
  for (const gen::GeneratedDeck& deck : population()) {
    tea::RunOptions mpi;
    mpi.ranks = 2;
    const Golden reference = solve("manual-mpi", deck.problem, mpi);
    for (const int threads : {1, 2, 3}) {
      tea::RunOptions hybrid;
      hybrid.ranks = 2;
      hybrid.hybrid_threads = threads;
      EXPECT_EQ(solve("manual-hybrid", deck.problem, hybrid), reference)
          << deck.name << " @2 ranks x " << threads << " threads";
    }
  }
}

}  // namespace
