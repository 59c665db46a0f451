// solves.cpp — the two gated workloads.  Both time the same six variants
// on their own deck set, so both report every end-to-end metric:
//
//   solve-dram   one tea_bm_5-derived problem at 1536^2 whose 13 fields
//                (245 MB) are 2.3x the 105 MiB L3 of the reference host, so
//                every kernel streams from DRAM: kernel and bytes-moved
//                changes show here, dispatch overhead does not.
//   solve-small  the generator's 25-deck population (24-96 cells), where
//                launch and abstraction overhead dominate.
//
// A unit of work is one pass over the deck set, and a round interleaves the
// variants deck by deck, so each pass is spread over the whole round.
// `solve_s.<variant>` is the sum over the decks of each deck's median solve
// time over the run's rounds.  Decks are pinned under perfbench/decks.
#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "host.hpp"
#include "solve_common.hpp"

namespace pb {

namespace {

// CG to 1e-5 on the 1536^2 mesh: 65 iterations, 0.75 s on two threads of
// manual-omp on the reference host, 2.7 s on raja-omp.  The full
// tl_eps=1e-10 solve (600 iterations) takes 6-8 s per solve, too long to
// repeat six variants in one run.
//
// A solve is timed from outside, backend construction and Backend::setup
// included, so no work can leave the timed region by moving out of
// TeaDriver's own timer.  Set-up alone is also reported, as setup_s.
constexpr int kMinRounds = 3;

// Every variant timed; the first four are the shared-memory ones the
// traced run wraps in TimedBackend.
const std::vector<std::string> kVariants = {
    "manual-omp", "ops-omp", "kokkos-omp", "raja-omp", "manual-mpi", "serial"};
const std::vector<std::string> kSharedVariants(kVariants.begin(),
                                               kVariants.begin() + 4);

/// A workload's inputs and the constants that differ between the two.
struct Family {
  std::vector<Deck> decks;
  // Set-ups timed in each round, between its solves, so setup_s samples
  // the whole run as solve_s does.  A population set-up is ~20 ms of small
  // allocations, noisier than the 0.6 s of 245 MB set-ups in solve-dram,
  // so it is repeated more.
  int setups_per_round = 0;
  // Untimed passes of every variant before the first round.  The small
  // population's first pass warms the allocator, the caches and the pools'
  // threads; a solve-dram solve allocates and faults in its 245 MB afresh
  // every time, so a warm-up there would only cost a round.
  int warm_up_passes = 0;
  // Share of the driver wall the traced layers may leave unattributed.
  double unattributed_tolerance = 0.0;
};

Family dram_family() { return Family{{dram_deck()}, 2, 0, 0.05}; }

Family small_family() { return Family{small_population(), 15, 1, 0.10}; }

/// Seeded Fisher-Yates: each round runs the variants, and each pass the
/// decks, in a fresh order so none always follows the same neighbour.
template <typename T>
std::vector<T> shuffled(std::vector<T> v, tl::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
  return v;
}

/// Judge one result against the serial reference: physics tolerance fails
/// the run, a bitwise difference is only counted (a known defect: the
/// threaded variants' reductions depend on the thread count).
void judge(const std::string& what, const Golden& ref, const Golden& got,
           Outcome& out) {
  ++out.attempted;
  std::string why;
  if (!physics_match(ref, got, &why)) {
    ++out.failed;
    out.fail(what + ": " + why);
  }
  if (!bitwise_equal(ref, got)) ++out.serial_mismatches;
}

/// "manual-omp 1.62 1.70 1.58 s" — the variant's pass in each round.
std::string sample_line(const std::string& variant,
                        const std::vector<double>& samples) {
  std::string line = variant;
  char buf[32];
  for (double v : samples) {
    std::snprintf(buf, sizeof buf, " %.4f", v);
    line += buf;
  }
  return line + " s";
}

void report_overhead(double untraced, double traced, Outcome& out) {
  const double overhead = untraced > 0 ? traced / untraced - 1.0 : 0.0;
  out.set("trace.overhead_frac", overhead, "fraction");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tracing overhead: %.4f s traced vs %.4f s untraced (%+.2f%%)",
                traced, untraced, 100.0 * overhead);
  out.note(buf);
}

/// backends.<kernel>.* for the kernels a CG solve spends its time in.
void report_kernels(const LayerLedger& ledger, double triad_gbs,
                    Outcome& out) {
  for (const char* kernel : {"apply_operator_dot", "dot", "axpy", "zaxpy",
                             "update_halo", "compute_residual"}) {
    const KernelStat stat = ledger.kernels.count(kernel) != 0
                                ? ledger.kernels.at(kernel)
                                : KernelStat{};
    const std::string key = std::string("backends.") + kernel;
    const double gbs =
        stat.seconds > 0
            ? static_cast<double>(stat.bytes) / stat.seconds / 1e9
            : 0.0;
    out.set(key + ".calls", static_cast<double>(stat.calls), "count");
    out.set(key + ".us_per_call",
            stat.calls > 0 ? 1e6 * stat.seconds / stat.calls : 0.0, "us");
    out.set(key + ".gbs", gbs, "GB/s");
    out.set(key + ".roofline_frac", gbs / triad_gbs, "fraction");
  }
}

/// The threading layer on its own: fork-join and reduction latency of a
/// kSolveThreads pool, the per-launch cost of every threaded kernel.
void report_threading(Outcome& out) {
  tlp::ThreadPool probe(kSolveThreads);
  std::vector<double> fork_join, reduce;
  const std::vector<double> data(1024, 1.0);
  for (int batch = 0; batch < 7; ++batch) {
    constexpr int kCalls = 2000;
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalls; ++i) probe.parallel_region([](int, int) {});
    fork_join.push_back(1e6 * seconds_since(start) / kCalls);
    start = Clock::now();
    double sink = 0.0;
    for (int i = 0; i < kCalls; ++i)
      sink += probe.parallel_reduce(
          0L, static_cast<long>(data.size()), 0.0,
          [&](long lo, long hi) {
            return std::accumulate(data.begin() + lo, data.begin() + hi, 0.0);
          },
          [](double a, double b) { return a + b; });
    reduce.push_back(1e6 * seconds_since(start) / kCalls);
    if (sink != 1024.0 * kCalls) out.fail("threading probe reduced wrongly");
  }
  out.set("threading.fork_join_us", median(fork_join), "us");
  out.set("threading.reduce_us", median(reduce), "us");
}

Outcome run_family(const Args& args, const Family& family) {
  Outcome out;
  const CpuTimes cpu_start = cpu_times();
  const HostInfo host = fingerprint(kSolveThreads);
  const std::vector<Deck>& decks = family.decks;
  tlp::ThreadPool pool(kSolveThreads);
  tl::Rng rng(args.seed);

  std::vector<Golden> refs;
  for (const Deck& deck : decks)
    refs.push_back(golden_of(tea::run_simulation("serial", deck.problem)));

  // One solve of deck `i` on `variant`, judged against its reference.
  const auto solve = [&](const std::string& variant, std::size_t i,
                         SolveTrace* trace) {
    DirectSolve solved = solve_direct(variant, decks[i].problem, pool, trace);
    judge(variant + " " + decks[i].name, refs[i], golden_of(solved.run), out);
    return solved;
  };
  // The decks are solved in `order`, reshuffled every round of an untraced
  // run; the traced run keeps one order so its passes compare.
  std::vector<std::size_t> order(decks.size());
  std::iota(order.begin(), order.end(), 0);
  // Every deck, back to back, on `variant`: the traced run's unit.
  const auto pass = [&](const std::string& variant, SolveTrace* trace,
                        std::vector<Golden>& results) {
    double seconds = 0.0;
    results.resize(decks.size());
    for (const std::size_t i : order) {
      const DirectSolve solved = solve(variant, i, trace);
      seconds += solved.seconds;
      results[i] = golden_of(solved.run);
    }
    return seconds;
  };

  if (args.trace) {
    SpanRecorder spans;
    // The service and the wire, on the small population (see NOTES.md for
    // why no gated workload times the wire end to end).  First, so the
    // span store's capacity keeps every request; the solves fill the rest.
    trace_wire_layers(args, spans, out);
    SolveTrace all;
    all.spans = &spans;
    double plain_total = 0.0, traced_total = 0.0;
    for (const std::string& variant : kSharedVariants) {
      std::vector<Golden> plain_results, traced_results;
      SolveTrace trace;
      trace.spans = &spans;
      trace.id = all.id;
      const double plain = pass(variant, nullptr, plain_results);
      const double traced = pass(variant, &trace, traced_results);
      plain_total += plain;
      traced_total += traced;
      long differ = 0;
      for (std::size_t i = 0; i < decks.size(); ++i)
        if (!bitwise_equal(plain_results[i], traced_results[i])) ++differ;
      if (differ != 0)
        out.fail(variant + ": " + std::to_string(differ) +
                 " traced results differ from untraced");
      // Per call without the one set-up call of each solve, which would
      // swamp the kernels; as a share of the pass, whose timed region
      // includes set-up, with it.
      long calls = 0;
      double seconds = 0.0;
      for (const auto& [name, stat] : trace.ledger.kernels) {
        if (name == "setup") continue;
        calls += stat.calls;
        seconds += stat.seconds;
      }
      out.set("backends.us_per_call." + variant,
              calls > 0 ? 1e6 * seconds / calls : 0.0, "us");
      out.set("backends.self_frac." + variant,
              traced > 0 ? trace.ledger.kernel_seconds / traced : 0.0,
              "fraction");
      if (variant == "manual-omp")
        report_kernels(trace.ledger, host.triad_gbs, out);
      all.ledger.merge(trace.ledger);
      all.driver_seconds += trace.driver_seconds;
      all.steps += trace.steps;
      all.iterations += trace.iterations;
      all.id = trace.id;
    }
    report_overhead(plain_total, traced_total, out);
    report_solver_layers(all, family.unattributed_tolerance, out);
    out.set("host.triad_gbs", host.triad_gbs, "GB/s");
    report_threading(out);

    machine::Counters mpi;
    for (std::size_t i = 0; i < decks.size(); ++i)
      mpi += solve("manual-mpi", i, nullptr).run.counters;
    out.set("minimpi.messages", static_cast<double>(mpi.messages), "count");
    out.set("minimpi.message_bytes", static_cast<double>(mpi.message_bytes),
            "bytes");
    out.set("minimpi.halo_exchanges", static_cast<double>(mpi.halo_exchanges),
            "count");

    const std::string path =
        args.out_dir + "/trace-" + args.workload + ".json";
    spans.write_trace_events(path, host.as_map());
    out.note("trace: " + std::to_string(spans.spans().size()) + " spans (" +
             std::to_string(spans.dropped()) + " past capacity) -> " + path);
  } else {
    // Rounds until the run's seconds are spent (at least kMinRounds).  A
    // round visits the decks in a seeded order and, at each deck, times the
    // family's set-ups of it and then solves it on every variant in a fresh
    // seeded order.  A variant's pass and a set-up are thus each spread
    // over the whole round instead of packed into one stretch of it, so a
    // slow spell of the shared host lands on every metric alike and is
    // averaged into every sample rather than deciding one.
    std::vector<double> setups;
    // Per variant, each deck's solve time in every round.
    std::map<std::string, std::vector<std::vector<double>>> times;
    for (const std::string& variant : kVariants)
      times[variant].resize(decks.size());
    for (int warm_up = 0; warm_up < family.warm_up_passes; ++warm_up)
      for (const std::string& variant : kVariants)
        for (std::size_t i = 0; i < decks.size(); ++i)
          solve(variant, i, nullptr);
    const Clock::time_point start = Clock::now();
    for (int round = 0;; ++round) {
      const double elapsed = seconds_since(start);
      if (round >= kMinRounds && elapsed + elapsed / round > args.seconds)
        break;
      std::vector<double> round_setups(family.setups_per_round, 0.0);
      order = shuffled(order, rng);
      for (const std::size_t i : order) {
        for (double& total : round_setups)
          for (const std::string& variant : kSharedVariants)
            total += time_setup(variant, decks[i].problem, pool);
        for (const std::string& variant : shuffled(kVariants, rng))
          times[variant][i].push_back(solve(variant, i, nullptr).seconds);
      }
      setups.insert(setups.end(), round_setups.begin(), round_setups.end());
    }
    report_setup(setups, out);
    // solve_s sums each deck's median: a stall (a descheduled vCPU, a
    // neighbour's burst) that hits a few solves moves only their decks'
    // samples, where in a pass total it would move the whole pass.
    for (const std::string& variant : kVariants) {
      double typical = 0.0;
      std::vector<double> passes(times[variant].front().size(), 0.0);
      for (const std::vector<double>& deck_times : times[variant]) {
        typical += median(deck_times);
        for (std::size_t r = 0; r < deck_times.size(); ++r)
          passes[r] += deck_times[r];
      }
      out.set("solve_s." + variant, typical, "s");
      out.note(sample_line(variant, passes));
    }
  }
  out.note("decks: " + std::to_string(decks.size()) + "; serial reference " +
           std::to_string(refs.front().iterations) + " iterations on " +
           decks.front().name);
  for (const std::string& line : host_notes(host, cpu_start)) out.note(line);
  return out;
}

}  // namespace

Outcome run_solve_dram(const Args& args) {
  return run_family(args, dram_family());
}

Outcome run_solve_small(const Args& args) {
  return run_family(args, small_family());
}

}  // namespace pb
