#include "results/result_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/file_util.hpp"
#include "results/json.hpp"

namespace results {

TimingStats TimingStats::from_samples(std::vector<double> samples) {
  TimingStats s;
  s.samples_s = std::move(samples);
  if (s.samples_s.empty()) return s;
  std::vector<double> sorted = s.samples_s;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  s.min_s = sorted.front();
  s.median_s = n % 2 == 1 ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  double sum = 0.0;
  for (const double v : sorted) sum += v;
  s.mean_s = sum / static_cast<double>(n);
  double var = 0.0;
  for (const double v : sorted) var += (v - s.mean_s) * (v - s.mean_s);
  // Population stddev: with the harness's small sample counts the (n-1)
  // correction just inflates the noise estimate of the noise.
  s.stddev_s = std::sqrt(var / static_cast<double>(n));
  return s;
}

// FNV-1a, printed as 16 hex digits.  Collision-resistant enough for a store
// of at most a few thousand rows, and dependency-free.
std::string fnv1a_key(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string problem_key(const tl::ProblemConfig& p) {
  std::ostringstream os;
  os.precision(17);
  os << p.x_cells << '|' << p.y_cells << '|' << p.xmin << '|' << p.xmax << '|'
     << p.ymin << '|' << p.ymax << '|' << p.initial_timestep << '|'
     << p.end_step << '|' << tl::to_string(p.solver) << '|'
     << tl::to_string(p.coefficient) << '|' << tl::to_string(p.preconditioner)
     << '|' << p.eps << '|' << p.max_iters << '|' << p.ppcg_inner_steps << '|'
     << p.cheby_cg_presteps << '|' << p.halo_depth;
  for (const tl::StateConfig& st : p.states) {
    os << "|state:" << st.index << ',' << st.density << ',' << st.energy << ','
       << tl::to_string(st.geometry) << ',' << st.xmin << ',' << st.xmax << ','
       << st.ymin << ',' << st.ymax << ',' << st.cx << ',' << st.cy << ','
       << st.radius;
  }
  return fnv1a_key(os.str());
}

std::string measurement_key(const std::string& variant,
                            const tl::ProblemConfig& problem,
                            const tea::RunOptions& options) {
  std::ostringstream os;
  os << variant << '|' << problem_hash(problem) << '|' << options.threads
     << '|' << options.ranks << '|' << options.hybrid_threads << '|'
     << options.tile.tile_rows << '|' << options.tile.cache_bytes << '|'
     << options.tile.max_chain << '|' << options.gpu_block_x << '|'
     << options.gpu_block_y;
  // Appended only when non-default so every pre-existing key (and the
  // committed baselines keyed on them) stays stable.
  if (!options.fuse_operator_dot) os << "|unfused";
  return fnv1a_key(os.str());
}

namespace {

Json counters_to_json(const machine::Counters& c) {
  Json j = Json::object();
  j.set("bytes_read", Json(c.bytes_read));
  j.set("bytes_written", Json(c.bytes_written));
  j.set("flops", Json(c.flops));
  j.set("kernel_launches", Json(c.kernel_launches));
  j.set("reductions", Json(c.reductions));
  j.set("messages", Json(c.messages));
  j.set("message_bytes", Json(c.message_bytes));
  j.set("h2d_bytes", Json(c.h2d_bytes));
  j.set("d2h_bytes", Json(c.d2h_bytes));
  j.set("halo_exchanges", Json(c.halo_exchanges));
  j.set("solver_iterations", Json(c.solver_iterations));
  return j;
}

machine::Counters counters_from_json(const Json& j) {
  machine::Counters c;
  c.bytes_read = j.get_int("bytes_read", 0);
  c.bytes_written = j.get_int("bytes_written", 0);
  c.flops = j.get_int("flops", 0);
  c.kernel_launches = j.get_int("kernel_launches", 0);
  c.reductions = j.get_int("reductions", 0);
  c.messages = j.get_int("messages", 0);
  c.message_bytes = j.get_int("message_bytes", 0);
  c.h2d_bytes = j.get_int("h2d_bytes", 0);
  c.d2h_bytes = j.get_int("d2h_bytes", 0);
  c.halo_exchanges = j.get_int("halo_exchanges", 0);
  c.solver_iterations = j.get_int("solver_iterations", 0);
  return c;
}

Json row_to_json(const ResultRow& r) {
  Json j = Json::object();
  j.set("key", Json(r.key));
  j.set("variant", Json(r.variant));
  j.set("platform", Json(r.platform));
  j.set("deck", Json(r.deck));
  j.set("deck_hash", Json(r.deck_hash));
  j.set("mesh_x", Json(r.mesh_x));
  j.set("mesh_y", Json(r.mesh_y));
  j.set("steps", Json(r.steps));
  j.set("solver", Json(r.solver));
  j.set("eps", Json(r.eps));
  j.set("threads", Json(r.threads));
  j.set("ranks", Json(r.ranks));
  j.set("hybrid_threads", Json(r.hybrid_threads));
  j.set("tile_rows", Json(r.tile_rows));
  j.set("gpu_block_x", Json(r.gpu_block_x));
  j.set("gpu_block_y", Json(r.gpu_block_y));
  j.set("fused", Json(r.fused));
  Json samples = Json::array();
  for (const double s : r.timing.samples_s) samples.push_back(Json(s));
  j.set("samples_s", std::move(samples));
  j.set("wall_min_s", Json(r.timing.min_s));
  j.set("wall_median_s", Json(r.timing.median_s));
  j.set("wall_mean_s", Json(r.timing.mean_s));
  j.set("wall_stddev_s", Json(r.timing.stddev_s));
  // Written only for service-replay rows, so ordinary rows (and the
  // committed baselines diffed against them) keep their existing layout.
  if (r.p99_s > 0.0) j.set("p99_s", Json(r.p99_s));
  if (r.throughput_sps > 0.0) j.set("throughput_sps", Json(r.throughput_sps));
  j.set("iterations", Json(static_cast<std::int64_t>(r.iterations)));
  j.set("inner_iterations", Json(static_cast<std::int64_t>(r.inner_iterations)));
  j.set("converged", Json(r.converged));
  j.set("working_set_bytes", Json(r.working_set_bytes));
  j.set("counters", counters_to_json(r.counters));
  Json projections = Json::array();
  for (const Projection& p : r.projections) {
    Json pj = Json::object();
    pj.set("machine", Json(p.machine));
    pj.set("seconds", Json(p.seconds));
    pj.set("bw_gbs", Json(p.bw_gbs));
    pj.set("gflops", Json(p.gflops));
    projections.push_back(std::move(pj));
  }
  j.set("projections", std::move(projections));
  j.set("toolchain", Json(r.toolchain));
  j.set("git_rev", Json(r.git_rev));
  j.set("timestamp", Json(r.timestamp));
  return j;
}

ResultRow row_from_json(const Json& j) {
  ResultRow r;
  r.key = j.get_string("key", "");
  r.variant = j.get_string("variant", "");
  r.platform = j.get_string("platform", "");
  r.deck = j.get_string("deck", "");
  r.deck_hash = j.get_string("deck_hash", "");
  r.mesh_x = static_cast<int>(j.get_int("mesh_x", 0));
  r.mesh_y = static_cast<int>(j.get_int("mesh_y", 0));
  r.steps = static_cast<int>(j.get_int("steps", 0));
  r.solver = j.get_string("solver", "");
  r.eps = j.get_double("eps", 0.0);
  r.threads = static_cast<int>(j.get_int("threads", 0));
  r.ranks = static_cast<int>(j.get_int("ranks", 0));
  r.hybrid_threads = static_cast<int>(j.get_int("hybrid_threads", 0));
  r.tile_rows = static_cast<int>(j.get_int("tile_rows", 0));
  r.gpu_block_x = static_cast<int>(j.get_int("gpu_block_x", 0));
  r.gpu_block_y = static_cast<int>(j.get_int("gpu_block_y", 0));
  if (const Json* f = j.get("fused")) r.fused = f->as_bool();
  std::vector<double> samples;
  if (const Json* s = j.get("samples_s")) {
    for (const Json& v : s->items()) samples.push_back(v.as_double());
  }
  r.timing = TimingStats::from_samples(std::move(samples));
  r.p99_s = j.get_double("p99_s", 0.0);
  r.throughput_sps = j.get_double("throughput_sps", 0.0);
  r.iterations = static_cast<long>(j.get_int("iterations", 0));
  r.inner_iterations = static_cast<long>(j.get_int("inner_iterations", 0));
  if (const Json* c = j.get("converged")) r.converged = c->as_bool();
  r.working_set_bytes = j.get_int("working_set_bytes", 0);
  if (const Json* c = j.get("counters")) r.counters = counters_from_json(*c);
  if (const Json* ps = j.get("projections")) {
    for (const Json& pj : ps->items()) {
      Projection p;
      p.machine = pj.get_string("machine", "");
      p.seconds = pj.get_double("seconds", 0.0);
      p.bw_gbs = pj.get_double("bw_gbs", 0.0);
      p.gflops = pj.get_double("gflops", 0.0);
      r.projections.push_back(std::move(p));
    }
  }
  r.toolchain = j.get_string("toolchain", "");
  r.git_rev = j.get_string("git_rev", "");
  r.timestamp = j.get_string("timestamp", "");
  return r;
}

}  // namespace

ResultStore ResultStore::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return ResultStore{};
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_json(ss.str());
}

ResultStore ResultStore::from_json(const std::string& text) {
  const Json doc = Json::parse(text);
  TL_REQUIRE(doc.is_object(), "result store document must be a JSON object");
  const std::int64_t version = doc.get_int("schema_version", -1);
  if (version != kSchemaVersion) {
    throw tl::ConfigError("result store schema_version " +
                          std::to_string(version) + " != supported " +
                          std::to_string(kSchemaVersion));
  }
  ResultStore store;
  if (const Json* rows = doc.get("rows")) {
    for (const Json& rj : rows->items()) store.put(row_from_json(rj));
  }
  return store;
}

std::string ResultStore::to_json() const {
  Json doc = Json::object();
  doc.set("schema_version", Json(kSchemaVersion));
  doc.set("generator", Json("tea_sweep (tealeaf-portability)"));
  Json rows = Json::array();
  for (const ResultRow& r : rows_) rows.push_back(row_to_json(r));
  doc.set("rows", std::move(rows));
  return doc.dump(2) + "\n";
}

void ResultStore::save(const std::string& path) const {
  tl::write_file_atomically(path, to_json());
}

const ResultRow* ResultStore::find(const std::string& key) const {
  for (const ResultRow& r : rows_) {
    if (r.key == key) return &r;
  }
  return nullptr;
}

const ResultRow* ResultStore::lookup(const std::string& key) {
  const ResultRow* r = find(key);
  if (r) {
    ++hits_;
  } else {
    ++misses_;
  }
  return r;
}

void ResultStore::put(ResultRow row) {
  for (ResultRow& existing : rows_) {
    if (existing.key == row.key) {
      existing = std::move(row);
      return;
    }
  }
  rows_.push_back(std::move(row));
}

void ResultStore::relabel(const std::string& key,
                          const std::string& deck_label) {
  for (ResultRow& r : rows_) {
    if (r.key == key) {
      r.deck = deck_label;
      return;
    }
  }
}

std::size_t ResultStore::merge(const ResultStore& other) {
  std::size_t changed = 0;
  for (const ResultRow& r : other.rows_) {
    put(r);
    ++changed;
  }
  return changed;
}

const char* to_string(GateVerdict v) {
  switch (v) {
    case GateVerdict::kPass: return "PASS";
    case GateVerdict::kFail: return "FAIL";
    case GateVerdict::kMissingBaseline: return "MISSING-BASELINE";
  }
  return "?";
}

namespace {

/// "name base -> cur" description of the first mismatching counter between
/// two rows, or empty when everything the gate freezes matches exactly.
std::string first_counter_mismatch(const ResultRow& base,
                                   const ResultRow& cur) {
  struct Field {
    const char* name;
    std::int64_t machine::Counters::*member;
  };
  static constexpr Field kFields[] = {
      {"bytes_read", &machine::Counters::bytes_read},
      {"bytes_written", &machine::Counters::bytes_written},
      {"flops", &machine::Counters::flops},
      {"kernel_launches", &machine::Counters::kernel_launches},
      {"reductions", &machine::Counters::reductions},
      {"messages", &machine::Counters::messages},
      {"message_bytes", &machine::Counters::message_bytes},
      {"h2d_bytes", &machine::Counters::h2d_bytes},
      {"d2h_bytes", &machine::Counters::d2h_bytes},
      {"halo_exchanges", &machine::Counters::halo_exchanges},
      {"solver_iterations", &machine::Counters::solver_iterations},
  };
  for (const Field& f : kFields) {
    const std::int64_t b = base.counters.*f.member;
    const std::int64_t c = cur.counters.*f.member;
    if (b != c) {
      return std::string(f.name) + " " + std::to_string(b) + " -> " +
             std::to_string(c);
    }
  }
  if (base.iterations != cur.iterations) {
    return "iterations " + std::to_string(base.iterations) + " -> " +
           std::to_string(cur.iterations);
  }
  if (base.inner_iterations != cur.inner_iterations) {
    return "inner_iterations " + std::to_string(base.inner_iterations) +
           " -> " + std::to_string(cur.inner_iterations);
  }
  return {};
}

}  // namespace

GateReport regression_gate(const ResultStore& baseline,
                           const ResultStore& current, GateOptions options) {
  GateReport report;
  for (const ResultRow& row : current.rows()) {
    GateResult g;
    g.key = row.key;
    g.variant = row.variant;
    g.deck = row.deck;
    g.current_s = row.timing.min_s;
    const ResultRow* base = baseline.find(row.key);
    // A baseline row without a positive min-sample time (hand-edited or
    // truncated store) cannot gate anything — count it as missing rather
    // than silently passing.
    if (!base || base->timing.min_s <= 0.0) {
      g.verdict = GateVerdict::kMissingBaseline;
      ++report.missing;
    } else {
      g.baseline_s = base->timing.min_s;
      g.rel_delta = g.baseline_s > 0.0
                        ? (g.current_s - g.baseline_s) / g.baseline_s
                        : 0.0;
      g.verdict = g.rel_delta > options.rel_tolerance ? GateVerdict::kFail
                                                      : GateVerdict::kPass;
      if (options.compare_counters) {
        g.counter_mismatch = first_counter_mismatch(*base, row);
        if (!g.counter_mismatch.empty()) g.verdict = GateVerdict::kFail;
      }
      ++(g.verdict == GateVerdict::kFail ? report.failed : report.passed);
    }
    report.results.push_back(std::move(g));
  }
  return report;
}

}  // namespace results
