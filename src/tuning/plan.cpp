#include "tuning/plan.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/file_util.hpp"

namespace tuning {

std::string ExecutionPoint::id() const {
  std::ostringstream os;
  os << variant << "|t" << threads << "|r" << ranks << "|h" << hybrid_threads
     << "|tile" << tile_rows << (fused ? "|fused" : "|unfused") << '|'
     << solver << '+' << precon;
  return os.str();
}

namespace {

results::Json point_to_json(const ExecutionPoint& p) {
  results::Json j = results::Json::object();
  j.set("variant", results::Json(p.variant));
  j.set("threads", results::Json(p.threads));
  j.set("ranks", results::Json(p.ranks));
  j.set("hybrid_threads", results::Json(p.hybrid_threads));
  j.set("tile_rows", results::Json(p.tile_rows));
  j.set("fused", results::Json(p.fused));
  j.set("solver", results::Json(p.solver));
  j.set("precon", results::Json(p.precon));
  return j;
}

ExecutionPoint point_from_json(const results::Json& j) {
  ExecutionPoint p;
  p.variant = j.get_string("variant", p.variant);
  p.threads = static_cast<int>(j.get_int("threads", p.threads));
  p.ranks = static_cast<int>(j.get_int("ranks", p.ranks));
  p.hybrid_threads =
      static_cast<int>(j.get_int("hybrid_threads", p.hybrid_threads));
  p.tile_rows = static_cast<int>(j.get_int("tile_rows", p.tile_rows));
  if (const results::Json* f = j.get("fused")) p.fused = f->as_bool();
  p.solver = j.get_string("solver", p.solver);
  p.precon = j.get_string("precon", p.precon);
  return p;
}

}  // namespace

results::Json plan_to_json(const TunedPlan& plan) {
  results::Json j = results::Json::object();
  j.set("schema_version", results::Json(plan.schema_version));
  j.set("deck", results::Json(plan.deck));
  j.set("deck_hash", results::Json(plan.deck_hash));
  j.set("mesh_x", results::Json(plan.mesh_x));
  j.set("mesh_y", results::Json(plan.mesh_y));
  j.set("steps", results::Json(plan.steps));
  j.set("budget", results::Json(plan.budget));
  j.set("winner", point_to_json(plan.winner));
  j.set("winner_median_s", results::Json(plan.winner_median_s));
  j.set("incumbent_median_s", results::Json(plan.incumbent_median_s));
  j.set("winner_key", results::Json(plan.winner_key));
  j.set("calibrated", results::Json(plan.calibrated));
  j.set("scored_bw_gbs", results::Json(plan.scored_bw_gbs));
  j.set("scored_launch_overhead_us",
        results::Json(plan.scored_launch_overhead_us));
  j.set("bw_source", results::Json(plan.bw_source));
  j.set("launch_source", results::Json(plan.launch_source));
  j.set("device_calibrated", results::Json(plan.device_calibrated));
  j.set("scored_device_bw_gbs", results::Json(plan.scored_device_bw_gbs));
  j.set("scored_device_launch_us", results::Json(plan.scored_device_launch_us));
  j.set("scored_pcie_gbs", results::Json(plan.scored_pcie_gbs));
  j.set("device_bw_source", results::Json(plan.device_bw_source));
  j.set("device_launch_source", results::Json(plan.device_launch_source));
  j.set("pcie_source", results::Json(plan.pcie_source));
  j.set("has_device_choice", results::Json(plan.has_device_choice));
  j.set("host_choice", point_to_json(plan.host_choice));
  j.set("device_choice", point_to_json(plan.device_choice));
  j.set("crossover_mesh", results::Json(plan.crossover_mesh));
  results::Json table = results::Json::array();
  for (const DeviceChoice& d : plan.device_table) {
    results::Json dj = results::Json::object();
    dj.set("mesh", results::Json(d.mesh));
    dj.set("host_s", results::Json(d.host_s));
    dj.set("device_s", results::Json(d.device_s));
    dj.set("use_device", results::Json(d.use_device));
    table.push_back(std::move(dj));
  }
  j.set("device_table", std::move(table));
  results::Json frontier = results::Json::array();
  for (const FrontierEntry& e : plan.frontier) {
    results::Json fj = results::Json::object();
    fj.set("point", point_to_json(e.point));
    fj.set("model_seconds", results::Json(e.model_seconds));
    fj.set("converged", results::Json(e.converged));
    fj.set("median_s", results::Json(e.median_s));
    fj.set("min_s", results::Json(e.min_s));
    fj.set("projected_device_s", results::Json(e.projected_device_s));
    fj.set("effective_s", results::Json(e.effective_s));
    fj.set("store_key", results::Json(e.store_key));
    frontier.push_back(std::move(fj));
  }
  j.set("frontier", std::move(frontier));
  return j;
}

TunedPlan plan_from_json(const results::Json& doc) {
  TL_REQUIRE(doc.is_object(), "tuned plan must be a JSON object");
  const std::int64_t version = doc.get_int("schema_version", -1);
  if (version != kPlanSchemaVersion) {
    throw tl::ConfigError("tuned plan schema_version " +
                          std::to_string(version) + " != supported " +
                          std::to_string(kPlanSchemaVersion));
  }
  TunedPlan plan;
  plan.deck = doc.get_string("deck", "");
  plan.deck_hash = doc.get_string("deck_hash", "");
  plan.mesh_x = static_cast<int>(doc.get_int("mesh_x", 0));
  plan.mesh_y = static_cast<int>(doc.get_int("mesh_y", 0));
  plan.steps = static_cast<int>(doc.get_int("steps", 0));
  plan.budget = static_cast<int>(doc.get_int("budget", 0));
  if (const results::Json* w = doc.get("winner")) {
    plan.winner = point_from_json(*w);
  } else {
    throw tl::ConfigError("tuned plan has no winner");
  }
  plan.winner_median_s = doc.get_double("winner_median_s", 0.0);
  plan.incumbent_median_s = doc.get_double("incumbent_median_s", 0.0);
  plan.winner_key = doc.get_string("winner_key", "");
  if (const results::Json* c = doc.get("calibrated")) {
    plan.calibrated = c->as_bool();
  }
  plan.scored_bw_gbs = doc.get_double("scored_bw_gbs", 0.0);
  plan.scored_launch_overhead_us =
      doc.get_double("scored_launch_overhead_us", 0.0);
  plan.bw_source = doc.get_string("bw_source", plan.bw_source);
  plan.launch_source = doc.get_string("launch_source", plan.launch_source);
  if (const results::Json* c = doc.get("device_calibrated")) {
    plan.device_calibrated = c->as_bool();
  }
  plan.scored_device_bw_gbs = doc.get_double("scored_device_bw_gbs", 0.0);
  plan.scored_device_launch_us = doc.get_double("scored_device_launch_us", 0.0);
  plan.scored_pcie_gbs = doc.get_double("scored_pcie_gbs", 0.0);
  plan.device_bw_source =
      doc.get_string("device_bw_source", plan.device_bw_source);
  plan.device_launch_source =
      doc.get_string("device_launch_source", plan.device_launch_source);
  plan.pcie_source = doc.get_string("pcie_source", plan.pcie_source);
  if (const results::Json* c = doc.get("has_device_choice")) {
    plan.has_device_choice = c->as_bool();
  }
  if (const results::Json* p = doc.get("host_choice")) {
    plan.host_choice = point_from_json(*p);
  }
  if (const results::Json* p = doc.get("device_choice")) {
    plan.device_choice = point_from_json(*p);
  }
  plan.crossover_mesh = static_cast<int>(doc.get_int("crossover_mesh", 0));
  if (const results::Json* table = doc.get("device_table")) {
    if (table->is_array()) {
      for (const results::Json& dj : table->items()) {
        DeviceChoice d;
        d.mesh = static_cast<int>(dj.get_int("mesh", 0));
        d.host_s = dj.get_double("host_s", 0.0);
        d.device_s = dj.get_double("device_s", 0.0);
        if (const results::Json* u = dj.get("use_device")) {
          d.use_device = u->as_bool();
        }
        plan.device_table.push_back(d);
      }
    }
  }
  if (const results::Json* frontier = doc.get("frontier")) {
    if (frontier->is_array()) {
      for (const results::Json& fj : frontier->items()) {
        FrontierEntry e;
        if (const results::Json* p = fj.get("point")) {
          e.point = point_from_json(*p);
        }
        e.model_seconds = fj.get_double("model_seconds", 0.0);
        if (const results::Json* c = fj.get("converged")) {
          e.converged = c->as_bool();
        }
        e.median_s = fj.get_double("median_s", 0.0);
        e.min_s = fj.get_double("min_s", 0.0);
        e.projected_device_s = fj.get_double("projected_device_s", 0.0);
        e.effective_s = fj.get_double("effective_s", 0.0);
        e.store_key = fj.get_string("store_key", "");
        plan.frontier.push_back(std::move(e));
      }
    }
  }
  return plan;
}

TunedPlan load_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw tl::ConfigError("cannot open tuned plan '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return plan_from_json(results::Json::parse(ss.str()));
}

void save_plan(const TunedPlan& plan, const std::string& path) {
  tl::write_file_atomically(path, plan_to_json(plan).dump(2) + "\n");
}

namespace {

std::string apply_point(const ExecutionPoint& w, tl::ProblemConfig* problem,
                        tea::RunOptions* options) {
  if (problem != nullptr) {
    problem->solver = tl::solver_from_string(w.solver);
    problem->preconditioner = tl::precon_from_string(w.precon);
  }
  if (options != nullptr) {
    options->threads = w.threads;
    options->ranks = w.ranks;
    options->hybrid_threads = w.hybrid_threads;
    options->tile.tile_rows = w.tile_rows;
    options->fuse_operator_dot = w.fused;
  }
  return w.variant;
}

}  // namespace

std::string apply_plan(const TunedPlan& plan, tl::ProblemConfig* problem,
                       tea::RunOptions* options) {
  return apply_point(plan.winner, problem, options);
}

std::string apply_plan_for_mesh(const TunedPlan& plan,
                                tl::ProblemConfig* problem,
                                tea::RunOptions* options) {
  if (!plan.has_device_choice || plan.device_table.empty() ||
      problem == nullptr) {
    return apply_plan(plan, problem, options);
  }
  const int mesh = std::max(problem->x_cells, problem->y_cells);
  // Largest rung not above the request mesh; below the smallest rung the
  // smallest applies (the table is sorted ascending).
  const DeviceChoice* chosen = &plan.device_table.front();
  for (const DeviceChoice& d : plan.device_table) {
    if (d.mesh <= mesh) chosen = &d;
  }
  const ExecutionPoint& point =
      chosen->use_device ? plan.device_choice : plan.host_choice;
  return apply_point(point, problem, options);
}

}  // namespace tuning
