#include "common/config.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace tl {

namespace {

// Fortran decks use `1.0d-15`; normalise the exponent marker before numeric
// parsing.
std::string normalise_number(std::string s) {
  for (char& c : s) {
    if (c == 'd' || c == 'D') c = 'e';
  }
  return s;
}

// Deck numerics must be finite: strtod happily accepts "nan" and "inf", and
// a NaN extent would sail through the `xmax <= xmin` sanity check below
// (every comparison with NaN is false) straight into the mesh setup.
double parse_finite(std::string_view s, const std::string& what) {
  const double v = parse_double(s);
  if (!std::isfinite(v)) {
    throw ConfigError(what + " must be finite, got '" + std::string(trim(s)) +
                      "'");
  }
  return v;
}

// Integer deck values are stored as int: a value outside int's range would
// otherwise wrap silently (x_cells=4294967306 would load as 10 cells).
int parse_int(std::string_view s, const std::string& what) {
  const long v = parse_long(s);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw ConfigError(what + " is out of range, got '" + std::string(trim(s)) +
                      "'");
  }
  return static_cast<int>(v);
}

Geometry parse_geometry(const std::string& v) {
  const std::string g = to_lower(v);
  if (g == "rectangle") return Geometry::kRectangle;
  if (g == "circle" || g == "circular") return Geometry::kCircle;
  if (g == "point") return Geometry::kPoint;
  throw ConfigError("unknown geometry '" + v + "'");
}

StateConfig parse_state_line(const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) throw ConfigError("state line missing index");
  StateConfig st;
  st.index = parse_int(tokens[1], "state index");
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const auto kv = split(tokens[i], '=');
    if (kv.size() != 2) {
      throw ConfigError("bad state attribute '" + tokens[i] + "'");
    }
    const std::string key = to_lower(kv[0]);
    const std::string val = normalise_number(kv[1]);
    const std::string what = "state attribute " + key;
    if (key == "density") st.density = parse_finite(val, what);
    else if (key == "energy") st.energy = parse_finite(val, what);
    else if (key == "geometry") st.geometry = parse_geometry(kv[1]);
    else if (key == "xmin") st.xmin = parse_finite(val, what);
    else if (key == "xmax") st.xmax = parse_finite(val, what);
    else if (key == "ymin") st.ymin = parse_finite(val, what);
    else if (key == "ymax") st.ymax = parse_finite(val, what);
    else if (key == "xcentre" || key == "xcenter") st.cx = parse_finite(val, what);
    else if (key == "ycentre" || key == "ycenter") st.cy = parse_finite(val, what);
    else if (key == "radius") st.radius = parse_finite(val, what);
    else throw ConfigError("unknown state attribute '" + key + "'");
  }
  if (st.density <= 0.0) {
    throw ConfigError("state " + std::to_string(st.index) +
                      " must have positive density");
  }
  if (st.energy < 0.0) {
    throw ConfigError("state " + std::to_string(st.index) +
                      " must have non-negative energy");
  }
  // Region sanity for the painted states: a zero-area region never covers a
  // cell centre, so it would silently paint nothing — reject it instead.
  if (st.index > 1) {
    const std::string where = "state " + std::to_string(st.index);
    switch (st.geometry) {
      case Geometry::kRectangle:
        if (st.xmax <= st.xmin || st.ymax <= st.ymin) {
          throw ConfigError(where + ": rectangle region has zero or negative "
                            "area (need xmin < xmax and ymin < ymax)");
        }
        break;
      case Geometry::kCircle:
        if (st.radius <= 0.0) {
          throw ConfigError(where + ": circle region needs a positive radius");
        }
        break;
      case Geometry::kPoint:
        break;  // a point has no extent to validate
    }
  }
  return st;
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  ProblemConfig& p = cfg.problem_;
  bool in_block = false;
  bool saw_block = false;

  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments (`!` and `#`).
    for (const char marker : {'!', '#'}) {
      const auto pos = line.find(marker);
      if (pos != std::string::npos) line.erase(pos);
    }
    const std::string t = trim(line);
    if (t.empty()) continue;
    const std::string lt = to_lower(t);

    if (lt == "*tea") {
      in_block = true;
      saw_block = true;
      continue;
    }
    if (lt == "*endtea") {
      in_block = false;
      continue;
    }
    if (!in_block) continue;

    const auto tokens = split_ws(t);
    if (iequals(tokens[0], "state")) {
      p.states.push_back(parse_state_line(tokens));
      continue;
    }

    // Remaining directives are whitespace-separated `key=value` pairs or
    // bare flags; a single line may hold several (e.g. the xmin/xmax line).
    for (const std::string& tok : tokens) {
      const auto kv = split(tok, '=');
      const std::string key = to_lower(kv[0]);
      const std::string val =
          kv.size() == 2 ? normalise_number(kv[1]) : std::string{};
      if (kv.size() > 2) {
        throw ConfigError("line " + std::to_string(lineno) +
                          ": malformed token '" + tok + "'");
      }
      cfg.raw_[key] = kv.size() == 2 ? kv[1] : "true";

      if (key == "x_cells") p.x_cells = parse_int(val, key);
      else if (key == "y_cells") p.y_cells = parse_int(val, key);
      else if (key == "xmin") p.xmin = parse_finite(val, key);
      else if (key == "xmax") p.xmax = parse_finite(val, key);
      else if (key == "ymin") p.ymin = parse_finite(val, key);
      else if (key == "ymax") p.ymax = parse_finite(val, key);
      else if (key == "initial_timestep") p.initial_timestep = parse_finite(val, key);
      else if (key == "end_step") p.end_step = parse_int(val, key);
      else if (key == "tl_max_iters") p.max_iters = parse_int(val, key);
      else if (key == "tl_eps") p.eps = parse_finite(val, key);
      else if (key == "tl_use_jacobi") p.solver = SolverKind::kJacobi;
      else if (key == "tl_use_cg") p.solver = SolverKind::kCg;
      else if (key == "tl_use_chebyshev") p.solver = SolverKind::kCheby;
      else if (key == "tl_use_ppcg") p.solver = SolverKind::kPpcg;
      else if (key == "tl_ppcg_inner_steps")
        p.ppcg_inner_steps = parse_int(val, key);
      else if (key == "tl_cheby_cg_presteps")
        p.cheby_cg_presteps = parse_int(val, key);
      else if (key == "tl_coefficient_density")
        p.coefficient = CoefficientKind::kDensity;
      else if (key == "tl_coefficient_recip_density")
        p.coefficient = CoefficientKind::kRecipDensity;
      else if (key == "tl_preconditioner_type") {
        if (kv.size() != 2) {
          throw ConfigError("line " + std::to_string(lineno) +
                            ": tl_preconditioner_type needs a value");
        }
        const std::string v = to_lower(kv[1]);
        if (v == "none") p.preconditioner = PreconKind::kNone;
        else if (v == "jac_diag") p.preconditioner = PreconKind::kJacDiag;
        else throw ConfigError("unknown preconditioner '" + v + "'");
      }
      else if (key == "check_result") p.check_result = parse_bool(val);
      else if (key == "halo_depth") p.halo_depth = parse_int(val, key);
      else if (key == "test_problem" || key == "profiler_on" ||
               key == "visit_frequency" || key == "summary_frequency") {
        // Accepted-and-ignored keys from upstream decks.
      } else {
        throw ConfigError("line " + std::to_string(lineno) +
                          ": unknown directive '" + key + "'");
      }
    }
  }

  if (!saw_block) throw ConfigError("deck contains no *tea block");
  if (p.x_cells <= 0 || p.y_cells <= 0) {
    throw ConfigError("mesh dimensions must be positive");
  }
  if (p.xmax <= p.xmin || p.ymax <= p.ymin) {
    throw ConfigError("domain extents must be increasing");
  }
  if (p.initial_timestep <= 0.0) {
    throw ConfigError("initial_timestep must be positive");
  }
  if (p.end_step < 1) throw ConfigError("end_step must be >= 1");
  if (p.eps <= 0.0) throw ConfigError("tl_eps must be positive");
  if (p.max_iters < 1) throw ConfigError("tl_max_iters must be >= 1");
  if (p.ppcg_inner_steps < 1) {
    throw ConfigError("tl_ppcg_inner_steps must be >= 1");
  }
  if (p.cheby_cg_presteps < 1) {
    throw ConfigError("tl_cheby_cg_presteps must be >= 1");
  }
  if (p.halo_depth < 1) throw ConfigError("halo_depth must be >= 1");
  if (p.states.empty()) {
    throw ConfigError("deck must define at least state 1");
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open deck '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

Config Config::default_config() {
  // The shipped TeaLeaf tea.in: a 10x10 physical domain, ambient low-energy
  // material with a dense hot strip along the bottom, CG solver.
  return parse(R"(*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=10.0 ymin=0.0 ymax=2.0
x_cells=10
y_cells=10
xmin=0.0 xmax=10.0 ymin=0.0 ymax=10.0
initial_timestep=0.004
end_step=10
tl_max_iters=10000
tl_use_cg
tl_eps=1.0e-15
*endtea
)");
}

std::optional<std::string> Config::raw(const std::string& key) const {
  const auto it = raw_.find(to_lower(key));
  if (it == raw_.end()) return std::nullopt;
  return it->second;
}

std::string to_deck(const ProblemConfig& p) {
  std::ostringstream os;
  // Full precision so parse -> serialize -> parse is the identity on every
  // numeric field (test_decks round-trips all shipped decks through here).
  os.precision(17);
  os << "*tea\n";
  for (const StateConfig& st : p.states) {
    os << "state " << st.index << " density=" << st.density
       << " energy=" << st.energy;
    if (st.index > 1) {
      os << " geometry=" << to_string(st.geometry);
      if (st.geometry == Geometry::kRectangle) {
        os << " xmin=" << st.xmin << " xmax=" << st.xmax << " ymin=" << st.ymin
           << " ymax=" << st.ymax;
      } else if (st.geometry == Geometry::kCircle) {
        os << " xcentre=" << st.cx << " ycentre=" << st.cy
           << " radius=" << st.radius;
      } else {
        os << " xcentre=" << st.cx << " ycentre=" << st.cy;
      }
    }
    os << "\n";
  }
  os << "x_cells=" << p.x_cells << "\n";
  os << "y_cells=" << p.y_cells << "\n";
  os << "xmin=" << p.xmin << " xmax=" << p.xmax << " ymin=" << p.ymin
     << " ymax=" << p.ymax << "\n";
  os << "initial_timestep=" << p.initial_timestep << "\n";
  os << "end_step=" << p.end_step << "\n";
  os << "tl_max_iters=" << p.max_iters << "\n";
  os << "tl_eps=" << p.eps << "\n";
  switch (p.solver) {
    case SolverKind::kJacobi: os << "tl_use_jacobi\n"; break;
    case SolverKind::kCg: os << "tl_use_cg\n"; break;
    case SolverKind::kCheby: os << "tl_use_chebyshev\n"; break;
    case SolverKind::kPpcg: os << "tl_use_ppcg\n"; break;
  }
  if (p.coefficient == CoefficientKind::kDensity) {
    os << "tl_coefficient_density\n";
  }
  os << "tl_preconditioner_type=" << to_string(p.preconditioner) << "\n";
  os << "tl_ppcg_inner_steps=" << p.ppcg_inner_steps << "\n";
  os << "tl_cheby_cg_presteps=" << p.cheby_cg_presteps << "\n";
  os << "halo_depth=" << p.halo_depth << "\n";
  os << "check_result=" << (p.check_result ? "true" : "false") << "\n";
  os << "*endtea\n";
  return os.str();
}

const char* to_string(SolverKind s) {
  switch (s) {
    case SolverKind::kJacobi: return "jacobi";
    case SolverKind::kCg: return "cg";
    case SolverKind::kCheby: return "chebyshev";
    case SolverKind::kPpcg: return "ppcg";
  }
  return "?";
}

const char* to_string(Geometry g) {
  switch (g) {
    case Geometry::kRectangle: return "rectangle";
    case Geometry::kCircle: return "circle";
    case Geometry::kPoint: return "point";
  }
  return "?";
}

const char* to_string(CoefficientKind c) {
  switch (c) {
    case CoefficientKind::kRecipDensity: return "recip_density";
    case CoefficientKind::kDensity: return "density";
  }
  return "?";
}

const char* to_string(PreconKind p) {
  switch (p) {
    case PreconKind::kNone: return "none";
    case PreconKind::kJacDiag: return "jac_diag";
  }
  return "?";
}

SolverKind solver_from_string(const std::string& name) {
  if (name == "jacobi") return SolverKind::kJacobi;
  if (name == "cg") return SolverKind::kCg;
  if (name == "chebyshev") return SolverKind::kCheby;
  if (name == "ppcg") return SolverKind::kPpcg;
  throw ConfigError("unknown solver '" + name + "'");
}

PreconKind precon_from_string(const std::string& name) {
  if (name == "none") return PreconKind::kNone;
  if (name == "jac_diag") return PreconKind::kJacDiag;
  throw ConfigError("unknown preconditioner '" + name + "'");
}

}  // namespace tl
