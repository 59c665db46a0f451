#include "core/driver.hpp"

#include "common/timer.hpp"

namespace tea {

RunResult TeaDriver::run(Backend& backend) const {
  backend.setup(cfg_);

  RunResult result;
  result.backend_id = backend.id();

  const SolveOptions solve_options = SolveOptions::from(cfg_);
  const double dt = cfg_.initial_timestep;
  const double rx = dt / (cfg_.dx() * cfg_.dx());
  const double ry = dt / (cfg_.dy() * cfg_.dy());

  // This instance's counts after setup; a distributed run's ranks each
  // open their own scope and run_simulation sums them.
  const machine::CounterScope counter_scope;
  const tl::StopWatch watch;

  for (int step = 1; step <= cfg_.end_step; ++step) {
    backend.set_rx_ry(rx, ry);
    backend.compute_coefficients(cfg_.coefficient);
    backend.init_u_u0();

    StepResult sr;
    sr.step = step;
    sr.dt = dt;
    sr.solve = solve(backend, cfg_.solver, solve_options);
    if (backend.counts_globally()) {
      machine::sink().add_solver_iterations(sr.solve.iterations);
    }

    backend.finalise();
    backend.copy_field(FieldId::kEnergy1, FieldId::kEnergy0);
    sr.summary = backend.field_summary();

    result.total_iterations += sr.solve.iterations;
    result.steps.push_back(sr);
  }

  result.wall_seconds = watch.seconds();
  result.counters = counter_scope.delta();
  result.final_summary = result.steps.back().summary;
  result.working_set_bytes = backend.working_set_bytes();
  return result;
}

}  // namespace tea
