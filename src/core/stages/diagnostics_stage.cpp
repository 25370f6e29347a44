#include "core/stages/diagnostics_stage.hpp"

#include <algorithm>

namespace pcf::core {

diagnostics_stage::diagnostics_stage(stage_context& ctx,
                                     phase_timer::id parent)
    : ctx_(ctx), ph_reduce_(ctx.timers.add("reduce", parent)) {}

void diagnostics_stage::set_cfl_target(double target, double dt_min,
                                       double dt_max) {
  cfl_target_ = target;
  dt_min_ = dt_min;
  dt_max_ = dt_max;
}

double diagnostics_stage::finish_step() {
  phase_timer::section sec(ctx_.timers, ph_reduce_);
  auto& st = ctx_.state;
  ctx_.world.allreduce_max(&st.cfl_local, &st.cfl_global, 1);
  if (cfl_target_ > 0.0 && st.cfl_global > 0.0) {
    // Proportional controller with damping: scale dt toward the target
    // CFL; identical on every rank since cfl_global is reduced.
    const double want = ctx_.cfg.dt * cfl_target_ / st.cfl_global;
    double next = ctx_.cfg.dt + 0.5 * (want - ctx_.cfg.dt);
    next = std::clamp(next, dt_min_, dt_max_);
    if (next != ctx_.cfg.dt) return next;
  }
  return 0.0;
}

step_timings diagnostics_stage::report() const {
  step_timings t;
  const auto add = [&t](const phase_stats& p, int depth) {
    t.phases.push_back({p.name, depth, p.seconds, p.calls, p.ops.flops,
                        p.ops.bytes_read + p.ops.bytes_written});
  };
  // The pencil kernel's stage rows go under the phases that call it: the
  // inverse rows under to_physical, the forward rows under to_spectral.
  const auto& stages = ctx_.pf.stage_phases();
  constexpr std::size_t k = pencil::parallel_fft::kStageRows;
  for (const auto& p : ctx_.timers.phases()) {
    add(p, p.depth);
    if (p.name != "to_physical" && p.name != "to_spectral") continue;
    const std::size_t first = p.name == "to_physical" ? 0 : k;
    for (std::size_t i = first; i < first + k; ++i)
      add(stages[i], p.depth + 1);
  }
  // Workspace high-water marks and (process-wide) block-pool telemetry.
  for (const auto& u : ctx_.ws.usage())
    t.workspace.push_back({u.name, u.capacity_bytes, u.peak_bytes});
  t.pool = counters::pool_totals();
  return t;
}

}  // namespace pcf::core
