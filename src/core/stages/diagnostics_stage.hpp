// Diagnostics stage: end-of-step CFL reduction, the adaptive-dt
// controller, and the per-stage timing report.
#pragma once

#include "core/stages/stage_context.hpp"

namespace pcf::core {

class diagnostics_stage {
 public:
  /// Registers "reduce" under `parent` (the CFL allreduce + controller).
  diagnostics_stage(stage_context& ctx, phase_timer::id parent);

  /// Adaptive time stepping (optional); target <= 0 disables it.
  void set_cfl_target(double target, double dt_min, double dt_max);
  /// The controller settings (checkpointed with the state).
  [[nodiscard]] double cfl_target() const { return cfl_target_; }
  [[nodiscard]] double dt_min() const { return dt_min_; }
  [[nodiscard]] double dt_max() const { return dt_max_; }

  /// End-of-step work: reduce the local CFL estimates into
  /// state.cfl_global and run the proportional dt controller. Returns the
  /// new dt if it should change, 0 to keep the current one — the caller
  /// owns applying it (and invalidating the cached solvers), since dt
  /// lives in the simulation's config.
  [[nodiscard]] double finish_step();

  /// Assemble the public timing report from the phase tree: the
  /// hierarchical per-stage rows plus the legacy flat fields (transpose /
  /// fft from the pencil kernel's own timers; advance = the compute
  /// phases, excluding the transforms, matching the pre-stage breakdown).
  [[nodiscard]] step_timings report() const;

 private:
  stage_context& ctx_;
  double cfl_target_ = 0.0, dt_min_ = 0.0, dt_max_ = 0.0;
  phase_timer::id ph_reduce_;
};

}  // namespace pcf::core
