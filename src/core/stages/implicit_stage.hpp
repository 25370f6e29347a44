// Implicit stage of an RK3 substep (paper steps (g)-(i)): per-wavenumber
// viscous solves for omega and phi, then the Poisson recovery of v.
#pragma once

#include <complex>
#include <vector>

#include "core/mode_solver.hpp"
#include "core/stages/stage_context.hpp"

namespace pcf::core {

class implicit_stage {
 public:
  /// Registers "implicit" (with child "build") under `parent`. The stage
  /// keeps no permanent workspace: each advance-pool thread checks its
  /// block panels out of its thread lane for the duration of run().
  implicit_stage(stage_context& ctx, phase_timer::id parent);

  /// Advance every non-mean mode through substep i. Reads h_v from
  /// state.u_s and h_g from state.v_s (where the nonlinear stage leaves
  /// them), updates c_om / c_phi / c_v and saves the nonlinear history.
  /// The active modes advance in blocks of kModeBlock, split across the
  /// pool by block. Passive scalars advance block by block too, grouped by
  /// Prandtl number so equal-diffusivity scalars share one band pass.
  void run(int i);

  /// Drop the Helmholtz sections of the cached arenas (call when dt
  /// changes); the shared Poisson section stays.
  void invalidate();

  /// Drop the arenas AND free their slabs (the suspend path: parked runs
  /// must not pin the factored bands). Rebuilt lazily on the next run().
  void drop_arenas();

  /// Complex entries of thread-lane scratch run() checks out per thread:
  /// the block panels of the velocity or of the widest scalar group.
  [[nodiscard]] static std::size_t scratch_elems(const channel_config& c);

 private:
  stage_context& ctx_;
  // One arena for the three RK substeps: a shared Poisson section and one
  // Helmholtz section per beta_i * nu * dt; valid while dt is fixed.
  solver_arena arena_;
  // Scalars grouped by Prandtl number; `order_` lists scalar indices
  // group-major so each group's fields are contiguous.
  struct scalar_group {
    double kappa = 0.0;                // 1 / (re_tau * prandtl)
    std::size_t start = 0, count = 0;  // slice of order_
  };
  std::vector<scalar_group> groups_;
  std::vector<std::size_t> order_;
  // Per-substep, per-group factored scalar Helmholtz arenas (coefficient
  // beta_i dt kappa_g differs per substep and per group).
  std::vector<scalar_arena> sc_arena_[3];
  phase_timer::id ph_run_, ph_build_;
};

}  // namespace pcf::core
