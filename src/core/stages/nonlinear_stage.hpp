// Nonlinear stage of an RK3 substep (paper steps (a)-(f)).
//
// From the evolved (v, omega, phi) state: spectral velocities at the
// collocation points, one batched spectral -> physical transform for all
// three components, pointwise quadratic products + the convective CFL
// estimate, one batched physical -> spectral transform for all five
// products, and the KMM right-hand sides h_v / h_g. Configured passive
// scalars ride the same two batched transforms (3 + S fields down,
// 5 + 3S fields up) and assemble their advective right-hand sides
// h_theta alongside.
#pragma once

#include "core/stages/stage_context.hpp"

namespace pcf::core {

class nonlinear_stage {
 public:
  /// Registers its phase tree under `parent` ("nonlinear" with children
  /// velocities / to_physical / products / to_spectral / assemble) and
  /// checks the per-thread CFL maxima out of the shared lane (permanent).
  nonlinear_stage(stage_context& ctx, phase_timer::id parent);

  /// The full stage. On return state.u_s holds h_v, state.v_s holds h_g
  /// (the velocity work buffers are free once the products are formed) and
  /// state.hU / state.hW hold the mean forcing of this substep.
  void run();

  // Individual sub-steps, public so the per-stage unit tests can drive
  // them against hand-built fields. run() is their exact composition.

  /// Re-check the per-thread CFL maxima out of the shared lane after a
  /// workspace release/reacquire cycle (the simulation's resume path).
  /// Must run after field_state::rebind_workspace, matching the
  /// construction order on the lane.
  void rebind_workspace();

  /// Spectral velocities at the collocation points from the evolved state:
  /// u = (i kx v' - i kz omega) / k2,  w = (i kz v' + i kx omega) / k2.
  /// The wall-normal applies run on panels of kModeBlock active modes.
  void compute_velocities();

  /// All three velocity components spectral -> physical through ONE
  /// batched transform (one aggregated exchange per transpose stage
  /// instead of three).
  void velocities_to_physical();

  /// Pointwise quadratic products on the dealiased physical grid, plus the
  /// convective CFL estimate (into state.cfl_local).
  void compute_products();

  /// All five products physical -> spectral through one batched transform.
  void products_to_spectral();

  /// Assemble the KMM nonlinear right-hand sides h_v (into state.u_s) and
  /// h_g (into state.v_s) at the collocation points from the transformed
  /// products; mean forcing into state.hU / state.hW. The A0 solves and
  /// A1/A2 applies run on panels of kModeBlock active modes.
  void assemble();

 private:
  stage_context& ctx_;
  double* cfl_maxes_;  // per-pool-thread partial maxima (shared lane)
  phase_timer::id ph_run_, ph_vel_, ph_to_phys_, ph_prod_, ph_to_spec_,
      ph_asm_;
};

}  // namespace pcf::core
