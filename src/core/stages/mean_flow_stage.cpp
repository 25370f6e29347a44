#include "core/stages/mean_flow_stage.hpp"

#include <algorithm>

namespace pcf::core {

mean_flow_stage::mean_flow_stage(stage_context& ctx, phase_timer::id parent)
    : ctx_(ctx), ph_run_(ctx.timers.add("mean_flow", parent)) {
  const std::size_t nsc = ctx.cfg.scenario.scalars.size();
  for (int i = 0; i < 3; ++i) {
    sc_helm_[i].resize(nsc);
    sc_helm_c_[i].assign(nsc, 0.0);
  }
  if (ctx.cfg.scenario.target_bulk > 0.0) {
    target_ = ctx.cfg.scenario.target_bulk;
    target_set_ = true;
  }
}

void mean_flow_stage::invalidate() {
  for (auto& h : helm_) h.reset();
  for (auto& v : sc_helm_)
    for (auto& h : v) h.reset();
  for (auto& r : resp_) r.clear();
  for (auto& c : resp_c_) c = 0.0;
}

void mean_flow_stage::restore_forcing(double target, double last) {
  target_ = target;
  target_set_ = target != 0.0;
  last_forcing_ = last;
}

void mean_flow_stage::run(int i) {
  phase_timer::section sec(ctx_.timers, ph_run_);
  if (!ctx_.modes.has_mean) return;
  auto& st = ctx_.state;
  const auto& ops = ctx_.ops;
  const auto& scen = ctx_.cfg.scenario;
  const std::size_t n = ctx_.modes.n;

  const double nu = 1.0 / ctx_.cfg.re_tau;
  const double ca = rk3::kAlpha[i] * ctx_.cfg.dt * nu;
  const double cb = rk3::kBeta[i] * ctx_.cfg.dt * nu;
  const double g = rk3::kGamma[i] * ctx_.cfg.dt;
  const double z = rk3::kZeta[i] * ctx_.cfg.dt;

  // Mean flow: [A0 - cb nu' A2] c = [A0 + ca nu' A2] c + dt (g (h + F)
  // + z (h_prev + F)) on the interior rows; the constant forcing F rides
  // with the nonlinear weights since gamma_i + zeta_i sums to 1 over a
  // step. The identity boundary rows carry the Dirichlet wall values.
  if (!helm_[i] || helm_c_[i] != cb) {
    helm_[i].emplace(ops.helmholtz(cb, 0.0));
    helm_[i]->factorize();
    helm_c_[i] = cb;
  }
  const banded::compact_banded& mean_op = *helm_[i];
  workspace_lane::scope scratch(ctx_.ws.shared());
  double* rhs = ctx_.ws.shared().alloc<double>(n);
  double* t = ctx_.ws.shared().alloc<double>(n);
  // Assemble and solve one mean profile's substep into `rhs` (not yet
  // committed to the state): forcing and nonlinear terms drive the
  // interior rows only, the boundary rows carry the wall values lo / hi.
  auto solve_mean = [&](const banded::compact_banded& op, double ca_c,
                        const std::vector<double>& c, const double* h,
                        const double* h_prev, double force, double lo,
                        double hi) {
    ops.A0().apply(c.data(), rhs);
    ops.A2().apply(c.data(), t);
    for (std::size_t j = 1; j + 1 < n; ++j)
      rhs[j] += ca_c * t[j] + g * (h[j] + force) + z * (h_prev[j] + force);
    rhs[0] = lo;
    rhs[n - 1] = hi;
    op.solve(rhs);
  };

  if (scen.constant_flow_rate()) {
    // Capture the target from the state's own bulk at the first advanced
    // substep when none was configured.
    if (!target_set_) {
      target_ = ops.b().integrate(st.c_U.data()) / 2.0;
      target_set_ = true;
    }
    // The forcing response S solves M S = (gamma_i + zeta_i) dt on the
    // interior with homogeneous walls; it depends only on (substep, dt),
    // keyed on cb like the operator cache.
    if (resp_[i].empty() || resp_c_[i] != cb) {
      resp_[i].assign(n, g + z);
      resp_[i][0] = 0.0;
      resp_[i][n - 1] = 0.0;
      mean_op.solve(resp_[i].data());
      resp_bulk_[i] = ops.b().integrate(resp_[i].data()) / 2.0;
      resp_c_[i] = cb;
    }
    // Solve once without forcing, then pick F by linearity so the bulk
    // velocity lands on the target exactly.
    solve_mean(mean_op, ca, st.c_U, st.hU, st.hU_prev.data(), 0.0,
               scen.wall_u_lo, scen.wall_u_hi);
    const double u0_bulk = ops.b().integrate(rhs) / 2.0;
    const double f = (target_ - u0_bulk) / resp_bulk_[i];
    for (std::size_t j = 0; j < n; ++j)
      st.c_U[j] = rhs[j] + f * resp_[i][j];
    last_forcing_ = f;
  } else {
    solve_mean(mean_op, ca, st.c_U, st.hU, st.hU_prev.data(),
               ctx_.cfg.forcing, scen.wall_u_lo, scen.wall_u_hi);
    std::copy_n(rhs, n, st.c_U.data());
    last_forcing_ = ctx_.cfg.forcing;
  }
  std::copy_n(st.hU, n, st.hU_prev.begin());

  solve_mean(mean_op, ca, st.c_W, st.hW, st.hW_prev.data(), 0.0,
             scen.wall_w_lo, scen.wall_w_hi);
  std::copy_n(rhs, n, st.c_W.data());
  std::copy_n(st.hW, n, st.hW_prev.begin());

  // Passive-scalar means: same solve shape per scalar with its own
  // diffusivity and wall values (no volumetric forcing).
  for (std::size_t s = 0; s < st.scalars.size(); ++s) {
    auto& sc = st.scalars[s];
    const auto& spec = scen.scalars[s];
    const double kappa = 1.0 / (ctx_.cfg.re_tau * spec.prandtl);
    const double cas = rk3::kAlpha[i] * ctx_.cfg.dt * kappa;
    const double cbs = rk3::kBeta[i] * ctx_.cfg.dt * kappa;
    if (!sc_helm_[i][s] || sc_helm_c_[i][s] != cbs) {
      sc_helm_[i][s].emplace(ops.helmholtz(cbs, 0.0));
      sc_helm_[i][s]->factorize();
      sc_helm_c_[i][s] = cbs;
    }
    solve_mean(*sc_helm_[i][s], cas, sc.c_T, sc.hT.data(),
               sc.hT_prev.data(), 0.0, spec.wall_lo, spec.wall_hi);
    std::copy_n(rhs, n, sc.c_T.data());
    std::copy_n(sc.hT.data(), n, sc.hT_prev.begin());
  }
}

}  // namespace pcf::core
