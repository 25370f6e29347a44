#include "core/stages/implicit_stage.hpp"

#include <algorithm>
#include <atomic>

namespace pcf::core {

implicit_stage::implicit_stage(stage_context& ctx, phase_timer::id parent)
    : ctx_(ctx),
      ph_run_(ctx.timers.add("implicit", parent)),
      ph_build_(ctx.timers.add("build", ph_run_)) {
  const std::size_t n = ctx.modes.n;
  // Group scalars by Prandtl number (first-occurrence order) so scalars
  // with equal diffusivity share one factored operator and one blocked
  // multi-RHS pass per mode.
  const auto& scalars = ctx.cfg.scenario.scalars;
  for (std::size_t s = 0; s < scalars.size(); ++s) {
    const double kappa = 1.0 / (ctx.cfg.re_tau * scalars[s].prandtl);
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [&](const scalar_group& g) {
                             return g.kappa == kappa;
                           });
    if (it == groups_.end()) {
      groups_.push_back({kappa, 0, 0});
      it = groups_.end() - 1;
    }
    it->count += 1;
  }
  std::size_t start = 0;
  for (auto& g : groups_) {
    g.start = start;
    start += g.count;
  }
  order_.resize(scalars.size());
  std::vector<std::size_t> fill(groups_.size(), 0);
  for (std::size_t s = 0; s < scalars.size(); ++s) {
    const double kappa = 1.0 / (ctx.cfg.re_tau * scalars[s].prandtl);
    for (std::size_t g = 0; g < groups_.size(); ++g)
      if (groups_[g].kappa == kappa) {
        order_[groups_[g].start + fill[g]++] = s;
        break;
      }
  }
  for (auto& a : sc_arena_) a.resize(groups_.size());

  panels_.resize(ctx.ws.num_thread_lanes());
  for (std::size_t t = 0; t < panels_.size(); ++t)
    panels_[t] = ctx.ws.thread(t).alloc<cplx>((3 + scalars.size()) * n);
}

void implicit_stage::invalidate() {
  for (auto& a : arena_) a.clear();
  for (auto& v : sc_arena_)
    for (auto& a : v) a.clear();
}

void implicit_stage::drop_arenas() {
  for (auto& a : arena_) a.reset();
  for (auto& v : sc_arena_)
    for (auto& a : v) a.reset();
}

void implicit_stage::rebind_workspace() {
  const std::size_t n = ctx_.modes.n;
  for (std::size_t t = 0; t < panels_.size(); ++t)
    panels_[t] = ctx_.ws.thread(t).alloc<cplx>(
        (3 + ctx_.cfg.scenario.scalars.size()) * n);
}

void implicit_stage::run(int i) {
  phase_timer::section sec(ctx_.timers, ph_run_);
  const auto& mt = ctx_.modes;
  auto& st = ctx_.state;
  const auto& ops = ctx_.ops;
  const std::size_t n = mt.n;
  aligned_buffer<cplx>& hv = st.u_s;
  aligned_buffer<cplx>& hg = st.v_s;

  const double nu = 1.0 / ctx_.cfg.re_tau;
  const double ca = rk3::kAlpha[i] * ctx_.cfg.dt * nu;
  const double cb = rk3::kBeta[i] * ctx_.cfg.dt * nu;
  const double g = rk3::kGamma[i] * ctx_.cfg.dt;
  const double z = rk3::kZeta[i] * ctx_.cfg.dt;

  // (Re)build the substep's solver arena if dt changed or it was never
  // built; assembly and factorization are parallel on the advance pool.
  if (!arena_[i].built() || arena_[i].coeff() != cb) {
    phase_timer::section build(ctx_.timers, ph_build_);
    arena_[i].build(ops, cb, mt.k2s, ctx_.pool);
  }
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    scalar_arena& a = sc_arena_[i][gi];
    const double cbs = rk3::kBeta[i] * ctx_.cfg.dt * groups_[gi].kappa;
    if (!a.built() || a.coeff() != cbs) {
      phase_timer::section build(ctx_.timers, ph_build_);
      a.build(ops, cbs, mt.k2s, ctx_.pool);
    }
  }

  std::atomic<int> tid_counter{0};
  ctx_.pool.run(mt.nmodes, [&](std::size_t mb, std::size_t me) {
    // Per-thread scratch: 2n-entry RHS panel (omega then phi) plus n for
    // the RHS-operator apply — no allocation inside the substep loop.
    const auto tid = static_cast<std::size_t>(tid_counter.fetch_add(1));
    cplx* panel = panels_[tid];
    cplx* tmp = panel + 2 * n;
    for (std::size_t m = mb; m < me; ++m) {
      if (mt.skip[m]) {
        if (!(mt.has_mean && m == mt.mean_idx)) {
          // Spanwise Nyquist modes are held at zero.
          std::fill_n(st.line(st.c_v, m), n, cplx{0, 0});
          std::fill_n(st.line(st.c_om, m), n, cplx{0, 0});
          std::fill_n(st.line(st.c_phi, m), n, cplx{0, 0});
          for (auto& sc : st.scalars)
            std::fill_n(st.line(sc.c_th, m), n, cplx{0, 0});
        }
        continue;
      }
      const double k2 = mt.k2s[m];
      // Assemble both right-hand sides of the fused solve: omega in
      // panel rows [0, n), phi in rows [n, 2n).
      ops.apply_rhs_operator(ca, k2, st.line(st.c_om, m), panel, tmp);
      const cplx* hgm = st.line(hg, m);
      cplx* hgp = st.line(st.hg_prev, m);
      for (std::size_t j = 0; j < n; ++j)
        panel[j] += g * hgm[j] + z * hgp[j];
      ops.apply_rhs_operator(ca, k2, st.line(st.c_phi, m), panel + n, tmp);
      const cplx* hvm = st.line(hv, m);
      cplx* hvp = st.line(st.hv_prev, m);
      for (std::size_t j = 0; j < n; ++j)
        panel[n + j] += g * hvm[j] + z * hvp[j];
      // One blocked 2-RHS Helmholtz solve covers omega and phi, then the
      // Poisson recovery of v with the influence correction.
      arena_[i].solve_block(static_cast<int>(m), panel, st.line(st.c_om, m),
                            st.line(st.c_phi, m), st.line(st.c_v, m));
      // Save nonlinear history for the next substep.
      std::copy_n(hgm, n, hgp);
      std::copy_n(hvm, n, hvp);
      // Passive scalars: assemble every scalar's diffusive RHS into its
      // panel row, then one blocked multi-RHS band pass per Prandtl group
      // (homogeneous Dirichlet — wall values live entirely in the mean).
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        const scalar_group& grp = groups_[gi];
        const double cas = rk3::kAlpha[i] * ctx_.cfg.dt * grp.kappa;
        cplx* rows = panel + (3 + grp.start) * n;
        for (std::size_t r = 0; r < grp.count; ++r) {
          auto& sc = st.scalars[order_[grp.start + r]];
          cplx* row = rows + r * n;
          ops.apply_rhs_operator(cas, k2, st.line(sc.c_th, m), row, tmp);
          const cplx* hm = st.line(sc.th_s, m);
          cplx* hp = st.line(sc.hth_prev, m);
          for (std::size_t j = 0; j < n; ++j)
            row[j] += g * hm[j] + z * hp[j];
          std::copy_n(hm, n, hp);
        }
        sc_arena_[i][gi].solve(static_cast<int>(m), rows, grp.count);
        for (std::size_t r = 0; r < grp.count; ++r)
          std::copy_n(rows + r * n, n,
                      st.line(st.scalars[order_[grp.start + r]].c_th, m));
      }
    }
  });
}

}  // namespace pcf::core
