#include "core/stages/implicit_stage.hpp"

#include <algorithm>
#include <atomic>

namespace pcf::core {

implicit_stage::implicit_stage(stage_context& ctx, phase_timer::id parent)
    : ctx_(ctx),
      ph_run_(ctx.timers.add("implicit", parent)),
      ph_build_(ctx.timers.add("build", ph_run_)) {
  // Group scalars by Prandtl number (first-occurrence order) so scalars
  // with equal diffusivity share one factored operator and one band pass
  // per mode block.
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
}

std::size_t implicit_stage::scratch_elems(const channel_config& c) {
  // The widest Prandtl group: scalars whose diffusivities compare equal.
  const auto& scalars = c.scenario.scalars;
  std::size_t widest = 2;  // the velocity's omega + phi
  for (const auto& a : scalars) {
    const double kappa = 1.0 / (c.re_tau * a.prandtl);
    const auto same = std::count_if(
        scalars.begin(), scalars.end(), [&](const scalar_spec& b) {
          return 1.0 / (c.re_tau * b.prandtl) == kappa;
        });
    widest = std::max(widest, static_cast<std::size_t>(same));
  }
  return advance_scratch(static_cast<std::size_t>(c.ny), widest);
}

void implicit_stage::invalidate() {
  arena_.invalidate();
  for (auto& v : sc_arena_)
    for (auto& a : v) a.invalidate();
}

void implicit_stage::drop_arenas() {
  arena_.reset();
  for (auto& v : sc_arena_)
    for (auto& a : v) a.reset();
}

void implicit_stage::run(int i) {
  phase_timer::section sec(ctx_.timers, ph_run_);
  const auto& mt = ctx_.modes;
  auto& st = ctx_.state;
  const auto& ops = ctx_.ops;
  const std::size_t n = mt.n;

  const double nu = 1.0 / ctx_.cfg.re_tau;
  const double dt = ctx_.cfg.dt;
  const double g = rk3::kGamma[i] * dt;
  const double z = rk3::kZeta[i] * dt;

  // (Re)build the arena for all three substeps if dt changed or it was
  // never built; assembly and factorization are parallel on the pool.
  const double cs[3] = {rk3::kBeta[0] * dt * nu, rk3::kBeta[1] * dt * nu,
                        rk3::kBeta[2] * dt * nu};
  if (!arena_.built() || arena_.coeff(i) != cs[i]) {
    phase_timer::section build(ctx_.timers, ph_build_);
    arena_.build(ops, cs, mt.k2s, ctx_.pool);
  }
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    scalar_arena& a = sc_arena_[i][gi];
    const double cbs = rk3::kBeta[i] * dt * groups_[gi].kappa;
    if (!a.built() || a.coeff() != cbs) {
      phase_timer::section build(ctx_.timers, ph_build_);
      a.build(ops, cbs, mt.k2s, ctx_.pool);
    }
  }

  // Spanwise Nyquist modes are held at zero; the mean mode is the mean
  // flow stage's.
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    if (!mt.skip[m] || (mt.has_mean && m == mt.mean_idx)) continue;
    std::fill_n(st.line(st.c_v, m), n, cplx{0, 0});
    std::fill_n(st.line(st.c_om, m), n, cplx{0, 0});
    std::fill_n(st.line(st.c_phi, m), n, cplx{0, 0});
    for (auto& sc : st.scalars) std::fill_n(st.line(sc.c_th, m), n, cplx{0, 0});
  }

  // h_g drives omega and h_v drives phi (the nonlinear stage leaves them
  // in u_s / v_s); each scalar's h_theta is in its th_s.
  const substep_weights wv{rk3::kAlpha[i] * dt * nu, g, z};
  const field_lines om{st.c_om.data(), st.v_s.data(), st.hg_prev.data()};
  const field_lines phi{st.c_phi.data(), st.u_s.data(), st.hv_prev.data()};
  field_lines sc[kMaxScalars];
  for (std::size_t k = 0; k < order_.size(); ++k) {
    auto& s = st.scalars[order_[k]];
    sc[k] = {s.c_th.data(), s.th_s.data(), s.hth_prev.data()};
  }
  const std::size_t scratch = scratch_elems(ctx_.cfg);
  std::atomic<int> tid_counter{0};
  ctx_.pool.run(arena_.blocks(), [&](std::size_t bb, std::size_t be) {
    const auto tid = static_cast<std::size_t>(tid_counter.fetch_add(1));
    workspace_lane::scope panels(ctx_.ws.thread(tid));
    cplx* work = ctx_.ws.thread(tid).alloc<cplx>(scratch);
    for (std::size_t b = bb; b < be; ++b) {
      arena_.advance(i, b, wv, om, phi, st.c_v.data(), work);
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        const scalar_group& grp = groups_[gi];
        const substep_weights ws{rk3::kAlpha[i] * dt * grp.kappa, g, z};
        sc_arena_[i][gi].advance(b, ws, sc + grp.start, grp.count, work);
      }
    }
  });
}

}  // namespace pcf::core
