#include "core/stages/nonlinear_stage.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/cmul.hpp"

namespace pcf::core {

namespace {

/// Calls fn(ids, nb) for the active (non-skipped) modes of [mb, me) in
/// blocks of nb <= kModeBlock; only the last block may be short.
template <class Fn>
void for_mode_blocks(const mode_tables& mt, std::size_t mb, std::size_t me,
                     Fn&& fn) {
  std::size_t ids[kModeBlock];
  std::size_t nb = 0;
  for (std::size_t m = mb; m < me; ++m) {
    if (mt.skip[m]) continue;
    ids[nb++] = m;
    if (nb == kModeBlock) {
      fn(ids, nb);
      nb = 0;
    }
  }
  if (nb > 0) fn(ids, nb);
}

/// Packs the lines of modes ids[0..nb) of field f into a panel: row i of
/// line r goes to p[i * nb + r].
void gather(const field_state& st, const aligned_buffer<cplx>& f,
            const std::size_t* ids, std::size_t nb, cplx* p) {
  for (std::size_t r = 0; r < nb; ++r) {
    const cplx* src = st.line(f, ids[r]);
    for (std::size_t i = 0; i < st.n; ++i) p[i * nb + r] = src[i];
  }
}

/// The inverse of gather: panel p back to the lines of field f.
void scatter(const cplx* p, const std::size_t* ids, std::size_t nb,
             field_state& st, aligned_buffer<cplx>& f) {
  for (std::size_t r = 0; r < nb; ++r) {
    cplx* dst = st.line(f, ids[r]);
    for (std::size_t i = 0; i < st.n; ++i) dst[i] = p[i * nb + r];
  }
}

}  // namespace

nonlinear_stage::nonlinear_stage(stage_context& ctx, phase_timer::id parent)
    : ctx_(ctx),
      cfl_maxes_(ctx.ws.shared().alloc<double>(
          static_cast<std::size_t>(ctx.pool.num_threads()))),
      ph_run_(ctx.timers.add("nonlinear", parent)),
      ph_vel_(ctx.timers.add("velocities", ph_run_)),
      ph_to_phys_(ctx.timers.add("to_physical", ph_run_)),
      ph_prod_(ctx.timers.add("products", ph_run_)),
      ph_to_spec_(ctx.timers.add("to_spectral", ph_run_)),
      ph_asm_(ctx.timers.add("assemble", ph_run_)) {}

void nonlinear_stage::rebind_workspace() {
  cfl_maxes_ = ctx_.ws.shared().alloc<double>(
      static_cast<std::size_t>(ctx_.pool.num_threads()));
}

void nonlinear_stage::run() {
  phase_timer::section sec(ctx_.timers, ph_run_);
  compute_velocities();
  velocities_to_physical();
  compute_products();
  products_to_spectral();
  assemble();
}

void nonlinear_stage::compute_velocities() {
  phase_timer::section sec(ctx_.timers, ph_vel_);
  const auto& mt = ctx_.modes;
  auto& st = ctx_.state;
  const auto& ops = ctx_.ops;
  const std::size_t n = mt.n;
  std::atomic<int> tid_counter{0};
  ctx_.pool.run(mt.nmodes, [&](std::size_t mb, std::size_t me) {
    const auto tid = static_cast<std::size_t>(tid_counter.fetch_add(1));
    workspace_lane::scope scratch(ctx_.ws.thread(tid));
    auto& lane = ctx_.ws.thread(tid);
    cplx* cv = lane.alloc<cplx>(n * kModeBlock);
    cplx* co = lane.alloc<cplx>(n * kModeBlock);
    cplx* dv = lane.alloc<cplx>(n * kModeBlock);
    cplx* om = lane.alloc<cplx>(n * kModeBlock);
    cplx* vv = lane.alloc<cplx>(n * kModeBlock);
    double* pts = lane.alloc<double>(n);
    for (std::size_t m = mb; m < me; ++m) {
      if (!mt.skip[m]) continue;
      // Skipped modes are zero, except that the mean profiles (U, W and
      // each scalar's) ride the mean mode's line.
      const bool mean = mt.has_mean && m == mt.mean_idx;
      for (auto& sc : st.scalars) {
        cplx* ths = st.line(sc.th_s, m);
        std::fill_n(ths, n, cplx{0, 0});
        if (mean) {
          ops.to_points(sc.c_T.data(), pts);
          for (std::size_t i = 0; i < n; ++i) ths[i] = pts[i];
        }
      }
      cplx* us = st.line(st.u_s, m);
      cplx* ws = st.line(st.w_s, m);
      std::fill_n(us, n, cplx{0, 0});
      std::fill_n(st.line(st.v_s, m), n, cplx{0, 0});
      std::fill_n(ws, n, cplx{0, 0});
      if (mean) {
        ops.to_points(st.c_U.data(), pts);
        for (std::size_t i = 0; i < n; ++i) us[i] = pts[i];
        ops.to_points(st.c_W.data(), pts);
        for (std::size_t i = 0; i < n; ++i) ws[i] = pts[i];
      }
    }
    for_mode_blocks(mt, mb, me, [&](const std::size_t* ids, std::size_t nb) {
      const int lines = static_cast<int>(nb);
      gather(st, st.c_v, ids, nb, cv);
      gather(st, st.c_om, ids, nb, co);
      ops.deriv1_points(cv, dv, lines);
      ops.to_points(co, om, lines);
      ops.to_points(cv, vv, lines);
      for (std::size_t r = 0; r < nb; ++r) {
        const std::size_t m = ids[r];
        const double k2 = mt.kx[m] * mt.kx[m] + mt.kz[m] * mt.kz[m];
        // u = i kx/k2 v' - i kz/k2 omega, w = i kz/k2 v' + i kx/k2 omega.
        const double ax = mt.kx[m] / k2, az = mt.kz[m] / k2;
        cplx* us = st.line(st.u_s, m);
        cplx* ws = st.line(st.w_s, m);
        for (std::size_t i = 0; i < n; ++i) {
          const cplx d = dv[i * nb + r], o = om[i * nb + r];
          us[i] = cmul(0.0, ax, d) - cmul(0.0, az, o);
          ws[i] = cmul(0.0, az, d) + cmul(0.0, ax, o);
        }
      }
      scatter(vv, ids, nb, st, st.v_s);
      // Scalars at the collocation points, through the c_v panels.
      for (auto& sc : st.scalars) {
        gather(st, sc.c_th, ids, nb, cv);
        ops.to_points(cv, vv, lines);
        scatter(vv, ids, nb, st, sc.th_s);
      }
    });
  });
}

void nonlinear_stage::velocities_to_physical() {
  phase_timer::section sec(ctx_.timers, ph_to_phys_);
  auto& st = ctx_.state;
  // Fixed-size pointer tables (kMaxScalars-bounded) keep this hot path
  // allocation-free; the scalars ride the same aggregated exchange as the
  // velocity components.
  const std::size_t nsc = st.scalars.size();
  const cplx* specs[3 + kMaxScalars] = {st.u_s.data(), st.v_s.data(),
                                        st.w_s.data()};
  double* phys[3 + kMaxScalars] = {st.u_p.data(), st.v_p.data(),
                                   st.w_p.data()};
  for (std::size_t s = 0; s < nsc; ++s) {
    specs[3 + s] = st.scalars[s].th_s.data();
    phys[3 + s] = st.scalars[s].th_p.data();
  }
  ctx_.pf.to_physical_batch(specs, phys, 3 + nsc);
}

void nonlinear_stage::compute_products() {
  phase_timer::section sec(ctx_.timers, ph_prod_);
  auto& st = ctx_.state;
  const auto& d = ctx_.d;
  const std::size_t ps = d.x_pencil_real_elems();
  const double dx = ctx_.cfg.lx / static_cast<double>(d.nxf);
  const double dz = ctx_.cfg.lz / static_cast<double>(d.nzf);
  double dy_min = 2.0;
  const auto& pts = ctx_.ops.points();
  for (std::size_t i = 1; i < pts.size(); ++i)
    dy_min = std::min(dy_min, pts[i] - pts[i - 1]);
  const auto nthreads = static_cast<std::size_t>(ctx_.pool.num_threads());
  std::fill_n(cfl_maxes_, nthreads, 0.0);
  std::atomic<int> tid_counter{0};
  ctx_.pool.run(ps, [&](std::size_t b, std::size_t e) {
    const int tid = tid_counter.fetch_add(1);
    double mx = 0.0;
    for (std::size_t i = b; i < e; ++i) {
      const double u = st.u_p[i], v = st.v_p[i], w = st.w_p[i];
      st.f1[i] = u * u - v * v;
      st.f2[i] = u * v;
      st.f3[i] = u * w;
      st.f4[i] = v * w;
      st.f5[i] = w * w - v * v;
      mx = std::max(mx, std::abs(u) / dx + std::abs(v) / dy_min +
                            std::abs(w) / dz);
    }
    cfl_maxes_[static_cast<std::size_t>(tid)] = mx;
    // Scalar advective fluxes u theta / v theta / w theta, after the
    // velocity loop so the CFL kernel above is untouched.
    for (auto& sc : st.scalars)
      for (std::size_t i = b; i < e; ++i) {
        const double th = sc.th_p[i];
        sc.gu[i] = st.u_p[i] * th;
        sc.gv[i] = st.v_p[i] * th;
        sc.gw[i] = st.w_p[i] * th;
      }
  });
  st.cfl_local = 0.0;
  for (std::size_t t = 0; t < nthreads; ++t)
    st.cfl_local = std::max(st.cfl_local, cfl_maxes_[t] * ctx_.cfg.dt);
}

void nonlinear_stage::products_to_spectral() {
  phase_timer::section sec(ctx_.timers, ph_to_spec_);
  auto& st = ctx_.state;
  const std::size_t nsc = st.scalars.size();
  const double* prods[5 + 3 * kMaxScalars] = {st.f1.data(), st.f2.data(),
                                              st.f3.data(), st.f4.data(),
                                              st.f5.data()};
  cplx* specs[5 + 3 * kMaxScalars] = {st.q1.data(), st.q2.data(),
                                      st.q3.data(), st.q4.data(),
                                      st.q5.data()};
  for (std::size_t s = 0; s < nsc; ++s) {
    auto& sc = st.scalars[s];
    prods[5 + 3 * s + 0] = sc.gu.data();
    prods[5 + 3 * s + 1] = sc.gv.data();
    prods[5 + 3 * s + 2] = sc.gw.data();
    specs[5 + 3 * s + 0] = sc.qu.data();
    specs[5 + 3 * s + 1] = sc.qv.data();
    specs[5 + 3 * s + 2] = sc.qw.data();
  }
  ctx_.pf.to_spectral_batch(prods, specs, 5 + 3 * nsc);
}

void nonlinear_stage::assemble() {
  phase_timer::section sec(ctx_.timers, ph_asm_);
  const auto& mt = ctx_.modes;
  auto& st = ctx_.state;
  const auto& ops = ctx_.ops;
  const std::size_t n = mt.n;
  // h_v and h_g are assembled into the velocity work buffers (free once
  // the products are formed); the mean forcing of this substep starts from
  // zero every call, exactly like the zero-initialized locals it replaced.
  aligned_buffer<cplx>& hv = st.u_s;
  aligned_buffer<cplx>& hg = st.v_s;
  std::fill_n(st.hU, n, 0.0);
  std::fill_n(st.hW, n, 0.0);
  for (auto& sc : st.scalars) std::fill(sc.hT.begin(), sc.hT.end(), 0.0);
  std::atomic<int> tid_counter{0};
  ctx_.pool.run(mt.nmodes, [&](std::size_t mb, std::size_t me) {
    const auto tid = static_cast<std::size_t>(tid_counter.fetch_add(1));
    workspace_lane::scope scratch(ctx_.ws.thread(tid));
    auto& lane = ctx_.ws.thread(tid);
    // Eight panels of kModeBlock lines: the five products' coefficients
    // and three derivatives. The other four derivatives land in the panel
    // of a coefficient already differentiated by then (derivative order
    // below): d2a over c1, d4a over c3, d2b over c5, d4b over c2. c2 and c4
    // stay live until their second derivative.
    cplx* c1 = lane.alloc<cplx>(n * kModeBlock);
    cplx* c2 = lane.alloc<cplx>(n * kModeBlock);
    cplx* c3 = lane.alloc<cplx>(n * kModeBlock);
    cplx* c4 = lane.alloc<cplx>(n * kModeBlock);
    cplx* c5 = lane.alloc<cplx>(n * kModeBlock);
    cplx* d1 = lane.alloc<cplx>(n * kModeBlock);
    cplx* d3 = lane.alloc<cplx>(n * kModeBlock);
    cplx* d5 = lane.alloc<cplx>(n * kModeBlock);
    cplx* d2a = c1;
    cplx* d4a = c3;
    cplx* d2b = c5;
    cplx* d4b = c2;
    for (std::size_t m = mb; m < me; ++m) {
      if (!mt.skip[m]) continue;
      // Skipped modes get zero right-hand sides; the mean mode feeds
      // <H1> = -d<uv>/dy, <H3> = -d<vw>/dy and <H_theta> = -d<v theta>/dy
      // (real parts of mode 0) into hU, hW and hT.
      const bool mean = mt.has_mean && m == mt.mean_idx;
      for (auto& sc : st.scalars) {
        std::fill_n(st.line(sc.th_s, m), n, cplx{0, 0});
        if (mean) {
          std::copy_n(st.line(sc.qv, m), n, c1);
          ops.to_coefficients(c1);
          ops.deriv1_points(c1, d1);
          for (std::size_t i = 0; i < n; ++i) sc.hT[i] = -d1[i].real();
        }
      }
      std::fill_n(st.line(hv, m), n, cplx{0, 0});
      std::fill_n(st.line(hg, m), n, cplx{0, 0});
      if (mean) {
        std::copy_n(st.line(st.q2, m), n, c2);
        std::copy_n(st.line(st.q4, m), n, c4);
        ops.to_coefficients(c2);
        ops.to_coefficients(c4);
        ops.deriv1_points(c2, d2a);
        ops.deriv1_points(c4, d4a);
        for (std::size_t i = 0; i < n; ++i) {
          st.hU[i] = -d2a[i].real();
          st.hW[i] = -d4a[i].real();
        }
      }
    }
    for_mode_blocks(mt, mb, me, [&](const std::size_t* ids, std::size_t nb) {
      const int lines = static_cast<int>(nb);
      gather(st, st.q1, ids, nb, c1);
      gather(st, st.q2, ids, nb, c2);
      gather(st, st.q3, ids, nb, c3);
      gather(st, st.q4, ids, nb, c4);
      gather(st, st.q5, ids, nb, c5);
      ops.to_coefficients(c1, lines);
      ops.to_coefficients(c2, lines);
      ops.to_coefficients(c3, lines);
      ops.to_coefficients(c4, lines);
      ops.to_coefficients(c5, lines);
      ops.deriv1_points(c1, d1, lines);
      ops.deriv1_points(c2, d2a, lines);
      ops.deriv1_points(c3, d3, lines);
      ops.deriv1_points(c4, d4a, lines);
      ops.deriv1_points(c5, d5, lines);
      ops.deriv2_points(c2, d2b, lines);
      ops.deriv2_points(c4, d4b, lines);
      for (std::size_t r = 0; r < nb; ++r) {
        const std::size_t m = ids[r];
        const double kxm = mt.kx[m], kzm = mt.kz[m];
        const double k2 = kxm * kxm + kzm * kzm;
        // i kx, i kz and i k2 as the complex numbers (0 * k, k), whose
        // real part carries the sign of k as std::complex's i * k does:
        // the signs of zero in the products depend on it.
        const double zx = 0.0 * kxm, zz = 0.0 * kzm, zk = 0.0 * k2;
        const cplx* p1 = st.line(st.q1, m);
        const cplx* p2 = st.line(st.q2, m);
        const cplx* p3 = st.line(st.q3, m);
        const cplx* p4 = st.line(st.q4, m);
        const cplx* p5 = st.line(st.q5, m);
        cplx* hvm = st.line(hv, m);
        cplx* hgm = st.line(hg, m);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t j = i * nb + r;
          // h_g = kx kz (f1 - f5) + (kz^2 - kx^2) f3
          //       - i kz d(f2)/dy + i kx d(f4)/dy
          hgm[i] = kxm * kzm * (p1[i] - p5[i]) +
                   (kzm * kzm - kxm * kxm) * p3[i] - cmul(zz, kzm, d2a[j]) +
                   cmul(zx, kxm, d4a[j]);
          // h_v = i k2 (kx f2 + kz f4) - d/dy [ kx^2 f1 + 2 kx kz f3
          //       + kz^2 f5 - i kx d(f2)/dy - i kz d(f4)/dy ]
          hvm[i] = cmul(zk, k2, kxm * p2[i] + kzm * p4[i]) -
                   (kxm * kxm * d1[j] + 2.0 * kxm * kzm * d3[j] +
                    kzm * kzm * d5[j] - cmul(zx, kxm, d2b[j]) -
                    cmul(zz, kzm, d4b[j]));
        }
      }
      // Scalar right-hand sides h_theta = -(i kx (u th)^ + d(v th)^/dy +
      // i kz (w th)^), assembled into th_s (free once the products are
      // formed, mirroring h_v / h_g into u_s / v_s), through the c1/d1
      // panels (free once h_v and h_g are formed).
      for (auto& sc : st.scalars) {
        gather(st, sc.qv, ids, nb, c1);
        ops.to_coefficients(c1, lines);
        ops.deriv1_points(c1, d1, lines);
        for (std::size_t r = 0; r < nb; ++r) {
          const std::size_t m = ids[r];
          const cplx* pu = st.line(sc.qu, m);
          const cplx* pw = st.line(sc.qw, m);
          cplx* hthm = st.line(sc.th_s, m);
          for (std::size_t i = 0; i < n; ++i)
            hthm[i] = -(cmul(0.0, mt.kx[m], pu[i]) + d1[i * nb + r] +
                        cmul(0.0, mt.kz[m], pw[i]));
        }
      }
    });
  });
}

}  // namespace pcf::core
