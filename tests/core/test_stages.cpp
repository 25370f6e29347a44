// Per-stage unit tests of the RK3 pipeline: each stage driven against a
// hand-built stage_context on a small grid, the whole-pipeline bit-identity
// check against the committed golden trace, and the zero-heap-allocation
// guarantee of the hot loop (counting global operator new).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "core/stages/diagnostics_stage.hpp"
#include "core/stages/implicit_stage.hpp"
#include "core/stages/mean_flow_stage.hpp"
#include "core/stages/nonlinear_stage.hpp"
#include "core/stages/stage_context.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: replaces the global operator new for this binary so a
// test can assert that a code region performs no heap allocation. Counting
// is off by default; deallocation is never counted.
namespace {

std::atomic<long> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void* counted_alloc(std::size_t bytes, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p;
  if (align > alignof(std::max_align_t)) {
    const std::size_t rounded = (bytes + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
  } else {
    p = std::malloc(bytes ? bytes : 1);
  }
  if (!p) throw std::bad_alloc{};
  return p;
}

struct alloc_guard {
  alloc_guard() {
    g_alloc_count.store(0);
    g_count_allocs.store(true);
  }
  ~alloc_guard() { g_count_allocs.store(false); }
  [[nodiscard]] long count() const { return g_alloc_count.load(); }
};

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::core::cplx;
using pcf::core::diagnostics_stage;
using pcf::core::field_state;
using pcf::core::field_workspace;
using pcf::core::implicit_stage;
using pcf::core::mean_flow_stage;
using pcf::core::mode_tables;
using pcf::core::nonlinear_stage;
using pcf::core::stage_context;
using pcf::core::wall_normal_operators;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config small_config() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 24;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  return cfg;
}

/// Mirrors channel_dns::impl's wiring so each stage can be driven in
/// isolation against hand-built fields.
struct stage_harness {
  channel_config cfg;
  communicator& world;
  pcf::vmpi::cart2d cart;
  pcf::pencil::decomp d;
  field_workspace ws;
  pcf::pencil::parallel_fft pf;
  wall_normal_operators ops;
  pcf::thread_pool pool;
  mode_tables modes;
  field_state state;
  pcf::phase_timer timers;
  pcf::phase_timer::id ph_step;
  stage_context ctx;
  nonlinear_stage nonlinear;
  implicit_stage implicit;
  mean_flow_stage mean_flow;
  diagnostics_stage diagnostics;

  stage_harness(const channel_config& c, communicator& w)
      : cfg(c),
        world(w),
        cart(w, c.pa, c.pb),
        d(pcf::pencil::grid{c.nx, static_cast<std::size_t>(c.ny), c.nz},
          dns_kernel_config(c), cart.pa(), cart.pb(), cart.coord_a(),
          cart.coord_b()),
        ws(dns_workspace_sizes(c, d), pcf::block_pool::global()),
        pf(pcf::pencil::grid{c.nx, static_cast<std::size_t>(c.ny), c.nz},
           cart, dns_kernel_config(c), ws.transform()),
        ops(c.ny, c.degree, c.stretch),
        pool(std::max(1, c.advance_threads)),
        modes(make_mode_tables(c, d)),
        state(modes, d.x_pencil_real_elems(), ws, c.scenario.scalars.size()),
        timers(world.size() == 1),
        ph_step(timers.add("step")),
        ctx{cfg,   d,     ops, pf, pool,  world,
            modes, state, ws,  timers},
        nonlinear(ctx, ph_step),
        implicit(ctx, ph_step),
        mean_flow(ctx, ph_step),
        diagnostics(ctx, ph_step) {
    state.zero();
  }
};

TEST(Stages, ModeTablesMarkMeanAndNyquist) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    stage_harness h(cfg, world);
    const auto& mt = h.modes;
    ASSERT_GT(mt.nmodes, 0u);
    EXPECT_EQ(mt.n, static_cast<std::size_t>(cfg.ny));
    EXPECT_TRUE(mt.has_mean);  // single rank owns every mode

    const double az = 2.0 * std::acos(-1.0) / cfg.lz;
    const double kz_nyq = -az * static_cast<double>(cfg.nz / 2);
    std::size_t mean_count = 0;
    for (std::size_t m = 0; m < mt.nmodes; ++m) {
      const bool is_mean = mt.kx[m] == 0.0 && mt.kz[m] == 0.0;
      const bool is_nyquist = mt.kz[m] == kz_nyq;
      if (is_mean) {
        ++mean_count;
        EXPECT_EQ(m, mt.mean_idx);
      }
      // skip marks exactly the mean mode and the spanwise Nyquist modes.
      EXPECT_EQ(mt.skip[m] != 0, is_mean || is_nyquist) << "mode " << m;
      // k2s == 0 does double duty marking skipped modes for the solver
      // arena; live modes carry the exact kx^2 + kz^2.
      if (mt.skip[m]) {
        EXPECT_EQ(mt.k2s[m], 0.0) << "mode " << m;
      } else {
        EXPECT_EQ(mt.k2s[m], mt.kx[m] * mt.kx[m] + mt.kz[m] * mt.kz[m])
            << "mode " << m;
      }
    }
    EXPECT_EQ(mean_count, 1u);
  });
}

TEST(Stages, ProductsHandCheckAndCfl) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    stage_harness h(cfg, world);
    auto& st = h.state;
    const std::size_t ps = h.d.x_pencil_real_elems();
    // u = 2, v = -3, w = 4 everywhere: the five KMM products and the CFL
    // estimate have closed forms.
    for (std::size_t i = 0; i < ps; ++i) {
      st.u_p[i] = 2.0;
      st.v_p[i] = -3.0;
      st.w_p[i] = 4.0;
    }
    h.nonlinear.compute_products();
    for (std::size_t i = 0; i < ps; ++i) {
      EXPECT_EQ(st.f1[i], -5.0);   // u^2 - v^2 = 4 - 9
      EXPECT_EQ(st.f2[i], -6.0);   // u v
      EXPECT_EQ(st.f3[i], 8.0);    // u w
      EXPECT_EQ(st.f4[i], -12.0);  // v w
      EXPECT_EQ(st.f5[i], 7.0);    // w^2 - v^2 = 16 - 9
    }
    const double dx = cfg.lx / static_cast<double>(h.d.nxf);
    const double dz = cfg.lz / static_cast<double>(h.d.nzf);
    const auto& pts = h.ops.points();
    double dy_min = 2.0;
    for (std::size_t i = 1; i < pts.size(); ++i)
      dy_min = std::min(dy_min, pts[i] - pts[i - 1]);
    EXPECT_DOUBLE_EQ(st.cfl_local,
                     cfg.dt * (2.0 / dx + 3.0 / dy_min + 4.0 / dz));
  });
}

// Deterministic pseudo-field for seeding the spectral state.
cplx seed_value(std::size_t m, std::size_t j, int which) {
  const double a = 0.1 * static_cast<double>(m) +
                   0.37 * static_cast<double>(j) + 1.7 * which;
  return cplx{std::sin(a), std::cos(1.3 * a)};
}

void seed_implicit_inputs(stage_harness& h) {
  auto& st = h.state;
  const std::size_t n = h.modes.n;
  for (std::size_t m = 0; m < h.modes.nmodes; ++m) {
    for (std::size_t j = 0; j < n; ++j) {
      st.line(st.c_om, m)[j] = seed_value(m, j, 0);
      st.line(st.c_phi, m)[j] = seed_value(m, j, 1);
      st.line(st.u_s, m)[j] = seed_value(m, j, 2);   // h_v
      st.line(st.v_s, m)[j] = seed_value(m, j, 3);   // h_g
      st.line(st.hv_prev, m)[j] = seed_value(m, j, 4);
      st.line(st.hg_prev, m)[j] = seed_value(m, j, 5);
    }
  }
}

TEST(Stages, ImplicitHoldsSpanwiseNyquistAtZero) {
  // The seeded inputs are nonzero on every mode, so the skipped spanwise
  // Nyquist modes come out zero only if the stage writes them. The solved
  // modes are checked against per-mode solves by
  // Stages.ImplicitMatchesPerModeReference.
  run_world(1, [&](communicator& world) {
    stage_harness h(small_config(), world);
    seed_implicit_inputs(h);
    for (int i = 0; i < 3; ++i) h.implicit.run(i);
    const auto& a = h.state;
    const std::size_t n = h.modes.n;
    std::size_t nyquist = 0;
    for (std::size_t m = 0; m < h.modes.nmodes; ++m) {
      if (!h.modes.skip[m] || m == h.modes.mean_idx) continue;
      ++nyquist;
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(a.line(a.c_om, m)[j], (cplx{0, 0}));
        EXPECT_EQ(a.line(a.c_phi, m)[j], (cplx{0, 0}));
        EXPECT_EQ(a.line(a.c_v, m)[j], (cplx{0, 0}));
      }
    }
    EXPECT_GT(nyquist, 0u);
  });
}

TEST(Stages, MeanFlowMatchesDirectSolve) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    stage_harness h(cfg, world);
    auto& st = h.state;
    const std::size_t n = h.modes.n;
    ASSERT_TRUE(h.modes.has_mean);
    for (std::size_t j = 0; j < n; ++j) {
      st.c_U[j] = std::sin(0.3 * static_cast<double>(j));
      st.c_W[j] = std::cos(0.2 * static_cast<double>(j));
      st.hU[j] = 0.1 * static_cast<double>(j);
      st.hW[j] = -0.05 * static_cast<double>(j);
      st.hU_prev[j] = 0.02 * static_cast<double>(j);
      st.hW_prev[j] = 0.01 * static_cast<double>(j);
    }
    const std::vector<double> c_U0 = st.c_U;
    const std::vector<double> hU0(st.hU, st.hU + n);
    const std::vector<double> hU_prev0 = st.hU_prev;

    const int i = 1;  // substep with a nonzero zeta weight
    h.mean_flow.run(i);

    // Direct reference: [A0 - cb A2] c = [A0 + ca A2] c0 + dt-weighted
    // forcing, Dirichlet rows zeroed, solved with an independently built
    // factored Helmholtz operator.
    const double nu = 1.0 / cfg.re_tau;
    const double ca = pcf::core::rk3::kAlpha[i] * cfg.dt * nu;
    const double cb = pcf::core::rk3::kBeta[i] * cfg.dt * nu;
    const double g = pcf::core::rk3::kGamma[i] * cfg.dt;
    const double z = pcf::core::rk3::kZeta[i] * cfg.dt;
    std::vector<double> rhs(n), t(n);
    h.ops.A0().apply(c_U0.data(), rhs.data());
    h.ops.A2().apply(c_U0.data(), t.data());
    for (std::size_t j = 0; j < n; ++j)
      rhs[j] += ca * t[j] + g * (hU0[j] + cfg.forcing) +
                z * (hU_prev0[j] + cfg.forcing);
    rhs[0] = 0.0;
    rhs[n - 1] = 0.0;
    auto M = h.ops.helmholtz(cb, 0.0);
    M.factorize();
    M.solve(rhs.data());
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_DOUBLE_EQ(st.c_U[j], rhs[j]) << "coefficient " << j;
    // The stage saved the forcing as the new history.
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(st.hU_prev[j], hU0[j]);
  });
}

TEST(Stages, DtControllerProportionalWithClamp) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    stage_harness h(cfg, world);
    auto& st = h.state;

    // Disabled target: never requests a change.
    st.cfl_local = 2.0;
    EXPECT_EQ(h.diagnostics.finish_step(), 0.0);
    EXPECT_EQ(st.cfl_global, 2.0);  // the reduction still ran

    // Proportional step toward the target CFL, half-damped.
    h.diagnostics.set_cfl_target(0.5, 1e-6, 1e-2);
    st.cfl_local = 2.0;
    const double want = cfg.dt * 0.5 / 2.0;
    EXPECT_DOUBLE_EQ(h.diagnostics.finish_step(),
                     cfg.dt + 0.5 * (want - cfg.dt));

    // Tiny CFL: the raw proposal explodes and clamps to dt_max.
    st.cfl_local = 1e-12;
    EXPECT_EQ(h.diagnostics.finish_step(), 1e-2);

    // Already at the target: dt is unchanged and no change is requested.
    st.cfl_local = 0.5;
    EXPECT_EQ(h.diagnostics.finish_step(), 0.0);
  });
}

// ---------------------------------------------------------------------------
// Per-mode references for the mode-blocked velocity and assembly sub-steps:
// the one-line-at-a-time code the panels replaced, copied here with its
// wall-normal operations on the seed's one-line kernels, so every bit the
// stage writes can be compared with memcmp.

/// The seed's one-line wall-normal operations: the runtime-width product
/// of compact_banded::apply and the scalar solve of a factored copy of A0.
struct seed_ops {
  const wall_normal_operators& ops;
  pcf::banded::compact_banded a0_lu;

  explicit seed_ops(const wall_normal_operators& o) : ops(o), a0_lu(o.A0()) {
    a0_lu.factorize();
  }
  template <class S>
  static void apply(const pcf::banded::compact_banded& A, const S* x, S* y) {
    for (int i = 0; i < A.n(); ++i) {
      const int s = A.row_start(i);
      const double* r =
          A.data() + static_cast<std::size_t>(i) * A.bandwidth();
      S acc{};
      for (int c = 0; c < A.bandwidth(); ++c) acc += r[c] * x[s + c];
      y[i] = acc;
    }
  }
  template <class S>
  void to_coefficients(S* line) const {
    a0_lu.solve(line);
  }
  template <class S>
  void to_points(const S* coef, S* values) const {
    apply(ops.A0(), coef, values);
  }
  template <class S>
  void deriv1_points(const S* coef, S* values) const {
    apply(ops.A1(), coef, values);
  }
  template <class S>
  void deriv2_points(const S* coef, S* values) const {
    apply(ops.A2(), coef, values);
  }
};

void reference_velocities(stage_harness& h) {
  const auto& mt = h.modes;
  auto& st = h.state;
  const seed_ops ops(h.ops);
  const std::size_t n = mt.n;
  std::vector<cplx> dvv(n), omv(n);
  std::vector<double> ptsv(n);
  cplx* dv = dvv.data();
  cplx* om = omv.data();
  double* pts = ptsv.data();
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    cplx* us = st.line(st.u_s, m);
    cplx* vs = st.line(st.v_s, m);
    cplx* ws = st.line(st.w_s, m);
    for (auto& sc : st.scalars) {
      cplx* ths = st.line(sc.th_s, m);
      if (mt.skip[m]) {
        std::fill_n(ths, n, cplx{0, 0});
        if (mt.has_mean && m == mt.mean_idx) {
          ops.to_points(sc.c_T.data(), pts);
          for (std::size_t i = 0; i < n; ++i) ths[i] = pts[i];
        }
      } else {
        ops.to_points(st.line(sc.c_th, m), ths);
      }
    }
    if (mt.skip[m]) {
      std::fill_n(us, n, cplx{0, 0});
      std::fill_n(vs, n, cplx{0, 0});
      std::fill_n(ws, n, cplx{0, 0});
      if (mt.has_mean && m == mt.mean_idx) {
        ops.to_points(st.c_U.data(), pts);
        for (std::size_t i = 0; i < n; ++i) us[i] = pts[i];
        ops.to_points(st.c_W.data(), pts);
        for (std::size_t i = 0; i < n; ++i) ws[i] = pts[i];
      }
      continue;
    }
    const double k2 = mt.kx[m] * mt.kx[m] + mt.kz[m] * mt.kz[m];
    ops.deriv1_points(st.line(st.c_v, m), dv);
    ops.to_points(st.line(st.c_om, m), om);
    ops.to_points(st.line(st.c_v, m), vs);
    const cplx ikx{0.0, mt.kx[m] / k2};
    const cplx ikz{0.0, mt.kz[m] / k2};
    for (std::size_t i = 0; i < n; ++i) {
      us[i] = ikx * dv[i] - ikz * om[i];
      ws[i] = ikz * dv[i] + ikx * om[i];
    }
  }
}

void reference_assemble(stage_harness& h) {
  const auto& mt = h.modes;
  auto& st = h.state;
  const seed_ops ops(h.ops);
  const std::size_t n = mt.n;
  auto& hv = st.u_s;
  auto& hg = st.v_s;
  std::fill_n(st.hU, n, 0.0);
  std::fill_n(st.hW, n, 0.0);
  for (auto& sc : st.scalars) std::fill(sc.hT.begin(), sc.hT.end(), 0.0);
  std::vector<cplx> lines(14 * n);
  cplx* c1 = lines.data();
  cplx* c2 = c1 + n;
  cplx* c3 = c2 + n;
  cplx* c4 = c3 + n;
  cplx* c5 = c4 + n;
  cplx* d1 = c5 + n;
  cplx* d2a = d1 + n;
  cplx* d3 = d2a + n;
  cplx* d4a = d3 + n;
  cplx* d5 = d4a + n;
  cplx* d2b = d5 + n;
  cplx* d4b = d2b + n;
  cplx* csc = d4b + n;
  cplx* dsc = csc + n;
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    cplx* hvm = st.line(hv, m);
    cplx* hgm = st.line(hg, m);
    for (auto& sc : st.scalars) {
      cplx* hthm = st.line(sc.th_s, m);
      if (mt.skip[m]) {
        std::fill_n(hthm, n, cplx{0, 0});
        if (mt.has_mean && m == mt.mean_idx) {
          std::copy_n(st.line(sc.qv, m), n, csc);
          ops.to_coefficients(csc);
          ops.deriv1_points(csc, dsc);
          for (std::size_t i = 0; i < n; ++i) sc.hT[i] = -dsc[i].real();
        }
        continue;
      }
      std::copy_n(st.line(sc.qv, m), n, csc);
      ops.to_coefficients(csc);
      ops.deriv1_points(csc, dsc);
      const cplx ikxs{0.0, mt.kx[m]};
      const cplx ikzs{0.0, mt.kz[m]};
      const cplx* pu = st.line(sc.qu, m);
      const cplx* pw = st.line(sc.qw, m);
      for (std::size_t i = 0; i < n; ++i)
        hthm[i] = -(ikxs * pu[i] + dsc[i] + ikzs * pw[i]);
    }
    if (mt.skip[m]) {
      std::fill_n(hvm, n, cplx{0, 0});
      std::fill_n(hgm, n, cplx{0, 0});
      if (mt.has_mean && m == mt.mean_idx) {
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
      continue;
    }
    const double kxm = mt.kx[m], kzm = mt.kz[m];
    const double k2 = kxm * kxm + kzm * kzm;
    std::copy_n(st.line(st.q1, m), n, c1);
    std::copy_n(st.line(st.q2, m), n, c2);
    std::copy_n(st.line(st.q3, m), n, c3);
    std::copy_n(st.line(st.q4, m), n, c4);
    std::copy_n(st.line(st.q5, m), n, c5);
    ops.to_coefficients(c1);
    ops.to_coefficients(c2);
    ops.to_coefficients(c3);
    ops.to_coefficients(c4);
    ops.to_coefficients(c5);
    ops.deriv1_points(c1, d1);
    ops.deriv1_points(c2, d2a);
    ops.deriv1_points(c3, d3);
    ops.deriv1_points(c4, d4a);
    ops.deriv1_points(c5, d5);
    ops.deriv2_points(c2, d2b);
    ops.deriv2_points(c4, d4b);
    const cplx i_unit{0.0, 1.0};
    const cplx* p1 = st.line(st.q1, m);
    const cplx* p2 = st.line(st.q2, m);
    const cplx* p3 = st.line(st.q3, m);
    const cplx* p4 = st.line(st.q4, m);
    const cplx* p5 = st.line(st.q5, m);
    for (std::size_t i = 0; i < n; ++i) {
      hgm[i] = kxm * kzm * (p1[i] - p5[i]) +
               (kzm * kzm - kxm * kxm) * p3[i] -
               i_unit * kzm * d2a[i] + i_unit * kxm * d4a[i];
      hvm[i] = i_unit * k2 * (kxm * p2[i] + kzm * p4[i]) -
               (kxm * kxm * d1[i] + 2.0 * kxm * kzm * d3[i] +
                kzm * kzm * d5[i] - i_unit * kxm * d2b[i] -
                i_unit * kzm * d4b[i]);
    }
  }
}

/// 12 x 24 x 6: 6 x 6 = 36 local modes, 29 of them active, so neither
/// count is a multiple of the 8-mode panel and the tail block is short;
/// the spanwise Nyquist modes (kz index 3) fall inside gathered blocks.
channel_config blocked_config(int threads, int scalars) {
  channel_config cfg = small_config();
  cfg.nx = 12;
  cfg.nz = 6;
  cfg.advance_threads = threads;
  cfg.scenario.scalars.assign(static_cast<std::size_t>(scalars),
                              pcf::core::scalar_spec{0.71, 0.0, 1.0});
  return cfg;
}

/// Seed values with exact zeros of both signs mixed in, and some lines all
/// zero (so every term of those modes' results is a signed zero), so the
/// signed-zero behavior of the complex products is exercised.
cplx blocked_value(std::size_t m, std::size_t j, int which) {
  if ((m + static_cast<std::size_t>(which)) % 5 == 0) return cplx{-0.0, 0.0};
  const std::size_t k = m * 131 + j * 7 + static_cast<std::size_t>(which);
  if (k % 17 == 0) return cplx{-0.0, 0.0};
  if (k % 19 == 0) return cplx{0.0, -0.0};
  return seed_value(m, j, which);
}

void seed_lines(stage_harness& h, pcf::aligned_buffer<cplx>& f, int which) {
  for (std::size_t m = 0; m < h.modes.nmodes; ++m)
    for (std::size_t j = 0; j < h.modes.n; ++j)
      h.state.line(f, m)[j] = blocked_value(m, j, which);
}

void poison(pcf::aligned_buffer<cplx>& f) {
  f.fill(cplx{std::nan(""), -std::nan("")});
}

bool same_bits(const pcf::aligned_buffer<cplx>& a,
               const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), b.size() * sizeof(cplx)) == 0;
}

std::vector<cplx> copy_of(const pcf::aligned_buffer<cplx>& f) {
  return std::vector<cplx>(f.data(), f.data() + f.size());
}

TEST(Stages, VelocitiesMatchPerModeReference) {
  for (int threads : {1, 2})
    for (int scalars : {0, 3})
      run_world(1, [&](communicator& world) {
        stage_harness h(blocked_config(threads, scalars), world);
        ASSERT_EQ(h.modes.nmodes, 36u);
        auto& st = h.state;
        seed_lines(h, st.c_v, 0);
        seed_lines(h, st.c_om, 1);
        for (std::size_t j = 0; j < h.modes.n; ++j) {
          st.c_U[j] = std::sin(0.3 * static_cast<double>(j));
          st.c_W[j] = std::cos(0.2 * static_cast<double>(j));
        }
        for (std::size_t s = 0; s < st.scalars.size(); ++s) {
          seed_lines(h, st.scalars[s].c_th, 2 + static_cast<int>(s));
          for (std::size_t j = 0; j < h.modes.n; ++j)
            st.scalars[s].c_T[j] = 0.1 * static_cast<double>(j + s);
        }
        auto outputs = [&] {
          std::vector<pcf::aligned_buffer<cplx>*> f = {&st.u_s, &st.v_s,
                                                       &st.w_s};
          for (auto& sc : st.scalars) f.push_back(&sc.th_s);
          return f;
        };
        for (auto* f : outputs()) poison(*f);
        h.nonlinear.compute_velocities();
        std::vector<std::vector<cplx>> got;
        for (auto* f : outputs()) {
          got.push_back(copy_of(*f));
          poison(*f);
        }
        reference_velocities(h);
        const auto f = outputs();
        for (std::size_t k = 0; k < f.size(); ++k)
          EXPECT_TRUE(same_bits(*f[k], got[k]))
              << "field " << k << " threads " << threads << " scalars "
              << scalars;
      });
}

TEST(Stages, AssembleMatchesPerModeReference) {
  for (int threads : {1, 2})
    for (int scalars : {0, 3})
      run_world(1, [&](communicator& world) {
        stage_harness h(blocked_config(threads, scalars), world);
        ASSERT_EQ(h.modes.nmodes, 36u);
        auto& st = h.state;
        const std::size_t n = h.modes.n;
        seed_lines(h, st.q1, 0);
        seed_lines(h, st.q2, 1);
        seed_lines(h, st.q3, 2);
        seed_lines(h, st.q4, 3);
        seed_lines(h, st.q5, 4);
        for (std::size_t s = 0; s < st.scalars.size(); ++s) {
          const int base = 5 + 3 * static_cast<int>(s);
          seed_lines(h, st.scalars[s].qu, base);
          seed_lines(h, st.scalars[s].qv, base + 1);
          seed_lines(h, st.scalars[s].qw, base + 2);
        }
        auto outputs = [&] {
          std::vector<pcf::aligned_buffer<cplx>*> f = {&st.u_s, &st.v_s};
          for (auto& sc : st.scalars) f.push_back(&sc.th_s);
          return f;
        };
        // The mean forcings, as one vector: hU, hW, then each scalar's hT.
        auto means = [&] {
          std::vector<double> v(st.hU, st.hU + n);
          v.insert(v.end(), st.hW, st.hW + n);
          for (auto& sc : st.scalars)
            v.insert(v.end(), sc.hT.begin(), sc.hT.end());
          return v;
        };
        for (auto* f : outputs()) poison(*f);
        h.nonlinear.assemble();
        std::vector<std::vector<cplx>> got;
        for (auto* f : outputs()) {
          got.push_back(copy_of(*f));
          poison(*f);
        }
        const std::vector<double> got_means = means();
        std::fill_n(st.hU, n, 1.0);
        std::fill_n(st.hW, n, 1.0);
        reference_assemble(h);
        const auto f = outputs();
        for (std::size_t k = 0; k < f.size(); ++k)
          EXPECT_TRUE(same_bits(*f[k], got[k]))
              << "field " << k << " threads " << threads << " scalars "
              << scalars;
        const std::vector<double> want_means = means();
        ASSERT_EQ(got_means.size(), want_means.size());
        EXPECT_EQ(std::memcmp(got_means.data(), want_means.data(),
                              want_means.size() * sizeof(double)),
                  0);
      });
}

// ---------------------------------------------------------------------------
// Per-mode reference for the mode-blocked implicit stage: the one-mode-at-a-
// time code the blocked arena replaced (per-mode factored bands, the fused
// omega + phi solve, the Poisson recovery and the influence correction,
// scalar groups as multi-RHS solves), copied here with its applies on the
// seed's one-line kernel.

/// One mode's factored operators at one coefficient, as the per-mode arena
/// held them.
struct reference_mode {
  pcf::banded::compact_banded helm, pois;
  std::vector<double> phi12, v12;
  double minv[2][2] = {{0, 0}, {0, 0}};

  reference_mode(const wall_normal_operators& ops, double c, double k2)
      : helm(ops.helmholtz(c, k2)), pois(ops.poisson(k2)) {
    const auto n = static_cast<std::size_t>(ops.n());
    helm.factorize();
    pois.factorize();
    phi12.assign(2 * n, 0.0);
    v12.assign(2 * n, 0.0);
    phi12[0] = 1.0;
    phi12[2 * n - 1] = 1.0;
    helm.solve_many(phi12.data(), 2, n);
    seed_ops::apply(ops.A0(), phi12.data(), v12.data());
    seed_ops::apply(ops.A0(), phi12.data() + n, v12.data() + n);
    v12[0] = v12[n - 1] = 0.0;
    v12[n] = v12[2 * n - 1] = 0.0;
    pois.solve_many(v12.data(), 2, n);
    const double m00 = ops.dspline_lower(v12.data());
    const double m01 = ops.dspline_lower(v12.data() + n);
    const double m10 = ops.dspline_upper(v12.data());
    const double m11 = ops.dspline_upper(v12.data() + n);
    const double det = m00 * m11 - m01 * m10;
    minv[0][0] = m11 / det;
    minv[0][1] = -m01 / det;
    minv[1][0] = -m10 / det;
    minv[1][1] = m00 / det;
  }

  /// The fused substep solve: omega and phi right-hand sides in panel rows
  /// [0, n) and [n, 2n).
  void solve(const wall_normal_operators& ops, cplx* panel, cplx* c_om,
             cplx* c_phi, cplx* c_v) const {
    const auto n = static_cast<std::size_t>(ops.n());
    panel[0] = panel[n - 1] = cplx{0.0, 0.0};
    panel[n] = panel[2 * n - 1] = cplx{0.0, 0.0};
    helm.solve_many(panel, 2, n);
    for (std::size_t i = 0; i < n; ++i) c_om[i] = panel[i];
    for (std::size_t i = 0; i < n; ++i) c_phi[i] = panel[n + i];
    seed_ops::apply(ops.A0(), c_phi, c_v);
    c_v[0] = cplx{0.0, 0.0};
    c_v[n - 1] = cplx{0.0, 0.0};
    pois.solve(c_v);
    const cplx rl = -ops.dspline_lower(c_v);
    const cplx ru = -ops.dspline_upper(c_v);
    const cplx a1 = minv[0][0] * rl + minv[0][1] * ru;
    const cplx a2 = minv[1][0] * rl + minv[1][1] * ru;
    for (std::size_t i = 0; i < n; ++i) {
      c_phi[i] += a1 * phi12[i] + a2 * phi12[n + i];
      c_v[i] += a1 * v12[i] + a2 * v12[n + i];
    }
  }
};

/// y = [A0 + c (A2 - k2 A0)] x, the explicit side of the substep.
void reference_rhs_operator(const wall_normal_operators& ops, double c,
                            double k2, const cplx* x, cplx* y, cplx* tmp) {
  seed_ops::apply(ops.A0(), x, y);
  seed_ops::apply(ops.A2(), x, tmp);
  const double c0 = 1.0 + c * (-k2);
  for (int i = 0; i < ops.n(); ++i)
    y[i] = c0 * y[i] + c * tmp[i];
}

/// Substep i of the implicit stage, one mode at a time. Scalars are
/// grouped by Prandtl number in first-occurrence order, as the stage does.
void reference_implicit(stage_harness& h, int i) {
  const auto& mt = h.modes;
  auto& st = h.state;
  const auto& ops = h.ops;
  const auto& cfg = h.cfg;
  const std::size_t n = mt.n;
  const double nu = 1.0 / cfg.re_tau;
  const double ca = pcf::core::rk3::kAlpha[i] * cfg.dt * nu;
  const double cb = pcf::core::rk3::kBeta[i] * cfg.dt * nu;
  const double g = pcf::core::rk3::kGamma[i] * cfg.dt;
  const double z = pcf::core::rk3::kZeta[i] * cfg.dt;
  std::vector<std::vector<std::size_t>> groups;
  std::vector<double> kappas;
  for (std::size_t s = 0; s < cfg.scenario.scalars.size(); ++s) {
    const double kappa = 1.0 / (cfg.re_tau * cfg.scenario.scalars[s].prandtl);
    const auto it = std::find(kappas.begin(), kappas.end(), kappa);
    if (it == kappas.end()) {
      kappas.push_back(kappa);
      groups.push_back({s});
    } else {
      groups[static_cast<std::size_t>(it - kappas.begin())].push_back(s);
    }
  }
  std::vector<cplx> panel((3 + cfg.scenario.scalars.size()) * n);
  cplx* tmp = panel.data() + 2 * n;
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    if (mt.skip[m]) {
      if (!(mt.has_mean && m == mt.mean_idx)) {
        std::fill_n(st.line(st.c_v, m), n, cplx{0, 0});
        std::fill_n(st.line(st.c_om, m), n, cplx{0, 0});
        std::fill_n(st.line(st.c_phi, m), n, cplx{0, 0});
        for (auto& sc : st.scalars)
          std::fill_n(st.line(sc.c_th, m), n, cplx{0, 0});
      }
      continue;
    }
    const double k2 = mt.k2s[m];
    const reference_mode solver(ops, cb, k2);
    reference_rhs_operator(ops, ca, k2, st.line(st.c_om, m), panel.data(),
                           tmp);
    const cplx* hgm = st.line(st.v_s, m);
    cplx* hgp = st.line(st.hg_prev, m);
    for (std::size_t j = 0; j < n; ++j) panel[j] += g * hgm[j] + z * hgp[j];
    reference_rhs_operator(ops, ca, k2, st.line(st.c_phi, m),
                           panel.data() + n, tmp);
    const cplx* hvm = st.line(st.u_s, m);
    cplx* hvp = st.line(st.hv_prev, m);
    for (std::size_t j = 0; j < n; ++j)
      panel[n + j] += g * hvm[j] + z * hvp[j];
    solver.solve(ops, panel.data(), st.line(st.c_om, m),
                 st.line(st.c_phi, m), st.line(st.c_v, m));
    std::copy_n(hgm, n, hgp);
    std::copy_n(hvm, n, hvp);
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const double cas = pcf::core::rk3::kAlpha[i] * cfg.dt * kappas[gi];
      const double cbs = pcf::core::rk3::kBeta[i] * cfg.dt * kappas[gi];
      auto helm = ops.helmholtz(cbs, k2);
      helm.factorize();
      cplx* rows = panel.data() + 3 * n;
      const auto& members = groups[gi];
      for (std::size_t r = 0; r < members.size(); ++r) {
        auto& sc = st.scalars[members[r]];
        cplx* row = rows + r * n;
        reference_rhs_operator(ops, cas, k2, st.line(sc.c_th, m), row, tmp);
        const cplx* hm = st.line(sc.th_s, m);
        cplx* hp = st.line(sc.hth_prev, m);
        for (std::size_t j = 0; j < n; ++j) row[j] += g * hm[j] + z * hp[j];
        std::copy_n(hm, n, hp);
        row[0] = row[n - 1] = cplx{0.0, 0.0};
      }
      helm.solve_many(rows, static_cast<int>(members.size()), n);
      for (std::size_t r = 0; r < members.size(); ++r)
        std::copy_n(rows + r * n, n,
                    st.line(st.scalars[members[r]].c_th, m));
    }
  }
}

/// blocked_config's 36-mode grid (29 active: blocks of 8, 8, 8 and 5) with
/// `scalars` scalars whose Prandtl numbers alternate 0.71, 7, 0.71: three
/// scalars make two groups, the first of them not contiguous in scalar
/// order.
channel_config implicit_config(int threads, int scalars) {
  channel_config cfg = blocked_config(threads, 0);
  for (int s = 0; s < scalars; ++s)
    cfg.scenario.scalars.push_back(
        pcf::core::scalar_spec{s % 2 == 0 ? 0.71 : 7.0, 0.0, 1.0});
  return cfg;
}

TEST(Stages, ImplicitMatchesPerModeReference) {
  for (int threads : {1, 2})
    for (int scalars : {0, 3})
      run_world(1, [&](communicator& world) {
        stage_harness h(implicit_config(threads, scalars), world);
        ASSERT_EQ(h.modes.nmodes, 36u);
        auto& st = h.state;
        // Inputs: state, nonlinear terms (h_v in u_s, h_g in v_s, each
        // scalar's in th_s) and histories, with signed zeros and all-zero
        // lines mixed in.
        std::vector<pcf::aligned_buffer<cplx>*> fields = {
            &st.c_om, &st.c_phi, &st.c_v, &st.u_s,
            &st.v_s,  &st.hv_prev, &st.hg_prev};
        for (auto& sc : st.scalars) {
          fields.push_back(&sc.c_th);
          fields.push_back(&sc.th_s);
          fields.push_back(&sc.hth_prev);
        }
        for (std::size_t k = 0; k < fields.size(); ++k)
          seed_lines(h, *fields[k], static_cast<int>(k));
        auto snapshot = [&] {
          std::vector<std::vector<cplx>> v;
          for (auto* f : fields) v.push_back(copy_of(*f));
          return v;
        };
        auto restore = [&](const std::vector<std::vector<cplx>>& v) {
          for (std::size_t k = 0; k < fields.size(); ++k)
            std::copy(v[k].begin(), v[k].end(), fields[k]->data());
        };
        // All three substeps, then a dt change and the first substep again.
        const int substeps[4] = {0, 1, 2, 0};
        const auto inputs = snapshot();
        std::vector<std::vector<std::vector<cplx>>> got;
        for (int k = 0; k < 4; ++k) {
          if (k == 3) {
            h.cfg.dt = 2.5e-4;
            h.implicit.invalidate();
          }
          h.implicit.run(substeps[k]);
          got.push_back(snapshot());
        }
        h.cfg.dt = 1e-4;
        restore(inputs);
        for (int k = 0; k < 4; ++k) {
          if (k == 3) h.cfg.dt = 2.5e-4;
          reference_implicit(h, substeps[k]);
          for (std::size_t f = 0; f < fields.size(); ++f)
            EXPECT_TRUE(same_bits(*fields[f], got[k][f]))
                << "field " << f << " call " << k << " threads " << threads
                << " scalars " << scalars;
        }
      });
}

/// The quickstart state after 25 steps must carry the section CRCs of the
/// committed golden trace's last row: they cover every bit of the evolved
/// state.
void expect_golden_end_state(channel_dns& dns) {
  const auto golden = pcf::determinism::read_trace_csv(
      std::string(PCF_SOURCE_DIR) +
      "/tests/determinism/golden_trace_quickstart.csv");
  ASSERT_EQ(golden.steps.size(), 26u);
  EXPECT_EQ(pcf::determinism::fingerprint(dns), golden.steps.back());
}

TEST(Stages, PipelineReproducesGoldenCheckpointHash) {
  // The staged pipeline must advance bit-identically to the pre-stage
  // monolith, whose quickstart run produced the golden values.
  run_world(1, [&](communicator& world) {
    channel_config cfg;
    cfg.nx = 16;
    cfg.nz = 16;
    cfg.ny = 33;
    cfg.re_tau = 180.0;
    cfg.dt = 1e-4;
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 1);
    for (int s = 0; s < 25; ++s) dns.step();
    EXPECT_DOUBLE_EQ(dns.kinetic_energy(), 157.45739483957092);
    EXPECT_DOUBLE_EQ(dns.bulk_velocity(), 15.519657316103206);

    expect_golden_end_state(dns);
  });
}

void expect_zero_alloc_steps(const channel_config& cfg) {
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 1);
    // Warm-up: builds the per-substep solver arenas and first-touches
    // every workspace lane and counter bucket.
    for (int s = 0; s < 2; ++s) dns.step();
    long allocs = 0;
    {
      alloc_guard guard;
      for (int s = 0; s < 3; ++s) dns.step();
      allocs = guard.count();
    }
    EXPECT_EQ(allocs, 0) << "RK3 hot loop touched the heap";
  });
}

TEST(Stages, StepHotLoopDoesNotAllocate) {
  channel_config cfg;
  cfg.nx = 16;
  cfg.nz = 16;
  cfg.ny = 33;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  expect_zero_alloc_steps(cfg);
}

TEST(Stages, StepHotLoopDoesNotAllocateThreaded) {
  channel_config cfg;
  cfg.nx = 16;
  cfg.nz = 16;
  cfg.ny = 33;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  cfg.advance_threads = 2;
  cfg.fft_threads = 2;
  expect_zero_alloc_steps(cfg);
}

TEST(Stages, StepAfterResumeDoesNotAllocate) {
  // A suspend/resume cycle re-leases and rebinds, but once resumed the
  // hot loop must be as allocation-free as a never-suspended run. The
  // first post-resume step rebuilds the solver arenas, so warm up with
  // one step after the cycle before counting.
  channel_config cfg;
  cfg.nx = 16;
  cfg.nz = 16;
  cfg.ny = 33;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 1);
    for (int s = 0; s < 2; ++s) dns.step();
    dns.suspend();
    EXPECT_TRUE(dns.suspended());
    dns.resume();
    EXPECT_FALSE(dns.suspended());
    dns.step();  // rebuilds the factored solver arenas
    long allocs = 0;
    {
      alloc_guard guard;
      for (int s = 0; s < 3; ++s) dns.step();
      allocs = guard.count();
    }
    EXPECT_EQ(allocs, 0) << "post-resume hot loop touched the heap";
  });
}

TEST(Stages, SuspendResumeCyclesReproduceGoldenCheckpointHash) {
  // The acceptance gate of the pooled-arena work: quickstart physics must
  // be bit-identical through suspend -> release -> re-lease -> resume
  // cycles, pinned by the same golden state as the straight-line run.
  // Suspends are injected at several step boundaries, including
  // back-to-back cycles and an implicit resume via step().
  run_world(1, [&](communicator& world) {
    channel_config cfg;
    cfg.nx = 16;
    cfg.nz = 16;
    cfg.ny = 33;
    cfg.re_tau = 180.0;
    cfg.dt = 1e-4;
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 1);
    for (int s = 0; s < 25; ++s) {
      if (s == 5 || s == 13) {
        dns.suspend();
        dns.resume();
      }
      if (s == 17) {
        dns.suspend();
        dns.suspend();  // idempotent
        // no explicit resume: step() resumes implicitly
      }
      dns.step();
    }
    EXPECT_DOUBLE_EQ(dns.kinetic_energy(), 157.45739483957092);
    EXPECT_DOUBLE_EQ(dns.bulk_velocity(), 15.519657316103206);

    expect_golden_end_state(dns);
  });
}

TEST(Stages, ObservablesResumeASuspendedSimulation) {
  // Diagnostics on a suspended instance must implicitly resume (they need
  // workspace scratch and the transform lane), not crash or misread.
  run_world(1, [&](communicator& world) {
    channel_config cfg;
    cfg.nx = 16;
    cfg.nz = 16;
    cfg.ny = 33;
    cfg.re_tau = 180.0;
    cfg.dt = 1e-4;
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 1);
    for (int s = 0; s < 3; ++s) dns.step();
    const double ke = dns.kinetic_energy();
    const double div = dns.max_divergence();
    dns.suspend();
    ASSERT_TRUE(dns.suspended());
    EXPECT_DOUBLE_EQ(dns.kinetic_energy(), ke);  // implicit resume
    EXPECT_FALSE(dns.suspended());
    dns.suspend();
    EXPECT_DOUBLE_EQ(dns.max_divergence(), div);
  });
}

}  // namespace
