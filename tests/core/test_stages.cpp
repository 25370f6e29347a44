// Per-stage unit tests of the RK3 pipeline: each stage driven against a
// hand-built stage_context on a small grid, the whole-pipeline bit-identity
// check against the committed golden trace, and the zero-heap-allocation
// guarantee of the hot loop (counting global operator new).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
        state(modes, d.x_pencil_real_elems(), ws),
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
  // modes are checked against standalone mode_solvers by
  // SolverArena.MatchesStandaloneModeSolvers.
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
