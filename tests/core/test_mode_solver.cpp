#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "core/mode_solver.hpp"
#include "util/thread_pool.hpp"

namespace {

using pcf::core::cplx;
using pcf::core::field_lines;
using pcf::core::solver_arena;
using pcf::core::substep_weights;
using pcf::core::wall_normal_operators;

/// The velocity solves of one wavenumber through a solver_arena built on a
/// one-mode k2 table. With zero coefficients in and weights ca = 0, g = 1,
/// z = 0, advance()'s explicit side is exactly the nonlinear term, so the
/// h lines are the right-hand sides of the omega and phi systems.
struct one_mode {
  const wall_normal_operators& ops;
  std::size_t n;
  pcf::thread_pool pool{1};
  solver_arena arena;
  std::vector<cplx> scratch;

  one_mode(const wall_normal_operators& o, double c, double k2)
      : ops(o),
        n(static_cast<std::size_t>(o.n())),
        scratch(pcf::core::advance_scratch(n, 2)) {
    arena.build(ops, c, {k2}, pool);
  }

  /// Omega with homogeneous Dirichlet walls, phi and v with the influence
  /// correction; rhs rows 0 and n - 1 are ignored.
  void solve(const std::vector<cplx>& r_om, const std::vector<cplx>& r_phi,
             std::vector<cplx>& om, std::vector<cplx>& phi,
             std::vector<cplx>& v) {
    om.assign(n, cplx{0, 0});
    phi.assign(n, cplx{0, 0});
    v.assign(n, cplx{0, 0});
    std::vector<cplx> hp_om(n), hp_phi(n);
    arena.advance(0, 0, substep_weights{0.0, 1.0, 0.0},
                  field_lines{om.data(), r_om.data(), hp_om.data()},
                  field_lines{phi.data(), r_phi.data(), hp_phi.data()},
                  v.data(), scratch.data());
  }
  void solve_phi_v(const std::vector<cplx>& r_phi, std::vector<cplx>& phi,
                   std::vector<cplx>& v) {
    std::vector<cplx> om;
    solve(std::vector<cplx>(n), r_phi, om, phi, v);
  }
};

TEST(ModeSolver, DirichletSolveMatchesManufactured) {
  // [I - c(D^2 - k2)] u = f, u = (1 - y^2) sin(y).
  wall_normal_operators ops(49, 7, 1.5);
  const double c = 0.005, k2 = 10.0;
  one_mode ms(ops, c, k2);
  const auto& pts = ops.points();
  const std::size_t n = pts.size();
  auto u = [](double y) { return (1.0 - y * y) * std::sin(y); };
  auto upp = [](double y) {
    // d^2/dy^2 [(1-y^2) sin y] = -2 sin y - 4 y cos y - (1-y^2) sin y
    return -2.0 * std::sin(y) - 4.0 * y * std::cos(y) -
           (1.0 - y * y) * std::sin(y);
  };
  std::vector<cplx> rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double y = pts[i];
    rhs[i] = u(y) - c * (upp(y) - k2 * u(y));
  }
  std::vector<cplx> om, phi, v;
  ms.solve(rhs, std::vector<cplx>(n), om, phi, v);
  std::vector<cplx> back(n);
  ops.to_points(om.data(), back.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(back[i] - u(pts[i])), 1e-8);
}

TEST(ModeSolver, PhiVSolutionSatisfiesAllBoundaryConditions) {
  wall_normal_operators ops(49, 7, 2.0);
  const double c = 0.01, k2 = 4.0;
  one_mode ms(ops, c, k2);
  const auto& pts = ops.points();
  const std::size_t n = pts.size();
  std::vector<cplx> rhs(n), c_phi, c_v;
  for (std::size_t i = 0; i < n; ++i)
    rhs[i] = cplx{std::sin(2.0 * pts[i]), std::cos(pts[i])};
  ms.solve_phi_v(rhs, c_phi, c_v);
  // v(+-1) = 0: clamped ends interpolate the end coefficients.
  EXPECT_LT(std::abs(c_v[0]), 1e-12);
  EXPECT_LT(std::abs(c_v[n - 1]), 1e-12);
  // v'(+-1) = 0: the influence correction's whole job.
  EXPECT_LT(std::abs(ops.dspline_lower(c_v.data())), 1e-9);
  EXPECT_LT(std::abs(ops.dspline_upper(c_v.data())), 1e-9);
}

TEST(ModeSolver, PhiVCouplingIsConsistent) {
  // After the phi-v solve, (D^2 - k2) v must equal phi at interior points.
  wall_normal_operators ops(40, 7, 2.0);
  const double c = 0.02, k2 = 9.0;
  one_mode ms(ops, c, k2);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> rhs(n), c_phi, c_v;
  for (std::size_t i = 0; i < n; ++i)
    rhs[i] = cplx{std::cos(0.3 * i), std::sin(0.11 * i)};
  ms.solve_phi_v(rhs, c_phi, c_v);
  std::vector<cplx> phi_pts(n), v2(n), v0(n);
  ops.deriv2_points(c_v.data(), v2.data());
  ops.to_points(c_v.data(), v0.data());
  ops.to_points(c_phi.data(), phi_pts.data());
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const cplx want = v2[i] - k2 * v0[i];
    EXPECT_LT(std::abs(want - phi_pts[i]), 1e-8) << i;
  }
}

TEST(ModeSolver, PhiEquationHoldsAtInteriorPoints) {
  // The corrected phi must still satisfy the Helmholtz equation at the
  // interior collocation points (the influence functions are homogeneous
  // solutions, so adding them cannot break it).
  wall_normal_operators ops(40, 7, 1.5);
  const double c = 0.015, k2 = 6.0;
  one_mode ms(ops, c, k2);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> rhs(n), c_phi, c_v;
  for (std::size_t i = 0; i < n; ++i)
    rhs[i] = cplx{std::sin(0.2 * i + 0.4), std::cos(0.15 * i)};
  ms.solve_phi_v(rhs, c_phi, c_v);
  std::vector<cplx> p0(n), p2(n);
  ops.to_points(c_phi.data(), p0.data());
  ops.deriv2_points(c_phi.data(), p2.data());
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const cplx lhs = p0[i] - c * (p2[i] - k2 * p0[i]);
    EXPECT_LT(std::abs(lhs - rhs[i]), 1e-8) << i;
  }
}

TEST(ModeSolver, LinearInRhs) {
  wall_normal_operators ops(33, 7, 2.0);
  one_mode ms(ops, 0.01, 2.0);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> r1(n), r2(n), rsum(n);
  for (std::size_t i = 0; i < n; ++i) {
    r1[i] = cplx{std::sin(0.3 * i), 0.1};
    r2[i] = cplx{0.2, std::cos(0.2 * i)};
    rsum[i] = 2.0 * r1[i] - 3.0 * r2[i];
  }
  std::vector<cplx> p1, v1, p2, v2, ps, vs;
  ms.solve_phi_v(r1, p1, v1);
  ms.solve_phi_v(r2, p2, v2);
  ms.solve_phi_v(rsum, ps, vs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(ps[i] - (2.0 * p1[i] - 3.0 * p2[i])), 1e-9);
    EXPECT_LT(std::abs(vs[i] - (2.0 * v1[i] - 3.0 * v2[i])), 1e-9);
  }
}

TEST(ModeSolver, RejectsZeroWavenumber) {
  // k2 = 0 is the mean mode's: the arena gives it no block, so there is
  // nothing to advance.
  wall_normal_operators ops(33, 7, 2.0);
  pcf::thread_pool pool(1);
  solver_arena arena;
  arena.build(ops, 0.01, {0.0}, pool);
  EXPECT_TRUE(arena.built());
  EXPECT_EQ(arena.blocks(), 0u);
  EXPECT_FALSE(arena.active(0));
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> line(n), hp(n), v(n),
      scratch(pcf::core::advance_scratch(n, 2));
  const field_lines f{line.data(), line.data(), hp.data()};
  EXPECT_THROW(arena.advance(0, 0, substep_weights{}, f, f, v.data(),
                             scratch.data()),
               pcf::precondition_error);
}

/// Seeds the lines of `modes` modes: omega and phi coefficients, their
/// nonlinear terms and histories.
struct mode_lines {
  std::size_t n;
  std::vector<cplx> om, phi, v, hg, hv, hgp, hvp;

  mode_lines(std::size_t n_, std::size_t modes, int salt)
      : n(n_),
        om(n * modes),
        phi(n * modes),
        v(n * modes),
        hg(n * modes),
        hv(n * modes),
        hgp(n * modes),
        hvp(n * modes) {
    for (std::size_t i = 0; i < n * modes; ++i) {
      const double a = 0.1 * static_cast<double>(i) + salt;
      om[i] = cplx{std::sin(a), std::cos(0.7 * a)};
      phi[i] = cplx{std::cos(1.1 * a), std::sin(0.3 * a)};
      hg[i] = cplx{std::sin(0.9 * a), 0.2};
      hv[i] = cplx{0.3, std::cos(0.5 * a)};
      hgp[i] = cplx{std::cos(0.2 * a), -0.1};
      hvp[i] = cplx{-0.4, std::sin(0.6 * a)};
    }
  }

  void advance(const solver_arena& arena, int s, std::vector<cplx>& scratch) {
    const substep_weights w{0.004, 0.5, -0.2};
    for (std::size_t b = 0; b < arena.blocks(); ++b)
      arena.advance(s, b, w, field_lines{om.data(), hg.data(), hgp.data()},
                    field_lines{phi.data(), hv.data(), hvp.data()}, v.data(),
                    scratch.data());
  }

  [[nodiscard]] bool same_bits(const mode_lines& o) const {
    auto eq = [](const std::vector<cplx>& a, const std::vector<cplx>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
    };
    return eq(om, o.om) && eq(phi, o.phi) && eq(v, o.v) && eq(hgp, o.hgp) &&
           eq(hvp, o.hvp);
  }
};

TEST(SolverArena, InactiveOrUnbuiltSlotThrows) {
  wall_normal_operators ops(33, 7, 2.0);
  pcf::thread_pool pool(1);
  solver_arena arena;
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> scratch(pcf::core::advance_scratch(n, 2));
  mode_lines lines(n, 2, 0);
  const field_lines f{lines.om.data(), lines.hg.data(), lines.hgp.data()};
  auto advance = [&](int s, std::size_t b) {
    arena.advance(s, b, substep_weights{}, f, f, lines.v.data(),
                  scratch.data());
  };
  EXPECT_THROW(advance(0, 0), pcf::precondition_error);
  arena.build(ops, 0.01, {0.0, 4.0}, pool);
  EXPECT_FALSE(arena.active(0));
  EXPECT_TRUE(arena.active(1));
  EXPECT_FALSE(arena.active(7));
  ASSERT_EQ(arena.blocks(), 1u);
  EXPECT_NO_THROW(advance(0, 0));
  // A section or block past the built ones.
  EXPECT_THROW(advance(1, 0), pcf::precondition_error);
  EXPECT_THROW(advance(0, 1), pcf::precondition_error);
  arena.invalidate();
  EXPECT_FALSE(arena.built());
  EXPECT_THROW(advance(0, 0), pcf::precondition_error);
}

TEST(SolverArena, RebuildAfterCoeffChangeMatchesColdConstruction) {
  // A dt change rebuilds the coefficient sections in place and keeps the
  // shared Poisson section; every bit must match a freshly built arena at
  // the new coefficients. Ten modes make one full block and a short one.
  wall_normal_operators ops(33, 7, 2.0);
  pcf::thread_pool pool(2);
  std::vector<double> k2s = {0.0, 2.0, 8.0, 0.5, 3.0, 0.0,
                             1.0, 7.0, 4.0, 9.0, 6.0, 5.0};
  const double old_cs[3] = {0.02, 0.015, 0.01};
  const double new_cs[3] = {0.01, 0.0075, 0.005};
  solver_arena warm, cold;
  warm.build(ops, old_cs, k2s, pool);
  const std::size_t bytes = warm.storage_bytes();
  warm.invalidate();
  warm.build(ops, new_cs, k2s, pool);
  EXPECT_EQ(warm.storage_bytes(), bytes);  // contents rebuilt in place
  cold.build(ops, new_cs, k2s, pool);
  ASSERT_EQ(warm.blocks(), 2u);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> scratch(pcf::core::advance_scratch(n, 2));
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(warm.coeff(s), new_cs[s]);
    mode_lines a(n, k2s.size(), s), b(n, k2s.size(), s);
    a.advance(warm, s, scratch);
    b.advance(cold, s, scratch);
    EXPECT_TRUE(a.same_bits(b)) << "section " << s;
  }
}

TEST(SolverArena, StorageIsOnePoissonSectionPlusOnePerCoefficient) {
  // Per block of 8 modes, n = 33, h = 7: a factored band is 33 * 15
  // doubles per mode; a coefficient section adds its Helmholtz band, the
  // four influence lines (4n) and minv (4). Inactive slots take no room.
  wall_normal_operators ops(33, 7, 2.0);
  pcf::thread_pool pool(1);
  std::vector<double> k2s(20, 1.0);
  k2s[0] = 0.0;  // 19 active modes: 3 blocks
  const double cs[3] = {0.01, 0.02, 0.03};
  solver_arena one, three;
  one.build(ops, cs[0], k2s, pool);
  three.build(ops, cs, k2s, pool);
  const std::size_t band = 33 * 15, lanes = 3 * 8;
  const std::size_t section = lanes * (band + 4 * 33 + 4);
  EXPECT_EQ(one.storage_bytes(), (lanes * band + section) * sizeof(double));
  EXPECT_EQ(three.storage_bytes(),
            (lanes * band + 3 * section) * sizeof(double));
  one.reset();
  EXPECT_EQ(one.storage_bytes(), 0u);
  EXPECT_FALSE(one.built());
}

}  // namespace
