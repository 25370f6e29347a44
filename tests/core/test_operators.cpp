#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "core/operators.hpp"

namespace {

using pcf::core::cplx;
using pcf::core::wall_normal_operators;

TEST(Operators, RoundTripPointsCoefficients) {
  wall_normal_operators ops(33, 7, 2.0);
  const auto& pts = ops.points();
  std::vector<double> vals(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) vals[i] = std::sin(2.0 * pts[i]);
  auto coef = vals;
  ops.to_coefficients(coef.data());
  std::vector<double> back(pts.size());
  ops.to_points(coef.data(), back.data());
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_NEAR(back[i], vals[i], 1e-11);
}

TEST(Operators, ComplexInterpolation) {
  wall_normal_operators ops(30, 7, 1.5);
  const auto& pts = ops.points();
  std::vector<cplx> vals(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    vals[i] = cplx{std::cos(pts[i]), std::sin(3.0 * pts[i])};
  auto coef = vals;
  ops.to_coefficients(coef.data());
  std::vector<cplx> back(pts.size());
  ops.to_points(coef.data(), back.data());
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_LT(std::abs(back[i] - vals[i]), 1e-11);
}

TEST(Operators, DerivativesOfInterpolatedSine) {
  wall_normal_operators ops(49, 7, 2.0);
  const auto& pts = ops.points();
  std::vector<double> c(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) c[i] = std::sin(2.0 * pts[i]);
  ops.to_coefficients(c.data());
  std::vector<double> d1(pts.size()), d2(pts.size());
  ops.deriv1_points(c.data(), d1.data());
  ops.deriv2_points(c.data(), d2.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(d1[i], 2.0 * std::cos(2.0 * pts[i]), 1e-6);
    EXPECT_NEAR(d2[i], -4.0 * std::sin(2.0 * pts[i]), 1e-4);
  }
}

TEST(Operators, WallDerivativeWeights) {
  wall_normal_operators ops(33, 7, 2.0);
  const auto& pts = ops.points();
  std::vector<double> c(pts.size());
  // f = y^3 - y: f'(-1) = 2, f'(1) = 2.
  for (std::size_t i = 0; i < pts.size(); ++i)
    c[i] = pts[i] * pts[i] * pts[i] - pts[i];
  ops.to_coefficients(c.data());
  EXPECT_NEAR(ops.dspline_lower(c.data()), 2.0, 1e-10);
  EXPECT_NEAR(ops.dspline_upper(c.data()), 2.0, 1e-10);
}

TEST(Operators, HelmholtzSolveMatchesAnalytic) {
  // [I - c (D^2 - k2)] u = f with u = (1 - y^2): D^2 u = -2, so
  // f = (1 + c k2)(1 - y^2) + 2 c. Dirichlet u(+-1) = 0 holds.
  wall_normal_operators ops(33, 7, 1.8);
  const double c = 0.01, k2 = 5.0;
  auto M = ops.helmholtz(c, k2);
  M.factorize();
  const auto& pts = ops.points();
  std::vector<double> rhs(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double y = pts[i];
    rhs[i] = (1.0 + c * k2) * (1.0 - y * y) + 2.0 * c;
  }
  rhs.front() = 0.0;
  rhs.back() = 0.0;
  M.solve(rhs.data());
  std::vector<double> back(pts.size());
  ops.to_points(rhs.data(), back.data());
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_NEAR(back[i], 1.0 - pts[i] * pts[i], 1e-10);
}

TEST(Operators, PoissonSolveMatchesAnalytic) {
  // (D^2 - k2) u = f with u = sin(pi y): f = -(pi^2 + k2) sin(pi y).
  wall_normal_operators ops(49, 7, 1.5);
  const double k2 = 3.0;
  auto M = ops.poisson(k2);
  M.factorize();
  const auto& pts = ops.points();
  const double pi = std::numbers::pi;
  std::vector<double> rhs(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    rhs[i] = -(pi * pi + k2) * std::sin(pi * pts[i]);
  rhs.front() = 0.0;
  rhs.back() = 0.0;
  M.solve(rhs.data());
  std::vector<double> back(pts.size());
  ops.to_points(rhs.data(), back.data());
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_NEAR(back[i], std::sin(pi * pts[i]), 1e-8);
}

TEST(Operators, RejectsTooFewPoints) {
  EXPECT_THROW(wall_normal_operators(20, 7, 2.0), pcf::precondition_error);
}

}  // namespace
