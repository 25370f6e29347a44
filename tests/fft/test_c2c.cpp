#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "fft/fft.hpp"
#include "util/rng.hpp"

namespace {

using pcf::fft::c2c_plan;
using pcf::fft::cplx;
using pcf::fft::dft_naive;
using pcf::fft::direction;

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  pcf::rng r(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
  return x;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double e = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) e = std::max(e, std::abs(a[i] - b[i]));
  return e;
}

// --- Parameterized over transform length: covers radix 2/3/4 specializations,
// --- generic primes, mixed products, and Bluestein (37, 74, 101).
class C2CSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(C2CSizes, MatchesNaiveDFTForward) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 1000 + n);
  std::vector<cplx> got(n), want(n);
  c2c_plan p(n, direction::forward);
  p.execute(x.data(), got.data());
  dft_naive(x.data(), want.data(), n, -1);
  EXPECT_LT(max_err(got, want), 1e-9 * std::max<double>(1.0, n)) << "n=" << n;
}

TEST_P(C2CSizes, MatchesNaiveDFTInverse) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 2000 + n);
  std::vector<cplx> got(n), want(n);
  c2c_plan p(n, direction::inverse);
  p.execute(x.data(), got.data());
  dft_naive(x.data(), want.data(), n, 1);
  EXPECT_LT(max_err(got, want), 1e-9 * std::max<double>(1.0, n)) << "n=" << n;
}

TEST_P(C2CSizes, RoundTripScalesByN) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 3000 + n);
  std::vector<cplx> mid(n), back(n);
  c2c_plan f(n, direction::forward), b(n, direction::inverse);
  f.execute(x.data(), mid.data());
  b.execute(mid.data(), back.data());
  for (auto& v : back) v /= static_cast<double>(n);
  EXPECT_LT(max_err(back, x), 1e-11 * std::max<double>(1.0, n));
}

TEST_P(C2CSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 4000 + n);
  std::vector<cplx> X(n);
  c2c_plan f(n, direction::forward);
  f.execute(x.data(), X.data());
  double ex = 0.0, eX = 0.0;
  for (auto& v : x) ex += std::norm(v);
  for (auto& v : X) eX += std::norm(v);
  EXPECT_NEAR(eX, ex * static_cast<double>(n), 1e-8 * ex * n);
}

TEST_P(C2CSizes, InPlaceExecutionMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 5000 + n);
  std::vector<cplx> out(n);
  c2c_plan f(n, direction::forward);
  f.execute(x.data(), out.data());
  std::vector<cplx> inplace = x;
  f.execute(inplace.data(), inplace.data());
  EXPECT_LT(max_err(inplace, out), 1e-13 * std::max<double>(1.0, n));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, C2CSizes,
    ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 24, 25, 27,
                      30, 31, 32, 37, 48, 64, 74, 96, 101, 120, 128, 210, 243,
                      256, 384, 1000, 1024, 1536));

TEST(C2C, DeltaTransformsToConstant) {
  const std::size_t n = 64;
  std::vector<cplx> x(n, cplx{0, 0}), X(n);
  x[0] = 1.0;
  c2c_plan f(n, direction::forward);
  f.execute(x.data(), X.data());
  for (auto& v : X) EXPECT_LT(std::abs(v - cplx{1, 0}), 1e-13);
}

TEST(C2C, SingleModeTransformsToDelta) {
  const std::size_t n = 48;
  const std::size_t k0 = 5;
  std::vector<cplx> x(n), X(n);
  for (std::size_t j = 0; j < n; ++j)
    x[j] = std::polar(1.0, 2.0 * std::numbers::pi * double(k0 * j) / double(n));
  c2c_plan f(n, direction::forward);
  f.execute(x.data(), X.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double want = (k == k0) ? double(n) : 0.0;
    EXPECT_NEAR(std::abs(X[k]), want, 1e-10) << k;
  }
}

TEST(C2C, LinearityProperty) {
  const std::size_t n = 120;
  auto x = random_signal(n, 1), y = random_signal(n, 2);
  const cplx a{1.5, -0.5}, b{-2.0, 3.0};
  std::vector<cplx> z(n), Xz(n), Xx(n), Xy(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = a * x[i] + b * y[i];
  c2c_plan f(n, direction::forward);
  f.execute(z.data(), Xz.data());
  f.execute(x.data(), Xx.data());
  f.execute(y.data(), Xy.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(Xz[i] - (a * Xx[i] + b * Xy[i])), 1e-10);
}

TEST(C2C, ShiftTheorem) {
  const std::size_t n = 60, s = 7;
  auto x = random_signal(n, 3);
  std::vector<cplx> xs(n), X(n), Xs(n);
  for (std::size_t j = 0; j < n; ++j) xs[j] = x[(j + s) % n];
  c2c_plan f(n, direction::forward);
  f.execute(x.data(), X.data());
  f.execute(xs.data(), Xs.data());
  for (std::size_t k = 0; k < n; ++k) {
    const cplx ph =
        std::polar(1.0, 2.0 * std::numbers::pi * double(k * s) / double(n));
    EXPECT_LT(std::abs(Xs[k] - ph * X[k]), 1e-10);
  }
}

// 19 lines span two full blocks and a tail; every lane must reproduce the
// single-line result bit for bit.
TEST(C2C, ExecuteManyMatchesLoop) {
  const std::size_t n = 96, batch = 19;
  auto x = random_signal(n * batch, 17);
  std::vector<cplx> a(n * batch), b(n * batch);
  c2c_plan f(n, direction::forward);
  f.execute_many(x.data(), n, a.data(), n, batch);
  for (std::size_t i = 0; i < batch; ++i)
    f.execute(x.data() + i * n, b.data() + i * n);
  for (std::size_t i = 0; i < n * batch; ++i) {
    EXPECT_EQ(a[i].real(), b[i].real()) << "i=" << i;
    EXPECT_EQ(a[i].imag(), b[i].imag()) << "i=" << i;
  }
}

TEST(C2C, FlopEstimatePositive) {
  c2c_plan f(1024, direction::forward);
  EXPECT_NEAR(f.flops_per_execute(), 5.0 * 1024 * 10, 1.0);
}

TEST(C2C, PlanIsReusableAndConst) {
  const std::size_t n = 128;
  const c2c_plan f(n, direction::forward);
  auto x = random_signal(n, 9);
  std::vector<cplx> y1(n), y2(n);
  f.execute(x.data(), y1.data());
  f.execute(x.data(), y2.data());
  EXPECT_EQ(max_err(y1, y2), 0.0);
}

}  // namespace
