#include "core/operators.hpp"

namespace pcf::core {

wall_normal_operators::wall_normal_operators(int ny, int degree,
                                             double stretch)
    : basis_(bspline::basis::channel(ny - degree, stretch, degree)),
      a0_(basis_.collocation_matrix(0)),
      a1_(basis_.collocation_matrix(1)),
      a2_(basis_.collocation_matrix(2)),
      a0_lu_(a0_) {
  PCF_REQUIRE(ny > 3 * degree, "need ny > 3*degree wall-normal points");
  a0_lu_.factorize();

  // Wall-derivative weight rows: N_j'(-1) is nonzero only for the first
  // degree+1 basis functions (clamped knots), N_j'(+1) for the last ones.
  const int p = basis_.degree();
  [[maybe_unused]] const int n = basis_.size();
  std::vector<double> ders(2 * static_cast<std::size_t>(p + 1));
  dw_lo_.assign(static_cast<std::size_t>(p + 1), 0.0);
  dw_hi_.assign(static_cast<std::size_t>(p + 1), 0.0);
  int first = basis_.eval_derivs(basis_.domain_min(), 1, ders.data());
  (void)first;
  PCF_ASSERT(first == 0);
  for (int c = 0; c <= p; ++c)
    dw_lo_[static_cast<std::size_t>(c)] = ders[static_cast<std::size_t>(p + 1 + c)];
  first = basis_.eval_derivs(basis_.domain_max(), 1, ders.data());
  PCF_ASSERT(first == n - p - 1);
  for (int c = 0; c <= p; ++c)
    dw_hi_[static_cast<std::size_t>(c)] = ders[static_cast<std::size_t>(p + 1 + c)];
}

double wall_normal_operators::dspline_lower(const double* coef,
                                            std::size_t stride) const {
  double acc = 0.0;
  for (std::size_t c = 0; c < dw_lo_.size(); ++c)
    acc += dw_lo_[c] * coef[c * stride];
  return acc;
}
double wall_normal_operators::dspline_upper(const double* coef,
                                            std::size_t stride) const {
  const int n = basis_.size();
  const int p = basis_.degree();
  double acc = 0.0;
  for (std::size_t c = 0; c < dw_hi_.size(); ++c)
    acc += dw_hi_[c] * coef[(static_cast<std::size_t>(n - p - 1) + c) * stride];
  return acc;
}
cplx wall_normal_operators::dspline_lower(const cplx* coef) const {
  cplx acc{0.0, 0.0};
  for (std::size_t c = 0; c < dw_lo_.size(); ++c) acc += dw_lo_[c] * coef[c];
  return acc;
}
cplx wall_normal_operators::dspline_upper(const cplx* coef) const {
  const int n = basis_.size();
  const int p = basis_.degree();
  cplx acc{0.0, 0.0};
  for (std::size_t c = 0; c < dw_hi_.size(); ++c)
    acc += dw_hi_[c] * coef[static_cast<std::size_t>(n - p - 1) + c];
  return acc;
}

banded::compact_banded wall_normal_operators::helmholtz(double c,
                                                        double k2) const {
  banded::compact_banded M(basis_.size(), a0_.half_bandwidth());
  helmholtz_into(M, c, k2);
  return M;
}

void wall_normal_operators::helmholtz_into(banded::compact_banded& M,
                                           double c, double k2) const {
  const int n = basis_.size();
  const int h = a0_.half_bandwidth();
  PCF_REQUIRE(M.n() == n && M.half_bandwidth() == h,
              "scratch matrix shape mismatch");
  M.clear();
  for (int i = 1; i < n - 1; ++i) {
    const int s = M.row_start(i);
    for (int j = s; j <= s + 2 * h; ++j) {
      double v = 0.0;
      if (a0_.in_profile(i, j)) v += (1.0 + c * k2) * a0_.at(i, j);
      if (a2_.in_profile(i, j)) v -= c * a2_.at(i, j);
      if (v != 0.0) M.at(i, j) = v;
    }
  }
  // Dirichlet rows: at clamped ends the spline value is the end coefficient.
  M.at(0, 0) = 1.0;
  M.at(n - 1, n - 1) = 1.0;
}

banded::compact_banded wall_normal_operators::poisson(double k2) const {
  banded::compact_banded M(basis_.size(), a0_.half_bandwidth());
  poisson_into(M, k2);
  return M;
}

void wall_normal_operators::poisson_into(banded::compact_banded& M,
                                         double k2) const {
  const int n = basis_.size();
  const int h = a0_.half_bandwidth();
  PCF_REQUIRE(M.n() == n && M.half_bandwidth() == h,
              "scratch matrix shape mismatch");
  M.clear();
  for (int i = 1; i < n - 1; ++i) {
    const int s = M.row_start(i);
    for (int j = s; j <= s + 2 * h; ++j) {
      double v = 0.0;
      if (a2_.in_profile(i, j)) v += a2_.at(i, j);
      if (a0_.in_profile(i, j)) v -= k2 * a0_.at(i, j);
      if (v != 0.0) M.at(i, j) = v;
    }
  }
  M.at(0, 0) = 1.0;
  M.at(n - 1, n - 1) = 1.0;
}

}  // namespace pcf::core
