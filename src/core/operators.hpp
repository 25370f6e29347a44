// Wall-normal collocation operators shared by every Fourier mode.
//
// The y direction is represented with degree-7 B-splines collocated at
// Greville points (paper Section 2.1). Every wall-normal operation in the
// DNS is one of three banded matrices built here:
//   A0 (interpolation: values at points from spline coefficients),
//   A1 (first derivative), A2 (second derivative),
// plus Helmholtz systems assembled from them per wavenumber.
#pragma once

#include <complex>
#include <memory>

#include "banded/compact.hpp"
#include "bspline/bspline.hpp"

namespace pcf::core {

using cplx = std::complex<double>;

/// Active modes per wall-normal panel: the nonlinear stage's velocity and
/// assembly panels (8 complex lines, 16 real lanes per row) and the
/// implicit stage's band passes (one interleaved band per mode). A
/// compile-time constant: it sizes the thread lanes (dns_workspace_sizes).
inline constexpr std::size_t kModeBlock = banded::kBlockBands;

class wall_normal_operators {
 public:
  /// ny = number of basis functions (collocation points); the spline space
  /// has ny - degree knot intervals, stretched toward the walls.
  wall_normal_operators(int ny, int degree, double stretch);

  [[nodiscard]] const bspline::basis& b() const { return basis_; }
  [[nodiscard]] int n() const { return basis_.size(); }
  [[nodiscard]] int degree() const { return basis_.degree(); }
  [[nodiscard]] const std::vector<double>& points() const {
    return basis_.greville();
  }

  [[nodiscard]] const banded::compact_banded& A0() const { return a0_; }
  [[nodiscard]] const banded::compact_banded& A1() const { return a1_; }
  [[nodiscard]] const banded::compact_banded& A2() const { return a2_; }

  // Each operation takes `lines` lines (default one) interleaved into a
  // panel: row i of line r sits at [i * lines + r], so a complex line is
  // two adjacent real lanes (banded::compact_banded::apply_many). One band
  // pass serves the whole panel, and every line's bits equal those of the
  // one-line call on that line alone.

  /// Interpolation: overwrite point values with spline coefficients
  /// (solves A0 c = f) in place. Complex or real lines.
  template <class S>
  void to_coefficients(S* x, int lines = 1) const {
    a0_lu_.solve_panel(x, lines);
  }

  /// values[i] = spline(points[i]) from coefficients (A0 apply).
  template <class S>
  void to_points(const S* coef, S* values, int lines = 1) const {
    a0_.apply_many(coef, values, lines);
  }

  /// First/second derivative values at the collocation points.
  template <class S>
  void deriv1_points(const S* coef, S* values, int lines = 1) const {
    a1_.apply_many(coef, values, lines);
  }
  template <class S>
  void deriv2_points(const S* coef, S* values, int lines = 1) const {
    a2_.apply_many(coef, values, lines);
  }

  /// Derivative of the spline at the walls (for the influence matrix).
  /// The real forms read coefficient i at coef[i * stride], so they take
  /// one lane of an interleaved panel.
  [[nodiscard]] double dspline_lower(const double* coef,
                                     std::size_t stride = 1) const;
  [[nodiscard]] double dspline_upper(const double* coef,
                                     std::size_t stride = 1) const;
  [[nodiscard]] cplx dspline_lower(const cplx* coef) const;
  [[nodiscard]] cplx dspline_upper(const cplx* coef) const;

  /// Assemble M = A0 - c (A2 - k2 A0) over the interior rows, with
  /// identity boundary rows (Dirichlet at the clamped ends). This is the
  /// operator of paper equation (3) with c = beta_i nu dt.
  [[nodiscard]] banded::compact_banded helmholtz(double c, double k2) const;

  /// Assemble M = A2 - k2 A0 with identity boundary rows — the operator of
  /// paper equation (4) used to recover v from phi.
  [[nodiscard]] banded::compact_banded poisson(double k2) const;

  /// Allocation-free assembly variants: M (shape n() x n(), half-bandwidth
  /// matching A0) is cleared and refilled, so a caller building many
  /// operators — the solver arena — can reuse one scratch matrix.
  void helmholtz_into(banded::compact_banded& M, double c, double k2) const;
  void poisson_into(banded::compact_banded& M, double k2) const;

 private:
  bspline::basis basis_;
  banded::compact_banded a0_, a1_, a2_;
  banded::compact_banded a0_lu_;  // factored copy of A0
  std::vector<double> dw_lo_, dw_hi_;  // wall-derivative weight rows
};

}  // namespace pcf::core
