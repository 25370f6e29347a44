#include "core/mode_solver.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pcf::core {

namespace {

constexpr std::size_t B = kModeBlock;

/// Doubles of one mode's factored band.
std::size_t band_elems(int n, int h) {
  return static_cast<std::size_t>(n) * static_cast<std::size_t>(2 * h + 1);
}

/// Copies lane 0 of an interleaved array of `elems` entries per lane into
/// lanes [live, B): the padding of a short block.
void pad_lanes(double* block, std::size_t elems, std::size_t live) {
  for (std::size_t e = 0; e < elems; ++e)
    for (std::size_t r = live; r < B; ++r) block[e * B + r] = block[e * B];
}

/// Assembles, factorizes and interleaves one band per real mode of a
/// block (lanes [0, live)) with `assemble(M, k2)`, then pads.
template <class Assemble>
void factor_block(banded::compact_banded& M, const std::size_t* ids,
                  std::size_t live, const std::vector<double>& k2s,
                  double* block, Assemble&& assemble) {
  const int n = M.n(), h = M.half_bandwidth();
  for (std::size_t r = 0; r < live; ++r) {
    assemble(M, k2s[ids[r]]);
    M.factorize();
    banded::interleave_band(M.data(), n, h, static_cast<int>(r), block);
  }
  pad_lanes(block, band_elems(n, h), live);
}

/// The two influence problems of a block: phi12 gets the homogeneous
/// Helmholtz solutions with unit wall values (2 real lanes per mode), v12
/// the Poisson solutions with phi12 at the points and v(+-1) = 0, and minv
/// the inverted 2x2 influence matrix M[l][q] = v_q'(wall_l). work holds
/// 4 * live * n doubles for the A0 apply's compact panels.
void build_influence(const wall_normal_operators& ops, const double* helm,
                     const double* pois, std::size_t live, double* phi12,
                     double* v12, double* minv, double* work) {
  const std::size_t n = static_cast<std::size_t>(ops.n());
  const int h = ops.A0().half_bandwidth();
  std::fill(phi12, phi12 + 2 * B * n, 0.0);
  std::fill_n(phi12, B, 1.0);                        // phi1(-1) = 1
  std::fill_n(phi12 + ((n - 1) * 2 + 1) * B, B, 1.0);  // phi2(+1) = 1
  banded::solve_interleaved<double>(helm, ops.n(), h, phi12, 2,
                                    static_cast<int>(live));

  // v's right-hand side, phi at the points: the A0 apply runs on the 2 *
  // live real lines of the block (line q * live + r), so padding lanes
  // cost no counted flops.
  const std::size_t lines = 2 * live;
  double* x = work;
  double* y = work + lines * n;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t q = 0; q < 2; ++q)
      for (std::size_t r = 0; r < live; ++r)
        x[i * lines + q * live + r] = phi12[(i * 2 + q) * B + r];
  ops.to_points(x, y, static_cast<int>(lines));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t q = 0; q < 2; ++q)
      for (std::size_t r = 0; r < live; ++r)
        v12[(i * 2 + q) * B + r] =
            i == 0 || i == n - 1 ? 0.0 : y[i * lines + q * live + r];
  pad_lanes(v12, 2 * n, live);
  banded::solve_interleaved<double>(pois, ops.n(), h, v12, 2,
                                    static_cast<int>(live));

  for (std::size_t r = 0; r < B; ++r) {
    const double m00 = ops.dspline_lower(v12 + r, 2 * B);
    const double m01 = ops.dspline_lower(v12 + B + r, 2 * B);
    const double m10 = ops.dspline_upper(v12 + r, 2 * B);
    const double m11 = ops.dspline_upper(v12 + B + r, 2 * B);
    const double det = m00 * m11 - m01 * m10;
    PCF_REQUIRE(det != 0.0, "singular influence matrix");
    minv[0 * B + r] = m11 / det;
    minv[1 * B + r] = -m01 / det;
    minv[2 * B + r] = -m10 / det;
    minv[3 * B + r] = m00 / det;
  }
}

/// The explicit side of `nf` fields for the modes of a block: their lines
/// are gathered into x (line f * live + r), A0 and A2 run over all of them
/// at once, and
///   rhs = (c0 A0 c + ca A2 c) + (g h + z h_prev),  c0 = 1 + ca (-k2),
/// is written in the per-mode order of the one-line code into the
/// interleaved panel p (complex RHS f of mode r: lanes 2f, 2f + 1), wall
/// rows zero and padding lanes copied. h is copied into h_prev in the same
/// pass. p may alias x; y0 and y2 may not.
void assemble_rhs(const wall_normal_operators& ops,
                  const std::vector<double>& k2s, const std::size_t* ids,
                  std::size_t live, const field_lines* f, std::size_t nf,
                  const substep_weights& w, cplx* x, cplx* y0, cplx* y2,
                  double* p) {
  const std::size_t n = static_cast<std::size_t>(ops.n());
  const std::size_t lines = nf * live;
  for (std::size_t k = 0; k < nf; ++k)
    for (std::size_t r = 0; r < live; ++r) {
      const cplx* src = f[k].c + ids[r] * n;
      for (std::size_t i = 0; i < n; ++i) x[i * lines + k * live + r] = src[i];
    }
  ops.to_points(x, y0, static_cast<int>(lines));
  ops.deriv2_points(x, y2, static_cast<int>(lines));
  const std::size_t row = 2 * nf * B;
  for (std::size_t k = 0; k < nf; ++k)
    for (std::size_t r = 0; r < live; ++r) {
      const std::size_t m = ids[r];
      const double c0 = 1.0 + w.ca * (-k2s[m]);
      const cplx* h = f[k].h + m * n;
      cplx* hp = f[k].h_prev + m * n;
      double* re = p + 2 * k * B + r;
      double* im = re + B;
      for (std::size_t i = 0; i < n; ++i) {
        const cplx hi = h[i], hpi = hp[i];
        hp[i] = hi;
        if (i == 0 || i == n - 1) {  // homogeneous Dirichlet rows
          re[i * row] = 0.0;
          im[i * row] = 0.0;
          continue;
        }
        const cplx a = y0[i * lines + k * live + r];
        const cplx d = y2[i * lines + k * live + r];
        re[i * row] = (c0 * a.real() + w.ca * d.real()) +
                      (w.g * hi.real() + w.z * hpi.real());
        im[i * row] = (c0 * a.imag() + w.ca * d.imag()) +
                      (w.g * hi.imag() + w.z * hpi.imag());
      }
    }
  pad_lanes(p, 2 * nf * n, live);
}

}  // namespace

void mode_blocks::assign(const std::vector<double>& k2s) {
  k2s_ = k2s;
  ids_.clear();
  for (std::size_t m = 0; m < k2s.size(); ++m)
    if (k2s[m] > 0.0) ids_.push_back(m);
  active_ = ids_.size();
  for (std::size_t k = active_; k < count() * B; ++k)
    ids_.push_back(ids_[k - k % B]);
}

void mode_blocks::clear() {
  k2s_.clear();
  k2s_.shrink_to_fit();
  ids_.clear();
  ids_.shrink_to_fit();
  active_ = 0;
}

std::size_t solver_arena::record() const {
  return B * (band_elems(n_, h_) + 4 * static_cast<std::size_t>(n_) + 4);
}

std::size_t solver_arena::pois_at(std::size_t b) const {
  return b * B * band_elems(n_, h_);
}

std::size_t solver_arena::section_at(std::size_t s, std::size_t b) const {
  return pois_at(blocks_.count()) + (s * blocks_.count() + b) * record();
}

void solver_arena::reset() {
  built_ = false;
  pois_built_ = false;
  ops_ = nullptr;
  n_ = h_ = 0;
  blocks_.clear();
  cs_.clear();
  slab_.clear();
  slab_.shrink_to_fit();
}

void solver_arena::build(const wall_normal_operators& ops,
                         std::span<const double> cs,
                         const std::vector<double>& k2s, thread_pool& pool) {
  PCF_REQUIRE(!cs.empty(), "solver_arena::build needs a coefficient");
  const int n = ops.n();
  const int h = ops.A0().half_bandwidth();
  // The Poisson section depends on the operators and the k2 table only.
  const bool same_modes =
      ops_ == &ops && n == n_ && h == h_ && k2s == blocks_.k2s();
  built_ = false;
  if (!same_modes) {
    pois_built_ = false;
    ops_ = &ops;
    n_ = n;
    h_ = h;
    blocks_.assign(k2s);
  }
  cs_.assign(cs.begin(), cs.end());
  const std::size_t nb = blocks_.count();
  // resize keeps the Poisson prefix when only the section count changed.
  slab_.resize(section_at(cs_.size(), 0));

  const bool need_pois = !pois_built_;
  pois_built_ = false;
  const auto un = static_cast<std::size_t>(n);
  const std::size_t be = band_elems(n, h);
  pool.run(nb, [&](std::size_t lo, std::size_t hi) {
    banded::compact_banded M(n, h);
    std::vector<double> work(4 * B * un);
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t* ids = blocks_.ids(b);
      const std::size_t live = blocks_.live(b);
      double* pb = slab_.data() + pois_at(b);
      if (need_pois)
        factor_block(M, ids, live, k2s, pb,
                     [&](banded::compact_banded& A, double k2) {
                       ops.poisson_into(A, k2);
                     });
      for (std::size_t s = 0; s < cs_.size(); ++s) {
        double* helm = slab_.data() + section_at(s, b);
        factor_block(M, ids, live, k2s, helm,
                     [&](banded::compact_banded& A, double k2) {
                       ops.helmholtz_into(A, cs_[s], k2);
                     });
        double* phi12 = helm + B * be;
        double* v12 = phi12 + 2 * B * un;
        build_influence(ops, helm, pb, live, phi12, v12, v12 + 2 * B * un,
                        work.data());
      }
    }
  });
  pois_built_ = true;
  built_ = true;
}

void solver_arena::advance(int s, std::size_t b, const substep_weights& w,
                           const field_lines& om, const field_lines& phi,
                           cplx* c_v, cplx* scratch) const {
  PCF_REQUIRE(built_ && s >= 0 && s < sections() && b < blocks_.count(),
              "advance on an unbuilt arena, section or block");
  const wall_normal_operators& ops = *ops_;
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t* ids = blocks_.ids(b);
  const std::size_t live = blocks_.live(b);
  const std::size_t panel = 2 * B * n;
  cplx* x = scratch;
  cplx* y0 = x + panel;
  cplx* y2 = y0 + panel;
  double* p = reinterpret_cast<double*>(x);

  // Omega and phi: one Helmholtz pass, 2 complex RHS per mode.
  const field_lines f[2] = {om, phi};
  assemble_rhs(ops, blocks_.k2s(), ids, live, f, 2, w, x, y0, y2, p);
  const double* helm = slab_.data() + section_at(static_cast<std::size_t>(s), b);
  banded::solve_interleaved<cplx>(helm, n_, h_, p, 2, static_cast<int>(live));

  // Omega is final. Phi goes to a panel of `live` lines for the A0 apply.
  cplx* ph = y0;
  cplx* vp = y2;
  for (std::size_t r = 0; r < live; ++r) {
    cplx* co = om.c + ids[r] * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double* pr = p + i * 4 * B + r;
      co[i] = cplx{pr[0], pr[B]};
      ph[i * live + r] = cplx{pr[2 * B], pr[3 * B]};
    }
  }

  // v particular: (A2 - k2 A0) c_v = phi(points), v(+-1) = 0, one Poisson
  // pass of 1 complex RHS per mode.
  ops.to_points(ph, vp, static_cast<int>(live));
  for (std::size_t i = 0; i < n; ++i) {
    const bool wall = i == 0 || i == n - 1;
    for (std::size_t r = 0; r < live; ++r) {
      p[i * 2 * B + r] = wall ? 0.0 : vp[i * live + r].real();
      p[i * 2 * B + B + r] = wall ? 0.0 : vp[i * live + r].imag();
    }
  }
  pad_lanes(p, 2 * n, live);
  banded::solve_interleaved<cplx>(slab_.data() + pois_at(b), n_, h_, p, 1,
                                  static_cast<int>(live));

  // Influence correction so that v'(+-1) = 0, per mode in the one-line
  // code's complex order.
  const double* phi12 = helm + B * band_elems(n_, h_);
  const double* v12 = phi12 + 2 * B * n;
  const double* minv = v12 + 2 * B * n;
  for (std::size_t r = 0; r < live; ++r) {
    const double rl_re = -ops.dspline_lower(p + r, 2 * B);
    const double rl_im = -ops.dspline_lower(p + B + r, 2 * B);
    const double ru_re = -ops.dspline_upper(p + r, 2 * B);
    const double ru_im = -ops.dspline_upper(p + B + r, 2 * B);
    const double m00 = minv[r], m01 = minv[B + r];
    const double m10 = minv[2 * B + r], m11 = minv[3 * B + r];
    const double a1_re = m00 * rl_re + m01 * ru_re;
    const double a1_im = m00 * rl_im + m01 * ru_im;
    const double a2_re = m10 * rl_re + m11 * ru_re;
    const double a2_im = m10 * rl_im + m11 * ru_im;
    cplx* cp = phi.c + ids[r] * n;
    cplx* cv = c_v + ids[r] * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double p1 = phi12[i * 2 * B + r], p2 = phi12[i * 2 * B + B + r];
      const double v1 = v12[i * 2 * B + r], v2 = v12[i * 2 * B + B + r];
      const cplx fp = ph[i * live + r];
      cp[i] = cplx{fp.real() + (a1_re * p1 + a2_re * p2),
                   fp.imag() + (a1_im * p1 + a2_im * p2)};
      cv[i] = cplx{p[i * 2 * B + r] + (a1_re * v1 + a2_re * v2),
                   p[i * 2 * B + B + r] + (a1_im * v1 + a2_im * v2)};
    }
  }
}

void scalar_arena::reset() {
  built_ = false;
  ops_ = nullptr;
  n_ = h_ = 0;
  blocks_.clear();
  slab_.clear();
  slab_.shrink_to_fit();
}

void scalar_arena::build(const wall_normal_operators& ops, double c,
                         const std::vector<double>& k2s, thread_pool& pool) {
  const int n = ops.n();
  const int h = ops.A0().half_bandwidth();
  if (!(ops_ == &ops && n == n_ && h == h_ && k2s == blocks_.k2s())) {
    ops_ = &ops;
    n_ = n;
    h_ = h;
    blocks_.assign(k2s);
  }
  c_ = c;
  built_ = false;
  const std::size_t be = band_elems(n, h);
  slab_.resize(blocks_.count() * B * be);
  pool.run(blocks_.count(), [&](std::size_t lo, std::size_t hi) {
    banded::compact_banded M(n, h);
    for (std::size_t b = lo; b < hi; ++b)
      factor_block(M, blocks_.ids(b), blocks_.live(b), k2s,
                   slab_.data() + b * B * be,
                   [&](banded::compact_banded& A, double k2) {
                     ops.helmholtz_into(A, c, k2);
                   });
  });
  built_ = true;
}

void scalar_arena::advance(std::size_t b, const substep_weights& w,
                           const field_lines* f, std::size_t count,
                           cplx* scratch) const {
  PCF_REQUIRE(built_ && b < blocks_.count() && count > 0,
              "scalar advance on an unbuilt arena or block");
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t* ids = blocks_.ids(b);
  const std::size_t live = blocks_.live(b);
  const std::size_t panel = count * B * n;
  cplx* x = scratch;
  double* p = reinterpret_cast<double*>(x);
  assemble_rhs(*ops_, blocks_.k2s(), ids, live, f, count, w, x, x + panel,
               x + 2 * panel, p);
  banded::solve_interleaved<cplx>(slab_.data() + b * B * band_elems(n_, h_),
                                  n_, h_, p, static_cast<int>(count),
                                  static_cast<int>(live));
  const std::size_t row = 2 * count * B;
  for (std::size_t k = 0; k < count; ++k)
    for (std::size_t r = 0; r < live; ++r) {
      cplx* c = f[k].c + ids[r] * n;
      const double* re = p + 2 * k * B + r;
      for (std::size_t i = 0; i < n; ++i)
        c[i] = cplx{re[i * row], re[i * row + B]};
    }
}

}  // namespace pcf::core
