// The paper's customized banded solver (Section 4.1.1, Figure 3).
//
// Matrices from B-spline collocation are banded with half-bandwidth h plus
// extra nonzeros in the first and last few rows (boundary-condition rows).
// Instead of widening a general LAPACK band (Figure 3 center) — which
// doubles storage and wastes flops on structural zeros — the custom format
// (Figure 3 right) keeps exactly 2h+1 stored entries per row and *shifts*
// the first h and last h rows so their out-of-band boundary entries land in
// the otherwise-empty corner slots:
//
//   row i covers columns [s_i, s_i + 2h],  s_i = clamp(i - h, 0, n - 1 - 2h)
//
// so rows 0..h-1 are dense over the first 2h+1 columns and rows n-h..n-1
// over the last 2h+1 columns. LU factorization without pivoting (the
// collocation operators are totally positive / diagonally dominant) stays
// exactly within this profile, and the real-matrix x complex-RHS solve is
// done directly rather than splitting into two real solves.
#pragma once

#include <complex>
#include <vector>

#include "util/check.hpp"

namespace pcf::banded {

using cplx = std::complex<double>;

/// Non-owning view of *factored* compact-band storage. The solver arena
/// keeps many factored bands in one contiguous slab and solves through
/// views; a view never checks or tracks factorization state, so the owner
/// must only hand out views of factored storage.
class banded_view {
 public:
  banded_view() = default;
  banded_view(const double* a, int n, int h) : a_(a), n_(n), h_(h) {}

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int half_bandwidth() const { return h_; }

  template <class S>
  void solve(S* x) const;

  /// Blocked multi-RHS solve; RHS r starts at x + r*stride (stride >= n).
  template <class S>
  void solve_many(S* x, int nrhs, std::size_t stride) const;

 private:
  const double* a_ = nullptr;
  int n_ = 0, h_ = 0;
};

/// Bands per block of the mode-interleaved substitution: each (row,
/// column) entry of the block's bands fills one 64-byte cache line.
inline constexpr int kBlockBands = 8;

/// Copies factored compact-band storage (n rows of 2h+1 entries) into slot
/// r of an interleaved block: entry e of the band goes to
/// block[e * kBlockBands + r].
void interleave_band(const double* band, int n, int h, int r, double* block);

/// Forward and back substitution over a block of kBlockBands factored bands
/// stored interleaved (interleave_band), each with its own right-hand
/// sides. p holds nrhs right-hand sides of type S per band, lane-innermost:
/// real lane k of band r in row i sits at p[(i * K + k) * kBlockBands + r],
/// K = nrhs real lanes (2 * nrhs for complex S, whose RHS q is lanes 2q and
/// 2q + 1). Every lane runs solve()'s arithmetic in solve()'s order with
/// its own band, and a zero multiplier skips the update of its lane only,
/// so each lane's bits equal solve() of its band on that line. The first
/// `live` bands are counted in the flop/byte accounting (as solve_many of
/// nrhs right-hand sides each); the rest of the block is padding.
template <class S>
void solve_interleaved(const double* block, int n, int h, double* p,
                       int nrhs, int live);

class compact_banded {
 public:
  /// n x n matrix, half-bandwidth h (stored bandwidth 2h+1); needs n >= 2h+1.
  compact_banded(int n, int h);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int half_bandwidth() const { return h_; }
  [[nodiscard]] int bandwidth() const { return 2 * h_ + 1; }

  /// First column stored in row i.
  [[nodiscard]] int row_start(int i) const {
    const int lo = i - h_;
    const int hi = n_ - 1 - 2 * h_;
    return lo < 0 ? 0 : (lo > hi ? hi : lo);
  }

  /// True if (i, j) is inside the stored profile.
  [[nodiscard]] bool in_profile(int i, int j) const {
    if (i < 0 || i >= n_ || j < 0 || j >= n_) return false;
    const int s = row_start(i);
    return j >= s && j <= s + 2 * h_;
  }

  double& at(int i, int j) {
    PCF_REQUIRE(in_profile(i, j), "element outside compact profile");
    return entry(i, j);
  }
  [[nodiscard]] double at(int i, int j) const {
    PCF_REQUIRE(in_profile(i, j), "element outside compact profile");
    return const_cast<compact_banded*>(this)->entry(i, j);
  }

  /// Zero all entries (reuse a factored matrix for reassembly).
  void clear();

  [[nodiscard]] std::size_t storage_bytes() const {
    return a_.size() * sizeof(double);
  }

  /// y = A x using the unfactored matrix for one line: the one-line case
  /// of apply_many. S is double or complex.
  template <class S>
  void apply(const S* x, S* y) const {
    apply_many(x, y, 1);
  }

  /// Y = A X on an interleaved panel of `lines` lines (unfactored matrix).
  /// Row i of line r sits at x[i * lines + r], so as doubles a complex
  /// line is two adjacent real lanes: p[i*L + 2r + {re, im}], L = 2*lines.
  /// The band is streamed once for the whole panel, and every lane runs
  /// the one-line arithmetic in its order, so each line's result is
  /// bit-identical to apply() on that line alone. x and y must not alias.
  template <class S>
  void apply_many(const S* x, S* y, int lines) const;

  /// In-place LU without pivoting. Throws numerical_error on a zero pivot.
  void factorize();
  [[nodiscard]] bool factorized() const { return factorized_; }

  /// Solve A x = b in place; matrix is real, RHS may be complex — solved
  /// directly (the optimization the paper contrasts with DGBTRS-on-split-
  /// real-vectors).
  template <class S>
  void solve(S* x) const;

  /// Solve nrhs systems; RHS r starts at x + r*stride (stride >= n when
  /// nrhs > 1). Blocked: the factored band is streamed once per block of
  /// up to 8 real lanes instead of once per RHS, with each complex RHS
  /// occupying two real lanes (so the common 2-complex-RHS case fills a
  /// 4-wide register). A single trailing RHS takes the scalar kernel and
  /// is bit-identical to solve().
  template <class S>
  void solve_many(S* x, int nrhs, std::size_t stride) const;

  /// Solve A X = B in place on an interleaved panel of `lines` right-hand
  /// sides, laid out as for apply_many (no pack or unpack). Each line's
  /// result is bit-identical to solve() on that line; the factored band is
  /// read once for the panel.
  template <class S>
  void solve_panel(S* p, int lines) const;

  /// Reference multi-RHS path: one full band pass per RHS (the seed
  /// behavior, kept for benchmarking the blocked kernel against).
  template <class S>
  void solve_many_scalar(S* x, int nrhs, std::size_t stride) const;

  /// Blocked but with the runtime-lane kernel only (no fixed-lane
  /// vectorized instantiations) — isolates blocking from vectorization in
  /// bench_table1_banded.
  template <class S>
  void solve_many_blocked_generic(S* x, int nrhs, std::size_t stride) const;

  /// Raw compact-format storage: n() rows of bandwidth() doubles.
  [[nodiscard]] const double* data() const { return a_.data(); }
  [[nodiscard]] std::size_t band_elems() const { return a_.size(); }

  /// Non-owning view of the factored band (requires factorize()).
  [[nodiscard]] banded_view view() const {
    PCF_REQUIRE(factorized_, "view() requires factorize() first");
    return banded_view(a_.data(), n_, h_);
  }

 private:
  double& entry(int i, int j) {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(w_) +
              static_cast<std::size_t>(j - row_start(i))];
  }

  template <class S>
  void solve_one(S* x) const;

  template <class S>
  void solve_many_impl(S* x, int nrhs, std::size_t stride,
                       bool fixed_lanes) const;

  int n_, h_, w_;
  std::vector<double> a_;
  bool factorized_ = false;
};

}  // namespace pcf::banded
