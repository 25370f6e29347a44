#include "banded/compact.hpp"

#include <algorithm>
#include <type_traits>

#include "util/counters.hpp"

namespace pcf::banded {

compact_banded::compact_banded(int n, int h)
    : n_(n), h_(h), w_(2 * h + 1),
      a_(static_cast<std::size_t>(n) * static_cast<std::size_t>(2 * h + 1),
         0.0) {
  PCF_REQUIRE(h >= 0, "half-bandwidth must be nonnegative");
  PCF_REQUIRE(n >= 2 * h + 1, "compact format needs n >= bandwidth");
}

void compact_banded::clear() {
  std::fill(a_.begin(), a_.end(), 0.0);
  factorized_ = false;
}

namespace {

/// Real lanes contributed by one RHS of type S: a complex RHS is solved as
/// two real lanes (the paper's real-matrix x complex-RHS trick, here laid
/// out so the lanes vectorize).
template <class S>
constexpr int kLanesPerRhs = std::is_same_v<S, cplx> ? 2 : 1;

/// Widest RHS panel solve_many carries per band pass (one cache line of
/// doubles). apply_many and solve_panel take panels of any width.
constexpr int kMaxLanes = 8;

/// One forward-elimination update of kBlockBands lanes, each with its own
/// multiplier l[r]: x -= l * y.
inline void lane_update(double* __restrict x, const double* __restrict y,
                        const double* __restrict l) {
  for (int r = 0; r < kBlockBands; ++r) x[r] -= l[r] * y[r];
}

/// lane_update, skipped per lane where l is zero, as solve() skips it:
/// -0.0 - (+0.0 * y) would be +0.0. The test is l != 0.0 spelled as
/// (l < 0 || l > 0 || l != l), the form GCC turns into a packed compare
/// and select.
inline void lane_update_skip(double* __restrict x, const double* __restrict y,
                             const double* __restrict l) {
  for (int r = 0; r < kBlockBands; ++r) {
    const double v = x[r] - l[r] * y[r];
    const bool nonzero = l[r] < 0.0 || l[r] > 0.0 || l[r] != l[r];
    x[r] = nonzero ? v : x[r];
  }
}

/// One back-substitution row of kBlockBands lanes: x[r] = (x[r] - sum over
/// c of u[c][r] * x(row below by c)[r]) / u[0][r], in solve()'s order.
/// Row c of the lane group sits c * row doubles after x; u entry c at
/// u + c * kBlockBands.
inline void lane_back(double* __restrict x, std::size_t row,
                      const double* __restrict u, int len) {
  double acc[kBlockBands];
  for (int r = 0; r < kBlockBands; ++r) acc[r] = x[r];
  for (int c = 1; c <= len; ++c) {
    const double* uc = u + c * kBlockBands;
    const double* xc = x + static_cast<std::size_t>(c) * row;
    for (int r = 0; r < kBlockBands; ++r) acc[r] -= uc[r] * xc[r];
  }
  for (int r = 0; r < kBlockBands; ++r) x[r] = acc[r] / u[r];
}

/// The factorization and substitution kernels are instantiated with a
/// compile-time half-bandwidth for the common cases (the paper hand-unrolls
/// these loops; here the fixed trip counts let the compiler do it).
/// HC == 0 selects the runtime-bandwidth fallback.
template <int HC>
struct kernels {
  static int row_start(int i, int n, int h) {
    const int lo = i - h;
    const int hi = n - 1 - 2 * h;
    return lo < 0 ? 0 : (lo > hi ? hi : lo);
  }

  static std::uint64_t factorize(double* a, int n, int rh) {
    const int h = HC > 0 ? HC : rh;
    const int w = 2 * h + 1;
    std::uint64_t flops = 0;
    auto entry = [&](int i, int j) -> double& {
      return a[static_cast<std::size_t>(i) * static_cast<std::size_t>(w) +
               static_cast<std::size_t>(j - row_start(i, n, h))];
    };
    for (int j = 0; j < n; ++j) {
      const double piv = entry(j, j);
      if (piv == 0.0)
        throw numerical_error("compact_banded::factorize: zero pivot");
      const double inv = 1.0 / piv;
      const int jend = row_start(j, n, h) + 2 * h;

      auto eliminate = [&](int k) {
        double& lkj = entry(k, j);
        if (lkj == 0.0) return;
        const double m = lkj * inv;
        lkj = m;
        const double* prow =
            a + static_cast<std::size_t>(j) * static_cast<std::size_t>(w);
        double* krow = &entry(k, j);
        const int off = j - row_start(j, n, h);
        const int len = jend - j;
        const double* p = prow + off + 1;
        for (int c = 0; c < len; ++c) krow[1 + c] -= m * p[c];
        flops += 2u * static_cast<std::uint64_t>(len) + 1u;
      };

      const int band_end = std::min(j + h, n - 1);
      for (int k = j + 1; k <= band_end; ++k) eliminate(k);
      if (j >= n - 1 - 2 * h) {
        const int lo = std::max(band_end + 1, n - h);
        for (int k = lo; k < n; ++k) eliminate(k);
      }
    }
    return flops;
  }

  template <class S>
  static void solve(const double* a, int n, int rh, S* x) {
    const int h = HC > 0 ? HC : rh;
    const int w = 2 * h + 1;
    auto entry = [&](int i, int j) -> double {
      return a[static_cast<std::size_t>(i) * static_cast<std::size_t>(w) +
               static_cast<std::size_t>(j - row_start(i, n, h))];
    };
    // Forward substitution with unit-diagonal L.
    for (int j = 0; j < n; ++j) {
      const S xj = x[j];
      const int band_end = std::min(j + h, n - 1);
      for (int k = j + 1; k <= band_end; ++k) {
        const double l = entry(k, j);
        if (l != 0.0) x[k] -= l * xj;
      }
      if (j >= n - 1 - 2 * h) {
        const int lo = std::max(band_end + 1, n - h);
        for (int k = lo; k < n; ++k) {
          const double l = entry(k, j);
          if (l != 0.0) x[k] -= l * xj;
        }
      }
    }
    // Back substitution with U.
    for (int j = n - 1; j >= 0; --j) {
      const int s = row_start(j, n, h);
      const double* r =
          a + static_cast<std::size_t>(j) * static_cast<std::size_t>(w);
      const int off = j - s;
      S acc = x[j];
      const int len = 2 * h - off;
      const double* u = r + off;
      for (int c = 1; c <= len; ++c) acc -= u[c] * x[j + c];
      x[j] = acc / u[0];
    }
  }

  /// Blocked substitution over an interleaved RHS panel p (row-major,
  /// LANES real values per matrix row): the factored band is streamed
  /// once for the whole panel. Every multiplier is a *matrix* entry —
  /// uniform across lanes — so per-lane arithmetic order (and hence every
  /// bit of the result) matches the scalar kernel above exactly; only the
  /// loop over right-hand sides moves innermost. LC is the compile-time
  /// lane count (0 = runtime `rl`), which fixes the inner trip count so
  /// the compiler vectorizes it.
  template <int LC>
  static void solve_panel(const double* a, int n, int rh,
                          double* __restrict p, int rl) {
    const int h = HC > 0 ? HC : rh;
    const int w = 2 * h + 1;
    const int L = LC > 0 ? LC : rl;
    auto entry = [&](int i, int j) -> double {
      return a[static_cast<std::size_t>(i) * static_cast<std::size_t>(w) +
               static_cast<std::size_t>(j - row_start(i, n, h))];
    };
    auto lane_row = [&](int i) -> double* {
      return p + static_cast<std::size_t>(i) * static_cast<std::size_t>(L);
    };
    // Forward substitution with unit-diagonal L.
    for (int j = 0; j < n; ++j) {
      const double* xj = lane_row(j);
      auto eliminate = [&](int k) {
        const double l = entry(k, j);
        if (l == 0.0) return;
        double* xk = lane_row(k);
        for (int t = 0; t < L; ++t) xk[t] -= l * xj[t];
      };
      const int band_end = std::min(j + h, n - 1);
      for (int k = j + 1; k <= band_end; ++k) eliminate(k);
      if (j >= n - 1 - 2 * h) {
        const int lo = std::max(band_end + 1, n - h);
        for (int k = lo; k < n; ++k) eliminate(k);
      }
    }
    // Back substitution with U, four lanes at a time in named scalar
    // accumulators, then lane by lane. (With a runtime lane count, the same
    // chunk written as an accumulator array ran at about half the speed.)
    const std::size_t stride = static_cast<std::size_t>(L);
    for (int j = n - 1; j >= 0; --j) {
      const int s = row_start(j, n, h);
      const double* r =
          a + static_cast<std::size_t>(j) * static_cast<std::size_t>(w);
      const int off = j - s;
      const int len = 2 * h - off;
      const double* u = r + off;
      const double d = u[0];
      double* xj = lane_row(j);
      int t = 0;
      for (; t + 4 <= L; t += 4) {
        double a0 = xj[t], a1 = xj[t + 1], a2 = xj[t + 2], a3 = xj[t + 3];
        const double* xc = xj + t;
        for (int c = 1; c <= len; ++c) {
          xc += stride;
          const double uc = u[c];
          a0 -= uc * xc[0];
          a1 -= uc * xc[1];
          a2 -= uc * xc[2];
          a3 -= uc * xc[3];
        }
        xj[t] = a0 / d;
        xj[t + 1] = a1 / d;
        xj[t + 2] = a2 / d;
        xj[t + 3] = a3 / d;
      }
      for (; t < L; ++t) {
        double a0 = xj[t];
        const double* xc = xj + t;
        for (int c = 1; c <= len; ++c) {
          xc += stride;
          a0 -= u[c] * xc[0];
        }
        xj[t] = a0 / d;
      }
    }
  }

  /// Substitution over kBlockBands interleaved factored bands with K real
  /// lanes each (solve_interleaved). The multipliers differ per band,
  /// so the zero skip of solve() becomes a per-lane select, and the back
  /// substitution keeps one accumulator per band in solve()'s order.
  static void solve_interleaved(const double* a, int n, int rh, double* p,
                                int K) {
    constexpr int B = kBlockBands;
    const int h = HC > 0 ? HC : rh;
    const int w = 2 * h + 1;
    const std::size_t row = static_cast<std::size_t>(K) * B;
    auto band = [&](int i, int j) {
      return a + (static_cast<std::size_t>(i) * static_cast<std::size_t>(w) +
                  static_cast<std::size_t>(j - row_start(i, n, h))) *
                     B;
    };
    // Forward substitution with unit-diagonal L.
    for (int j = 0; j < n; ++j) {
      const double* xj = p + static_cast<std::size_t>(j) * row;
      auto eliminate = [&](int k) {
        const double* l = band(k, j);
        double* xk = p + static_cast<std::size_t>(k) * row;
        // A multiplier is zero in every band of the block (a structural
        // zero of the collocation band) or in none, nearly always; only a
        // mixed block pays for the per-lane select.
        int nonzero = 0;
        for (int r = 0; r < B; ++r) nonzero += l[r] != 0.0 ? 1 : 0;
        if (nonzero == B) {
          for (int q = 0; q < K; ++q) lane_update(xk + q * B, xj + q * B, l);
        } else if (nonzero > 0) {
          for (int q = 0; q < K; ++q)
            lane_update_skip(xk + q * B, xj + q * B, l);
        }
      };
      const int band_end = std::min(j + h, n - 1);
      for (int k = j + 1; k <= band_end; ++k) eliminate(k);
      if (j >= n - 1 - 2 * h) {
        const int lo = std::max(band_end + 1, n - h);
        for (int k = lo; k < n; ++k) eliminate(k);
      }
    }
    // Back substitution with U.
    for (int j = n - 1; j >= 0; --j) {
      const int len = 2 * h - (j - row_start(j, n, h));
      const double* u = band(j, j);  // entry (j, j + c) at u + c * B
      double* xj = p + static_cast<std::size_t>(j) * row;
      for (int q = 0; q < K; ++q) lane_back(xj + q * B, row, u, len);
    }
  }

  /// y = A x over interleaved panels of L real lanes (unfactored band),
  /// chunked like the back substitution. Each lane accumulates from +0.0
  /// in column order, which for the two lanes of a complex line is exactly
  /// std::complex's `acc += r[c] * x[c]`, so a line's bits do not depend
  /// on the panel it rides in.
  template <int LC>
  static void apply_panel(const double* a, int n, int rh,
                          const double* __restrict x, double* __restrict y,
                          int rl) {
    const int h = HC > 0 ? HC : rh;
    const int w = 2 * h + 1;
    const int L = LC > 0 ? LC : rl;
    const std::size_t stride = static_cast<std::size_t>(L);
    for (int i = 0; i < n; ++i) {
      const double* r =
          a + static_cast<std::size_t>(i) * static_cast<std::size_t>(w);
      const double* xs =
          x + static_cast<std::size_t>(row_start(i, n, h)) * stride;
      double* yi = y + static_cast<std::size_t>(i) * stride;
      int t = 0;
      for (; t + 4 <= L; t += 4) {
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        const double* xc = xs + t;
        for (int c = 0; c < w; ++c, xc += stride) {
          const double rc = r[c];
          a0 += rc * xc[0];
          a1 += rc * xc[1];
          a2 += rc * xc[2];
          a3 += rc * xc[3];
        }
        yi[t] = a0;
        yi[t + 1] = a1;
        yi[t + 2] = a2;
        yi[t + 3] = a3;
      }
      for (; t < L; ++t) {
        double a0 = 0.0;
        const double* xc = xs + t;
        for (int c = 0; c < w; ++c, xc += stride) a0 += r[c] * xc[0];
        yi[t] = a0;
      }
    }
  }
};

template <int HC>
void panel_for_h(const double* a, int n, int h, double* p, int lanes,
                 bool fixed_lanes) {
  if (fixed_lanes) {
    switch (lanes) {
      case 2: kernels<HC>::template solve_panel<2>(a, n, h, p, lanes); return;
      case 4: kernels<HC>::template solve_panel<4>(a, n, h, p, lanes); return;
      case 6: kernels<HC>::template solve_panel<6>(a, n, h, p, lanes); return;
      case 8: kernels<HC>::template solve_panel<8>(a, n, h, p, lanes); return;
      case 16:  // a full mode block of the nonlinear stage
        kernels<HC>::template solve_panel<16>(a, n, h, p, lanes);
        return;
      default: break;  // other lane counts take the runtime kernel
    }
  }
  kernels<HC>::template solve_panel<0>(a, n, h, p, lanes);
}

void panel_dispatch(const double* a, int n, int h, double* p, int lanes,
                    bool fixed_lanes) {
  switch (h) {
    case 1: panel_for_h<1>(a, n, h, p, lanes, fixed_lanes); break;
    case 2: panel_for_h<2>(a, n, h, p, lanes, fixed_lanes); break;
    case 3: panel_for_h<3>(a, n, h, p, lanes, fixed_lanes); break;
    case 4: panel_for_h<4>(a, n, h, p, lanes, fixed_lanes); break;
    case 5: panel_for_h<5>(a, n, h, p, lanes, fixed_lanes); break;
    case 6: panel_for_h<6>(a, n, h, p, lanes, fixed_lanes); break;
    case 7: panel_for_h<7>(a, n, h, p, lanes, fixed_lanes); break;
    default: panel_for_h<0>(a, n, h, p, lanes, fixed_lanes); break;
  }
}

template <int HC>
void apply_for_h(const double* a, int n, int h, const double* x, double* y,
                 int lanes) {
  switch (lanes) {
    // One real or one complex line: apply().
    case 1: kernels<HC>::template apply_panel<1>(a, n, h, x, y, lanes); return;
    case 2: kernels<HC>::template apply_panel<2>(a, n, h, x, y, lanes); return;
    case 16:  // a full mode block of the nonlinear stage
      kernels<HC>::template apply_panel<16>(a, n, h, x, y, lanes);
      return;
    case 32:  // two fields of a full mode block (the implicit stage)
      kernels<HC>::template apply_panel<32>(a, n, h, x, y, lanes);
      return;
    default: kernels<HC>::template apply_panel<0>(a, n, h, x, y, lanes);
  }
}

void apply_dispatch(const double* a, int n, int h, const double* x,
                    double* y, int lanes) {
  switch (h) {
    case 1: apply_for_h<1>(a, n, h, x, y, lanes); break;
    case 2: apply_for_h<2>(a, n, h, x, y, lanes); break;
    case 3: apply_for_h<3>(a, n, h, x, y, lanes); break;
    case 4: apply_for_h<4>(a, n, h, x, y, lanes); break;
    case 5: apply_for_h<5>(a, n, h, x, y, lanes); break;
    case 6: apply_for_h<6>(a, n, h, x, y, lanes); break;
    case 7: apply_for_h<7>(a, n, h, x, y, lanes); break;
    default: apply_for_h<0>(a, n, h, x, y, lanes); break;
  }
}

void interleaved_dispatch(const double* a, int n, int h, double* p,
                          int lanes) {
  switch (h) {
    case 1: kernels<1>::solve_interleaved(a, n, h, p, lanes); break;
    case 2: kernels<2>::solve_interleaved(a, n, h, p, lanes); break;
    case 3: kernels<3>::solve_interleaved(a, n, h, p, lanes); break;
    case 4: kernels<4>::solve_interleaved(a, n, h, p, lanes); break;
    case 5: kernels<5>::solve_interleaved(a, n, h, p, lanes); break;
    case 6: kernels<6>::solve_interleaved(a, n, h, p, lanes); break;
    case 7: kernels<7>::solve_interleaved(a, n, h, p, lanes); break;
    default: kernels<0>::solve_interleaved(a, n, h, p, lanes); break;
  }
}

template <class S>
void solve_dispatch(const double* a, int n, int h, S* x) {
  switch (h) {
    case 1: kernels<1>::solve(a, n, h, x); break;
    case 2: kernels<2>::solve(a, n, h, x); break;
    case 3: kernels<3>::solve(a, n, h, x); break;
    case 4: kernels<4>::solve(a, n, h, x); break;
    case 5: kernels<5>::solve(a, n, h, x); break;
    case 6: kernels<6>::solve(a, n, h, x); break;
    case 7: kernels<7>::solve(a, n, h, x); break;
    default: kernels<0>::solve(a, n, h, x); break;
  }
}

/// Per-RHS substitution flops — the seed model, unchanged.
template <class S>
std::uint64_t solve_flops_per_rhs(int n, int w) {
  return static_cast<std::uint64_t>(n) *
         (2u * static_cast<std::uint64_t>(w) + 2u) *
         (std::is_same_v<S, cplx> ? 2 : 1);
}

/// Scalar-solve accounting: one band pass per RHS (seed-identical).
template <class S>
void account_solve_one(int n, int w) {
  const std::uint64_t f = solve_flops_per_rhs<S>(n, w);
  counters::add_flops(f);
  counters::add_read(f * 8);
  counters::add_written(static_cast<std::uint64_t>(n) * sizeof(S) * 2);
}

/// Blocked-solve accounting for one block of `nrhs` right-hand sides: the
/// flops (and the RHS stream) still scale with nrhs, but the factored band
/// is read ONCE for the whole block. The band share of the seed's per-RHS
/// read estimate is n*w entries; the remainder is RHS traffic. For a
/// 1-RHS block this reduces exactly to the scalar accounting.
template <class S>
void account_solve_block(int n, int w, int nrhs) {
  const std::uint64_t per_rhs = solve_flops_per_rhs<S>(n, w);
  const std::uint64_t band_bytes =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(w) * 8u;
  counters::add_flops(per_rhs * static_cast<std::uint64_t>(nrhs));
  counters::add_read(band_bytes + static_cast<std::uint64_t>(nrhs) *
                                      (per_rhs * 8u - band_bytes));
  counters::add_written(static_cast<std::uint64_t>(nrhs) *
                        static_cast<std::uint64_t>(n) * sizeof(S) * 2);
}

/// Gather `nrhs` (possibly strided) right-hand sides into the interleaved
/// panel layout p[row * lanes + rhs_lane]; complex values contribute their
/// (re, im) pair as two adjacent lanes.
template <class S>
void pack_panel(const S* x, int nrhs, std::size_t stride, int n, double* p) {
  constexpr int lpr = kLanesPerRhs<S>;
  const int lanes = nrhs * lpr;
  for (int r = 0; r < nrhs; ++r) {
    const double* src = reinterpret_cast<const double*>(
        x + static_cast<std::size_t>(r) * stride);
    for (int i = 0; i < n; ++i)
      for (int c = 0; c < lpr; ++c)
        p[static_cast<std::size_t>(i) * static_cast<std::size_t>(lanes) +
          static_cast<std::size_t>(r * lpr + c)] = src[i * lpr + c];
  }
}

template <class S>
void unpack_panel(const double* p, int nrhs, std::size_t stride, int n,
                  S* x) {
  constexpr int lpr = kLanesPerRhs<S>;
  const int lanes = nrhs * lpr;
  for (int r = 0; r < nrhs; ++r) {
    double* dst =
        reinterpret_cast<double*>(x + static_cast<std::size_t>(r) * stride);
    for (int i = 0; i < n; ++i)
      for (int c = 0; c < lpr; ++c)
        dst[i * lpr + c] =
            p[static_cast<std::size_t>(i) * static_cast<std::size_t>(lanes) +
              static_cast<std::size_t>(r * lpr + c)];
  }
}

/// Blocked multi-RHS solve over factored compact-band storage; shared by
/// compact_banded and banded_view. Blocks of up to kMaxLanes real lanes
/// ride one band pass; a single trailing RHS falls back to the scalar
/// kernel (bit-identical to solve()).
template <class S>
void solve_many_on(const double* a, int n, int h, S* x, int nrhs,
                   std::size_t stride, bool fixed_lanes) {
  PCF_REQUIRE(nrhs >= 0, "nrhs must be nonnegative");
  PCF_REQUIRE(nrhs <= 1 || stride >= static_cast<std::size_t>(n),
              "RHS panel stride must be >= n");
  constexpr int lpr = kLanesPerRhs<S>;
  constexpr int max_block = kMaxLanes / lpr;
  const int w = 2 * h + 1;
  thread_local std::vector<double> panel;
  int r = 0;
  while (nrhs - r >= 2) {
    const int rb = std::min(nrhs - r, max_block);
    const int lanes = rb * lpr;
    panel.resize(static_cast<std::size_t>(n) *
                 static_cast<std::size_t>(lanes));
    S* block = x + static_cast<std::size_t>(r) * stride;
    pack_panel(block, rb, stride, n, panel.data());
    panel_dispatch(a, n, h, panel.data(), lanes, fixed_lanes);
    unpack_panel(panel.data(), rb, stride, n, block);
    account_solve_block<S>(n, w, rb);
    r += rb;
  }
  for (; r < nrhs; ++r) {
    solve_dispatch(a, n, h, x + static_cast<std::size_t>(r) * stride);
    account_solve_one<S>(n, w);
  }
}

}  // namespace

void interleave_band(const double* band, int n, int h, int r,
                     double* block) {
  const std::size_t e = static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(2 * h + 1);
  for (std::size_t i = 0; i < e; ++i)
    block[i * kBlockBands + static_cast<std::size_t>(r)] = band[i];
}

template <class S>
void solve_interleaved(const double* block, int n, int h, double* p,
                       int nrhs, int live) {
  PCF_REQUIRE(nrhs > 0 && live >= 0 && live <= kBlockBands,
              "solve_interleaved: bad RHS or band count");
  interleaved_dispatch(block, n, h, p, nrhs * kLanesPerRhs<S>);
  for (int r = 0; r < live; ++r) account_solve_block<S>(n, 2 * h + 1, nrhs);
}

void compact_banded::factorize() {
  std::uint64_t flops = 0;
  switch (h_) {
    case 1: flops = kernels<1>::factorize(a_.data(), n_, h_); break;
    case 2: flops = kernels<2>::factorize(a_.data(), n_, h_); break;
    case 3: flops = kernels<3>::factorize(a_.data(), n_, h_); break;
    case 4: flops = kernels<4>::factorize(a_.data(), n_, h_); break;
    case 5: flops = kernels<5>::factorize(a_.data(), n_, h_); break;
    case 6: flops = kernels<6>::factorize(a_.data(), n_, h_); break;
    case 7: flops = kernels<7>::factorize(a_.data(), n_, h_); break;
    default: flops = kernels<0>::factorize(a_.data(), n_, h_); break;
  }
  factorized_ = true;
  counters::add_flops(flops);
  // Logical traffic estimate: each fused multiply-subtract reads a pivot-row
  // and a target-row entry and writes the target back.
  counters::add_read(flops * 8);
  counters::add_written(flops * 4);
}

template <class S>
void compact_banded::solve_one(S* x) const {
  solve_dispatch(a_.data(), n_, h_, x);
  account_solve_one<S>(n_, w_);
}

template <class S>
void compact_banded::solve(S* x) const {
  PCF_REQUIRE(factorized_, "solve() requires factorize() first");
  solve_one(x);
}

template <class S>
void compact_banded::apply_many(const S* x, S* y, int lines) const {
  PCF_REQUIRE(!factorized_, "apply_many() needs the unfactored matrix");
  PCF_REQUIRE(lines >= 0, "line count must be nonnegative");
  if (lines == 0) return;
  const int lanes = lines * kLanesPerRhs<S>;
  apply_dispatch(a_.data(), n_, h_, reinterpret_cast<const double*>(x),
                 reinterpret_cast<double*>(y), lanes);
  counters::add_flops(static_cast<std::uint64_t>(n_) * 2u *
                      static_cast<std::uint64_t>(w_) *
                      static_cast<std::uint64_t>(lanes));
}

template <class S>
void compact_banded::solve_panel(S* p, int lines) const {
  PCF_REQUIRE(factorized_, "solve_panel() requires factorize() first");
  PCF_REQUIRE(lines >= 0, "line count must be nonnegative");
  if (lines == 0) return;
  panel_dispatch(a_.data(), n_, h_, reinterpret_cast<double*>(p),
                 lines * kLanesPerRhs<S>, true);
  account_solve_block<S>(n_, w_, lines);
}

template <class S>
void compact_banded::solve_many_impl(S* x, int nrhs, std::size_t stride,
                                     bool fixed_lanes) const {
  PCF_REQUIRE(factorized_, "solve_many() requires factorize() first");
  solve_many_on(a_.data(), n_, h_, x, nrhs, stride, fixed_lanes);
}

template <class S>
void compact_banded::solve_many(S* x, int nrhs, std::size_t stride) const {
  solve_many_impl(x, nrhs, stride, true);
}

template <class S>
void compact_banded::solve_many_blocked_generic(S* x, int nrhs,
                                                std::size_t stride) const {
  solve_many_impl(x, nrhs, stride, false);
}

template <class S>
void compact_banded::solve_many_scalar(S* x, int nrhs,
                                       std::size_t stride) const {
  PCF_REQUIRE(factorized_, "solve_many_scalar() requires factorize() first");
  for (int r = 0; r < nrhs; ++r)
    solve_one(x + static_cast<std::size_t>(r) * stride);
}

template <class S>
void banded_view::solve(S* x) const {
  solve_dispatch(a_, n_, h_, x);
  account_solve_one<S>(n_, 2 * h_ + 1);
}

template <class S>
void banded_view::solve_many(S* x, int nrhs, std::size_t stride) const {
  solve_many_on(a_, n_, h_, x, nrhs, stride, true);
}

template void solve_interleaved<double>(const double*, int, int, double*,
                                        int, int);
template void solve_interleaved<cplx>(const double*, int, int, double*, int,
                                      int);
template void compact_banded::apply_many(const double*, double*, int) const;
template void compact_banded::apply_many(const cplx*, cplx*, int) const;
template void compact_banded::solve_panel(double*, int) const;
template void compact_banded::solve_panel(cplx*, int) const;
template void compact_banded::solve(double*) const;
template void compact_banded::solve(cplx*) const;
template void compact_banded::solve_many(double*, int, std::size_t) const;
template void compact_banded::solve_many(cplx*, int, std::size_t) const;
template void compact_banded::solve_many_scalar(double*, int,
                                                std::size_t) const;
template void compact_banded::solve_many_scalar(cplx*, int,
                                                std::size_t) const;
template void compact_banded::solve_many_blocked_generic(double*, int,
                                                         std::size_t) const;
template void compact_banded::solve_many_blocked_generic(cplx*, int,
                                                         std::size_t) const;
template void banded_view::solve(double*) const;
template void banded_view::solve(cplx*) const;
template void banded_view::solve_many(double*, int, std::size_t) const;
template void banded_view::solve_many(cplx*, int, std::size_t) const;

}  // namespace pcf::banded
