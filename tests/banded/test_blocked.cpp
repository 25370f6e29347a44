// Blocked multi-RHS substitution: the blocked kernels must be BIT-identical
// to the sequential scalar solves (per-lane arithmetic order is unchanged;
// the multipliers are matrix entries, uniform across lanes), and the
// flop/byte accounting must charge the band read once per block while
// reducing exactly to the seed single-RHS numbers at R = 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

#include "banded/compact.hpp"
#include "banded/gb.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace {

using pcf::banded::banded_view;
using pcf::banded::compact_banded;
using pcf::banded::cplx;
using pcf::banded::gb_matrix;

void fill_profile(compact_banded& M, std::uint64_t seed) {
  const int n = M.n();
  pcf::rng r(seed);
  for (int i = 0; i < n; ++i) {
    double rowsum = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!M.in_profile(i, j) || j == i) continue;
      const double v = r.uniform(-1, 1);
      M.at(i, j) = v;
      rowsum += std::abs(v);
    }
    M.at(i, i) = rowsum + 1.0;
  }
}

template <class S>
std::vector<S> random_panel(std::size_t count, std::uint64_t seed) {
  pcf::rng r(seed);
  std::vector<S> p(count);
  for (auto& v : p) {
    if constexpr (std::is_same_v<S, cplx>)
      v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    else
      v = r.uniform(-1, 1);
  }
  return p;
}

/// Bit-identity of every multi-RHS entry point against sequential scalar
/// solves, over bandwidth x RHS-count x stride x scalar type.
template <class S>
void check_bit_identity(int h, int nrhs, std::size_t stride) {
  const int n = 40;
  ASSERT_GE(stride, static_cast<std::size_t>(n));
  compact_banded M(n, h);
  fill_profile(M, 100 * static_cast<std::uint64_t>(h) + nrhs);
  M.factorize();

  const std::size_t count = static_cast<std::size_t>(nrhs) * stride;
  auto ref = random_panel<S>(count, 7 * static_cast<std::uint64_t>(h) + nrhs);
  for (int q = 0; q < nrhs; ++q)
    M.solve(ref.data() + static_cast<std::size_t>(q) * stride);

  auto run = [&](auto&& fn) {
    auto x =
        random_panel<S>(count, 7 * static_cast<std::uint64_t>(h) + nrhs);
    fn(x);
    for (std::size_t i = 0; i < count; ++i) {
      if constexpr (std::is_same_v<S, cplx>) {
        EXPECT_EQ(x[i].real(), ref[i].real()) << "h=" << h << " i=" << i;
        EXPECT_EQ(x[i].imag(), ref[i].imag()) << "h=" << h << " i=" << i;
      } else {
        EXPECT_EQ(x[i], ref[i]) << "h=" << h << " i=" << i;
      }
    }
  };
  run([&](auto& x) { M.solve_many(x.data(), nrhs, stride); });
  run([&](auto& x) { M.solve_many_scalar(x.data(), nrhs, stride); });
  run([&](auto& x) { M.solve_many_blocked_generic(x.data(), nrhs, stride); });
  run([&](auto& x) { M.view().solve_many(x.data(), nrhs, stride); });
}

TEST(Blocked, BitIdenticalToScalarComplexContiguous) {
  for (int h = 1; h <= 7; ++h)
    for (int nrhs : {1, 2, 3, 4, 8}) check_bit_identity<cplx>(h, nrhs, 40);
}

TEST(Blocked, BitIdenticalToScalarRealContiguous) {
  for (int h = 1; h <= 7; ++h)
    for (int nrhs : {1, 2, 3, 4, 8}) check_bit_identity<double>(h, nrhs, 40);
}

TEST(Blocked, BitIdenticalToScalarStrided) {
  // Strided panels (stride = n + 7) exercise the pack/unpack path's
  // addressing independently of the contiguous case.
  for (int h = 1; h <= 7; ++h)
    for (int nrhs : {1, 2, 3, 4, 8}) {
      check_bit_identity<cplx>(h, nrhs, 47);
      check_bit_identity<double>(h, nrhs, 47);
    }
}

TEST(Blocked, ViewSolveMatchesOwner) {
  const int n = 40, h = 5;
  compact_banded M(n, h);
  fill_profile(M, 12);
  M.factorize();
  banded_view v = M.view();
  EXPECT_EQ(v.n(), n);
  EXPECT_EQ(v.half_bandwidth(), h);
  auto a = random_panel<cplx>(static_cast<std::size_t>(n), 3);
  auto b = a;
  M.solve(a.data());
  v.solve(b.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)].real(),
              b[static_cast<std::size_t>(i)].real());
    EXPECT_EQ(a[static_cast<std::size_t>(i)].imag(),
              b[static_cast<std::size_t>(i)].imag());
  }
}

TEST(Blocked, ViewRequiresFactorized) {
  compact_banded M(9, 1);
  fill_profile(M, 5);
  EXPECT_THROW((void)M.view(), pcf::precondition_error);
  M.factorize();
  EXPECT_NO_THROW((void)M.view());
}

TEST(Blocked, StrideSmallerThanNThrows) {
  compact_banded M(16, 2);
  fill_profile(M, 5);
  M.factorize();
  std::vector<cplx> x(32);
  EXPECT_THROW(M.solve_many(x.data(), 2, 15), pcf::precondition_error);
}

TEST(Blocked, GbSolveManyBitIdenticalToScalar) {
  const int n = 36, h = 3;
  gb_matrix<double> G(n, 2 * h, 2 * h);
  pcf::rng r(21);
  for (int i = 0; i < n; ++i) {
    double rowsum = 0.0;
    for (int j = std::max(0, i - 2 * h); j <= std::min(n - 1, i + 2 * h);
         ++j) {
      if (j == i) continue;
      const double v = r.uniform(-1, 1);
      G.at(i, j) = v;
      rowsum += std::abs(v);
    }
    G.at(i, i) = rowsum + 1.0;
  }
  G.factorize();
  for (int nrhs : {1, 2, 3, 4, 8}) {
    const auto stride = static_cast<std::size_t>(n);
    auto many = random_panel<cplx>(stride * static_cast<std::size_t>(nrhs),
                                   50 + static_cast<std::uint64_t>(nrhs));
    auto single = many;
    G.solve_many(many.data(), nrhs, stride);
    for (int q = 0; q < nrhs; ++q)
      G.solve(single.data() + static_cast<std::size_t>(q) * stride);
    for (std::size_t i = 0; i < many.size(); ++i) {
      EXPECT_EQ(many[i].real(), single[i].real());
      EXPECT_EQ(many[i].imag(), single[i].imag());
    }
  }
}

/// Measure the counters charged by `fn`.
pcf::op_counts count(const std::function<void()>& fn) {
  pcf::counters::reset();
  fn();
  pcf::counters::drain();
  return pcf::counters::total();
}

TEST(BlockedCounters, SingleRhsViaSolveManyMatchesSolve) {
  // R = 1 must account exactly like the seed scalar path.
  const int n = 64, h = 7;
  compact_banded M(n, h);
  fill_profile(M, 9);
  M.factorize();
  std::vector<cplx> x(static_cast<std::size_t>(n), cplx{1.0, -1.0});
  const auto one = count([&] {
    auto b = x;
    M.solve(b.data());
  });
  const auto many = count([&] {
    auto b = x;
    M.solve_many(b.data(), 1, static_cast<std::size_t>(n));
  });
  EXPECT_EQ(one.flops, many.flops);
  EXPECT_EQ(one.bytes_read, many.bytes_read);
  EXPECT_EQ(one.bytes_written, many.bytes_written);
}

TEST(BlockedCounters, BandReadChargedOncePerBlock) {
  // For a block of R RHS the factored band is streamed once, so
  //   read(R) = band_bytes + R * (read(1) - band_bytes)
  //   flops(R) = R * flops(1),  written(R) = R * written(1).
  const int n = 64, h = 7, R = 4;
  compact_banded M(n, h);
  fill_profile(M, 9);
  M.factorize();
  std::vector<cplx> x(static_cast<std::size_t>(n) * R, cplx{0.5, 2.0});
  const auto one = count([&] {
    auto b = x;
    M.solve(b.data());
  });
  const auto blk = count([&] {
    auto b = x;
    M.solve_many(b.data(), R, static_cast<std::size_t>(n));
  });
  const std::uint64_t band_bytes =
      static_cast<std::uint64_t>(n) * (2 * h + 1) * 8;
  EXPECT_EQ(blk.flops, R * one.flops);
  EXPECT_EQ(blk.bytes_written, R * one.bytes_written);
  EXPECT_EQ(blk.bytes_read, band_bytes + R * (one.bytes_read - band_bytes));
  EXPECT_LT(blk.bytes_read, R * one.bytes_read);
}

/// Panel lines of random values (line r, row i at p[i * lines + r]),
/// except that every third line is all -0.0: there the sign of each zero
/// in the result depends on the order of the operations, and on the skip
/// of zero multipliers in the solve.
template <class S>
std::vector<S> random_lines(int n, int lines, std::uint64_t seed) {
  auto p = random_panel<S>(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(lines), seed);
  for (int i = 0; i < n; ++i)
    for (int r = 2; r < lines; r += 3)
      p[static_cast<std::size_t>(i) * static_cast<std::size_t>(lines) +
        static_cast<std::size_t>(r)] = S(-0.0);
  return p;
}

/// Line r of a panel, copied out as a contiguous line.
template <class S>
std::vector<S> panel_line(const std::vector<S>& p, int n, int lines, int r) {
  std::vector<S> line(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    line[static_cast<std::size_t>(i)] =
        p[static_cast<std::size_t>(i) * static_cast<std::size_t>(lines) +
          static_cast<std::size_t>(r)];
  return line;
}

/// The seed's one-line product y = A x over the unfactored profile: one
/// accumulator per line, from zero, in column order.
template <class S>
std::vector<S> seed_apply(const compact_banded& M, const std::vector<S>& x) {
  const int n = M.n();
  const int w = M.bandwidth();
  std::vector<S> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int s = M.row_start(i);
    const double* r = M.data() + static_cast<std::size_t>(i) * w;
    S acc{};
    for (int c = 0; c < w; ++c)
      acc += r[c] * x[static_cast<std::size_t>(s + c)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

/// apply_many over `lines` lines against apply() and the seed product on
/// each line: every bit equal, and the counters charged exactly the sum of
/// the one-line calls.
template <class S>
void check_apply_many(int n, int h, int lines) {
  compact_banded M(n, h);
  fill_profile(M, 300 + static_cast<std::uint64_t>(h));
  const auto x = random_lines<S>(
      n, lines, 17 * static_cast<std::uint64_t>(h) + lines);
  std::vector<S> y(x.size());
  const auto blk = count([&] { M.apply_many(x.data(), y.data(), lines); });
  pcf::op_counts sum{};
  for (int r = 0; r < lines; ++r) {
    const auto xr = panel_line(x, n, lines, r);
    std::vector<S> yr(static_cast<std::size_t>(n));
    const auto one = count([&] { M.apply(xr.data(), yr.data()); });
    sum.flops += one.flops;
    sum.bytes_read += one.bytes_read;
    sum.bytes_written += one.bytes_written;
    const auto ref = seed_apply(M, xr);
    const auto got = panel_line(y, n, lines, r);
    ASSERT_EQ(std::memcmp(got.data(), yr.data(), n * sizeof(S)), 0)
        << "h=" << h << " lines=" << lines << " line " << r;
    ASSERT_EQ(std::memcmp(got.data(), ref.data(), n * sizeof(S)), 0)
        << "h=" << h << " lines=" << lines << " line " << r;
  }
  EXPECT_EQ(blk.flops, sum.flops) << "h=" << h << " lines=" << lines;
  EXPECT_EQ(blk.bytes_read, sum.bytes_read);
  EXPECT_EQ(blk.bytes_written, sum.bytes_written);
}

// Panel widths 1 .. 2M+1 real lanes for M = 8 modes a block (and complex
// panels up to 2M+2 lanes), at every compile-time bandwidth h = 1..7 and
// at h = 9, which takes the runtime-bandwidth kernel.
TEST(BlockedApply, MatchesPerLineApply) {
  constexpr int kBlockModes = 8;
  for (int h : {1, 2, 3, 4, 5, 6, 7, 9}) {
    const int n = 40;
    for (int lines = 1; lines <= 2 * kBlockModes + 1; ++lines)
      check_apply_many<double>(n, h, lines);
    for (int lines = 1; lines <= kBlockModes + 1; ++lines)
      check_apply_many<cplx>(n, h, lines);
  }
}

/// solve_panel over `lines` interleaved lines against solve() on each
/// line; the counters charge the band once for the panel, as a block of
/// solve_many does.
template <class S>
void check_solve_panel(int h, int lines) {
  const int n = 40;
  compact_banded M(n, h);
  fill_profile(M, 500 + static_cast<std::uint64_t>(h));
  // A zero below the first pivot stays a zero multiplier in L (column 0
  // takes no updates), so the skip of zero multipliers is exercised.
  M.at(h, 0) = 0.0;
  M.factorize();
  auto p =
      random_lines<S>(n, lines, 23 * static_cast<std::uint64_t>(h) + lines);
  const auto rhs = p;
  const auto blk = count([&] { M.solve_panel(p.data(), lines); });
  pcf::op_counts one{};
  for (int r = 0; r < lines; ++r) {
    auto xr = panel_line(rhs, n, lines, r);
    one = count([&] { M.solve(xr.data()); });
    const auto got = panel_line(p, n, lines, r);
    ASSERT_EQ(std::memcmp(got.data(), xr.data(), n * sizeof(S)), 0)
        << "h=" << h << " lines=" << lines << " line " << r;
  }
  const std::uint64_t band_bytes =
      static_cast<std::uint64_t>(n) * (2 * h + 1) * 8;
  EXPECT_EQ(blk.flops, lines * one.flops);
  EXPECT_EQ(blk.bytes_written, lines * one.bytes_written);
  EXPECT_EQ(blk.bytes_read,
            band_bytes + lines * (one.bytes_read - band_bytes));
}

TEST(Blocked, SolvePanelMatchesPerLineSolve) {
  for (int h : {1, 2, 3, 4, 5, 6, 7, 9})
    for (int lines = 1; lines <= 17; ++lines) {
      check_solve_panel<double>(h, lines);
      check_solve_panel<cplx>(h, lines);
    }
}

/// A block of kBlockBands factored bands for the interleaved solve: random
/// diagonally dominant bands, except that band 3 has no multiplier (L = I)
/// and no U entry off the diagonal in row 1, so the block mixes zero and
/// nonzero multipliers in the same slot.
std::vector<std::vector<double>> interleaved_bands(int n, int h) {
  std::vector<std::vector<double>> bands;
  for (int r = 0; r < pcf::banded::kBlockBands; ++r) {
    compact_banded M(n, h);
    fill_profile(M, 500 + static_cast<std::uint64_t>(n * 10 + r));
    M.factorize();
    std::vector<double> a(M.data(), M.data() + M.band_elems());
    if (r == 3) {
      const auto w = static_cast<std::size_t>(M.bandwidth());
      for (int i = 0; i < n; ++i)
        for (int j = M.row_start(i); j <= M.row_start(i) + 2 * h; ++j)
          if (j < i || (i == 1 && j > i))
            a[static_cast<std::size_t>(i) * w +
              static_cast<std::size_t>(j - M.row_start(i))] = 0.0;
    }
    bands.push_back(std::move(a));
  }
  return bands;
}

/// solve_interleaved over `live` bands (the rest padding copies of band
/// 0) with nrhs complex right-hand sides each, against banded_view solves
/// of every live band alone: memcmp per band. Band 3's first RHS holds
/// -1 in row 0, -0.0 in row 1, and below them U times a positive vector.
/// Its multipliers are all zero, and only the per-lane skip keeps row 1 at
/// -0.0: without it -0.0 - (+0.0 * -1) is +0.0, and row 1's back
/// substitution (zero U entries times positive values) keeps that sign.
void check_interleaved(int n, int nrhs, int live) {
  constexpr int B = pcf::banded::kBlockBands;
  const int h = 7;
  const auto bands = interleaved_bands(n, h);
  std::vector<double> block(bands[0].size() * B);
  for (int r = 0; r < B; ++r)
    pcf::banded::interleave_band(
        bands[static_cast<std::size_t>(r < live ? r : 0)].data(), n, h, r,
        block.data());
  const auto un = static_cast<std::size_t>(n);
  const auto ur = static_cast<std::size_t>(nrhs);
  std::vector<std::vector<cplx>> lines;  // band r: nrhs lines of n
  for (int r = 0; r < B; ++r) {
    auto x = random_panel<cplx>(ur * un, 40 + static_cast<std::uint64_t>(r));
    if (r == 3) {
      const auto& a = bands[3];
      const auto w = static_cast<std::size_t>(2 * h + 1);
      const compact_banded shape(n, h);
      for (int i = 2; i < n; ++i) {
        const int s0 = shape.row_start(i);
        double b = 0.0;
        for (int j = i; j <= s0 + 2 * h; ++j)
          b += a[static_cast<std::size_t>(i) * w +
                 static_cast<std::size_t>(j - s0)] *
               (1.0 + 0.01 * j);
        x[static_cast<std::size_t>(i)] = cplx{b, b};
      }
      x[0] = cplx{-1.0, -1.0};
      x[1] = cplx{-0.0, -0.0};
    }
    lines.push_back(r < live ? x : lines[0]);
  }
  const std::size_t K = 2 * ur;
  std::vector<double> p(un * K * B);
  for (int r = 0; r < B; ++r)
    for (std::size_t q = 0; q < ur; ++q)
      for (std::size_t i = 0; i < un; ++i) {
        const cplx v = lines[static_cast<std::size_t>(r)][q * un + i];
        p[(i * K + 2 * q) * B + static_cast<std::size_t>(r)] = v.real();
        p[(i * K + 2 * q + 1) * B + static_cast<std::size_t>(r)] = v.imag();
      }
  pcf::banded::solve_interleaved<cplx>(block.data(), n, h, p.data(), nrhs,
                                       live);
  for (int r = 0; r < live; ++r) {
    auto want = lines[static_cast<std::size_t>(r)];
    const banded_view v(bands[static_cast<std::size_t>(r)].data(), n, h);
    if (nrhs == 1)
      v.solve(want.data());
    else
      v.solve_many(want.data(), nrhs, un);
    std::vector<cplx> got(want.size());
    for (std::size_t q = 0; q < ur; ++q)
      for (std::size_t i = 0; i < un; ++i)
        got[q * un + i] =
            cplx{p[(i * K + 2 * q) * B + static_cast<std::size_t>(r)],
                 p[(i * K + 2 * q + 1) * B + static_cast<std::size_t>(r)]};
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(cplx)),
              0)
        << "n=" << n << " nrhs=" << nrhs << " live=" << live << " band " << r;
    if (r == 3) EXPECT_TRUE(std::signbit(got[1].real()));
  }
}

TEST(Blocked, InterleavedSolveMatchesPerBandSolve) {
  for (int n : {33, 49})
    for (int nrhs : {1, 2, 3})  // K = 2, 4, 6 real lanes per band
      for (int live : {8, 5}) check_interleaved(n, nrhs, live);
}

TEST(BlockedCounters, InterleavedChargesLiveBandsAsSolveMany) {
  // Each live band is charged as one solve_many of nrhs right-hand sides
  // (band read once per pass); padding bands are not charged.
  const int n = 49, h = 7, nrhs = 2, live = 5;
  const auto bands = interleaved_bands(n, h);
  std::vector<double> block(bands[0].size() * pcf::banded::kBlockBands);
  for (int r = 0; r < pcf::banded::kBlockBands; ++r)
    pcf::banded::interleave_band(bands[0].data(), n, h, r, block.data());
  std::vector<double> p(static_cast<std::size_t>(n) * 2 * nrhs *
                            pcf::banded::kBlockBands,
                        0.5);
  const auto blk = count([&] {
    pcf::banded::solve_interleaved<cplx>(block.data(), n, h, p.data(), nrhs,
                                         live);
  });
  std::vector<cplx> x(static_cast<std::size_t>(n) * nrhs, cplx{0.5, 0.5});
  const auto one = count([&] {
    banded_view(bands[0].data(), n, h)
        .solve_many(x.data(), nrhs, static_cast<std::size_t>(n));
  });
  EXPECT_EQ(blk.flops, live * one.flops);
  EXPECT_EQ(blk.bytes_read, live * one.bytes_read);
  EXPECT_EQ(blk.bytes_written, live * one.bytes_written);
}

}  // namespace
