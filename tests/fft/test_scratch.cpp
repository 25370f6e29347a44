// The per-thread scratch arena that backs plan execution, and the
// re-entrancy it exists to guarantee: outer checkouts stay valid while
// nested ones grow the arena (the aliasing bug a shared growable vector
// would have), including real transforms whose half length runs Bluestein.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <thread>
#include <vector>

#include "fft/fft.hpp"
#include "fft/scratch.hpp"
#include "util/rng.hpp"

namespace {

using pcf::fft::c2c_plan;
using pcf::fft::c2r_plan;
using pcf::fft::cplx;
using pcf::fft::dft_naive;
using pcf::fft::direction;
using pcf::fft::r2c_plan;
using pcf::fft::detail::scratch_arena;

TEST(ScratchArena, LifoScopesReleaseTogether) {
  scratch_arena a;
  {
    scratch_arena::scope outer(a);
    cplx* p = outer.alloc(10);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(a.live_elems(), 10u);
    {
      scratch_arena::scope inner(a);
      (void)inner.alloc(20);
      EXPECT_EQ(a.live_elems(), 30u);
    }
    EXPECT_EQ(a.live_elems(), 10u);
  }
  EXPECT_EQ(a.live_elems(), 0u);
}

TEST(ScratchArena, NestedGrowthDoesNotMoveOuterAllocation) {
  scratch_arena a;
  scratch_arena::scope outer(a);
  cplx* p = outer.alloc(scratch_arena::kMinChunk / 2);
  p[0] = cplx{3.0, -4.0};
  const cplx* before = p;
  {
    // Far larger than the current chunk: must append, not reallocate.
    scratch_arena::scope inner(a);
    cplx* q = inner.alloc(16 * scratch_arena::kMinChunk);
    ASSERT_NE(q, nullptr);
    std::fill_n(q, 16 * scratch_arena::kMinChunk, cplx{1e300, -1e300});
    EXPECT_EQ(p, before);
    EXPECT_EQ(p[0], (cplx{3.0, -4.0}));
  }
  EXPECT_EQ(p[0], (cplx{3.0, -4.0}));
}

TEST(ScratchArena, RetainedFootprintShrinksAfterLargeEpoch) {
  scratch_arena a;
  {
    scratch_arena::scope s(a);
    (void)s.alloc(64 * scratch_arena::kMinChunk);
  }
  // One huge epoch followed by small ones: after a small epoch closes,
  // the retained capacity must drop below 4x that epoch's high-water.
  {
    scratch_arena::scope s(a);
    (void)s.alloc(8);
  }
  EXPECT_LE(a.retained_elems(), 4 * scratch_arena::kMinChunk);
  EXPECT_GE(a.retained_elems(), scratch_arena::kMinChunk);
}

// The 4x idle-consolidation threshold exactly: a single oversized chunk is
// kept while retained <= 4x the epoch peak (no thrash between plans of
// alternating size) and dropped to the high-water mark the first epoch
// that crosses it.
TEST(ScratchArena, IdleConsolidationHoldsBelow4xAndShrinksAbove) {
  scratch_arena a;
  {
    scratch_arena::scope s(a);
    (void)s.alloc(8 * scratch_arena::kMinChunk);
  }
  const std::size_t big = a.retained_elems();
  ASSERT_GE(big, 8 * scratch_arena::kMinChunk);
  // Epoch peak of exactly retained/4: at the boundary (have == 4*want),
  // the single chunk is RETAINED (shrink requires have > 4*want).
  {
    scratch_arena::scope s(a);
    (void)s.alloc(big / 4);
  }
  EXPECT_EQ(a.retained_elems(), big);
  // One element under the boundary: now have > 4*want, so the arena
  // reallocates down to the epoch high-water mark.
  {
    scratch_arena::scope s(a);
    (void)s.alloc(big / 4 - 1);
  }
  EXPECT_EQ(a.retained_elems(), big / 4 - 1);
}

TEST(ScratchArena, ManyChunksMergeWhenIdle) {
  scratch_arena a;
  {
    scratch_arena::scope outer(a);
    (void)outer.alloc(scratch_arena::kMinChunk);
    scratch_arena::scope i1(a);
    (void)i1.alloc(2 * scratch_arena::kMinChunk);
    scratch_arena::scope i2(a);
    (void)i2.alloc(4 * scratch_arena::kMinChunk);
  }
  // Next epoch's first checkout of the combined size fits one chunk.
  scratch_arena::scope s(a);
  cplx* p = s.alloc(7 * scratch_arena::kMinChunk);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.live_elems(), 7 * scratch_arena::kMinChunk);
}

// Regression for the tls_scratch() aliasing hazard: r2c/c2r of length 2p
// (p a prime > 31) keep their packed block checked out while the
// half-length plan runs Bluestein, which executes two power-of-two plans
// on its own work buffer. The arena must keep all of them live and
// distinct. Verified against the naive DFT.
TEST(ScratchNesting, RealTransformWithBluesteinHalfMatchesNaive) {
  const std::size_t n = 74;  // half = 37, prime > 31 -> Bluestein inside
  pcf::rng r(37);
  std::vector<double> x(n);
  for (auto& v : x) v = r.uniform(-1, 1);
  std::vector<cplx> X(n / 2 + 1), full(n), want(n);
  r2c_plan p(n);
  p.execute(x.data(), X.data());
  for (std::size_t i = 0; i < n; ++i) full[i] = x[i];
  dft_naive(full.data(), want.data(), n, -1);
  for (std::size_t k = 0; k <= n / 2; ++k)
    EXPECT_LT(std::abs(X[k] - want[k]), 1e-9) << "k=" << k;
}

TEST(ScratchNesting, RealRoundTripWithBluesteinHalf) {
  const std::size_t n = 74;
  pcf::rng r(74);
  std::vector<double> x(n), back(n);
  for (auto& v : x) v = r.uniform(-1, 1);
  std::vector<cplx> X(n / 2 + 1);
  r2c_plan f(n);
  c2r_plan b(n);
  f.execute(x.data(), X.data());
  b.execute(X.data(), back.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i] / static_cast<double>(n), x[i], 1e-12);
}

TEST(ScratchNesting, InPlaceNonSmoothTransformMatchesOutOfPlace) {
  // In-place non-smooth c2c: the packed line stays live across the whole
  // Bluestein execution (two inner plans on the arena's u/uhat).
  const std::size_t n = 111;  // 3 * 37
  pcf::rng r(111);
  std::vector<cplx> x(n), want(n);
  for (auto& v : x) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
  c2c_plan p(n, direction::forward);
  p.execute(x.data(), want.data());
  p.execute(x.data(), x.data());  // in-place
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(x[i].real(), want[i].real()) << "i=" << i;
    EXPECT_EQ(x[i].imag(), want[i].imag()) << "i=" << i;
  }
}

TEST(ScratchNesting, ArenaDrainsAfterMixedPlanSizes) {
  // After plans of wildly different sizes, the thread's arena holds no
  // live checkouts and a bounded footprint. Runs on a fresh thread so the
  // arena state does not depend on which tests ran earlier in this binary.
  std::thread t([] {
    auto& a = scratch_arena::tls();
    {
      std::vector<cplx> big(997), out(997);
      c2c_plan p(997, direction::forward);  // large Bluestein
      p.execute(big.data(), out.data());
    }
    EXPECT_EQ(a.live_elems(), 0u);
    const std::size_t peak = a.retained_elems();  // ~2 * bl_m = 4096
    {
      std::vector<double> x(74);
      std::vector<cplx> X(38);
      r2c_plan p(74);
      p.execute(x.data(), X.data());
    }
    EXPECT_EQ(a.live_elems(), 0u);
    // The small epochs after the big one must not grow the footprint, and
    // the retained capacity obeys the 4x-of-epoch-peak bound.
    EXPECT_LE(a.retained_elems(), peak);
    EXPECT_LE(a.retained_elems(), 4 * 1024u);
  });
  t.join();
}

TEST(ScratchNesting, FreshThreadGetsFreshArena) {
  std::thread t([] {
    EXPECT_EQ(scratch_arena::tls().live_elems(), 0u);
    std::vector<double> x(74);
    std::vector<cplx> X(38);
    r2c_plan p(74);
    p.execute(x.data(), X.data());
    EXPECT_EQ(scratch_arena::tls().live_elems(), 0u);
  });
  t.join();
}

}  // namespace
