// Plan object properties: concurrent execution (the pencil kernel embeds
// plan calls inside threaded blocks), move semantics, flop accounting, and
// the shared plan cache's miss counting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "fft/fft.hpp"
#include "fft/plan_cache.hpp"
#include "util/check.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace {

using pcf::fft::c2c_plan;
using pcf::fft::cplx;
using pcf::fft::direction;

TEST(PlanProps, ConcurrentExecutionIsSafeAndCorrect) {
  const std::size_t n = 192;
  const c2c_plan plan(n, direction::forward);
  pcf::rng r(1);
  std::vector<cplx> in(n);
  for (auto& v : in) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
  std::vector<cplx> want(n);
  plan.execute(in.data(), want.data());

  const int nthreads = 8;
  std::vector<std::vector<cplx>> outs(nthreads, std::vector<cplx>(n));
  std::vector<std::thread> ts;
  for (int t = 0; t < nthreads; ++t)
    ts.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep)
        plan.execute(in.data(), outs[static_cast<std::size_t>(t)].data());
    });
  for (auto& t : ts) t.join();
  for (const auto& out : outs)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(out[i], want[i]);
}

TEST(PlanProps, ConcurrentInPlaceUsesThreadLocalScratch) {
  const std::size_t n = 128;
  const c2c_plan plan(n, direction::forward);
  std::vector<cplx> base(n);
  for (std::size_t i = 0; i < n; ++i)
    base[i] = cplx{std::sin(0.1 * static_cast<double>(i)), 0.0};
  std::vector<cplx> want = base;
  plan.execute(want.data(), want.data());

  std::vector<std::thread> ts;
  std::vector<std::vector<cplx>> bufs(6, base);
  for (auto& buf : bufs)
    ts.emplace_back([&plan, &buf, n] {
      for (int rep = 0; rep < 20; ++rep) {
        // forward then renormalized inverse to return to the start
        plan.execute(buf.data(), buf.data());
        c2c_plan inv(n, direction::inverse);
        inv.execute(buf.data(), buf.data());
        for (auto& v : buf) v /= static_cast<double>(n);
      }
    });
  for (auto& t : ts) t.join();
  for (const auto& buf : bufs)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_LT(std::abs(buf[i] - base[i]), 1e-9);
}

TEST(PlanProps, MoveTransfersPlan) {
  c2c_plan a(64, direction::forward);
  c2c_plan b = std::move(a);
  EXPECT_EQ(b.size(), 64u);
  std::vector<cplx> x(64, cplx{1, 0}), y(64);
  b.execute(x.data(), y.data());
  EXPECT_NEAR(y[0].real(), 64.0, 1e-10);
}

// Flops and bytes add up to exactly count x the per-line accounting
// (uint64(5 n log2 n) flops and n * 16 bytes each way for the complex
// transform a line runs), whichever block/tail split execute_many makes.
// At n = 24, 5 n log2 n = 550.2 is not an integer, so rounding a call's
// total instead of each line's shows up.
TEST(PlanProps, FlopCounterAccumulatesPerExecute) {
  using pcf::fft::c2r_plan;
  using pcf::fft::r2c_plan;
  const auto per_line_flops = [](std::size_t n) {
    return static_cast<std::uint64_t>(5.0 * static_cast<double>(n) *
                                      std::log2(static_cast<double>(n)));
  };
  const auto drained = [] {
    pcf::counters::drain();
    return pcf::counters::total();
  };

  pcf::counters::reset();
  c2c_plan p(256, direction::forward);
  std::vector<cplx> x(256, cplx{1, 1}), y(256);
  p.execute(x.data(), y.data());
  p.execute(x.data(), y.data());
  EXPECT_EQ(drained().flops, 2 * per_line_flops(256));

  const std::size_t n = 24, h = n / 2;
  const c2c_plan c2c(n, direction::forward);
  const r2c_plan r2c(n);
  const c2r_plan c2r(n);
  for (std::size_t count : {1, 7, 8, 9, 19}) {
    std::vector<cplx> cin(count * n, cplx{0.5, -0.25}), cout(count * n);
    std::vector<double> real(count * n, 0.75);
    std::vector<cplx> spec(count * (h + 1), cplx{0.25, 0.5});

    pcf::counters::reset();
    c2c.execute_many(cin.data(), n, cout.data(), n, count);
    pcf::op_counts t = drained();
    EXPECT_EQ(t.flops, count * per_line_flops(n)) << "c2c count=" << count;
    EXPECT_EQ(t.bytes_read, count * n * sizeof(cplx)) << "c2c count=" << count;
    EXPECT_EQ(t.bytes_written, count * n * sizeof(cplx)) << "c2c count=" << count;

    pcf::counters::reset();
    r2c.execute_many(real.data(), n, spec.data(), h + 1, count);
    t = drained();
    EXPECT_EQ(t.flops, count * per_line_flops(h)) << "r2c count=" << count;
    EXPECT_EQ(t.bytes_read, count * h * sizeof(cplx)) << "r2c count=" << count;
    EXPECT_EQ(t.bytes_written, count * h * sizeof(cplx)) << "r2c count=" << count;

    pcf::counters::reset();
    c2r.execute_many(spec.data(), h + 1, real.data(), n, count);
    t = drained();
    EXPECT_EQ(t.flops, count * per_line_flops(h)) << "c2r count=" << count;
    EXPECT_EQ(t.bytes_read, count * h * sizeof(cplx)) << "c2r count=" << count;
    EXPECT_EQ(t.bytes_written, count * h * sizeof(cplx)) << "c2r count=" << count;
  }
}

// A construction that throws is not a miss and leaves no entry: odd real
// lengths are rejected before any half-length plan is built (2 * 37 + 1
// would otherwise build a Bluestein plan only to throw).
TEST(PlanCache, ThrowingConstructionCountsNoMiss) {
  const pcf::fft::plan_cache_stats before = pcf::fft::plan_cache_statistics();
  EXPECT_THROW((void)pcf::fft::shared_r2c(7), pcf::precondition_error);
  EXPECT_THROW((void)pcf::fft::shared_c2r(75), pcf::precondition_error);
  const pcf::fft::plan_cache_stats after = pcf::fft::plan_cache_statistics();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.live, before.live);
}

}  // namespace
