#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <numbers>
#include <vector>

#include "pencil/pencil.hpp"
#include "util/aligned.hpp"

namespace {

using pcf::aligned_buffer;
using pcf::pencil::cplx;
using pcf::pencil::grid;
using pcf::pencil::kernel_config;
using pcf::pencil::parallel_fft;
using pcf::vmpi::cart2d;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

/// Deterministic pseudo-random spectral value.
cplx raw_value(std::size_t x, std::size_t z, std::size_t y) {
  const double a = 0.31 * static_cast<double>(x) +
                   0.73 * static_cast<double>(z) +
                   1.17 * static_cast<double>(y) + 0.5;
  const double b = 0.21 * static_cast<double>(x) -
                   0.43 * static_cast<double>(z) +
                   0.91 * static_cast<double>(y);
  return cplx{std::sin(a), std::cos(b)};
}

/// Spectral value with the conjugate symmetries a real physical field
/// requires: the kx = 0 plane (and the kx Nyquist plane when it is kept)
/// must be Hermitian in kz. With dealiasing the spanwise Nyquist mode is
/// not representable (the kernel drops it), so it is generated as zero.
cplx spec_value(std::size_t xg, std::size_t zg, std::size_t y, const grid& g,
                bool nyquist_kept, bool dealias = true) {
  if (dealias && zg == g.nz / 2) return cplx{0.0, 0.0};
  const bool real_plane =
      (xg == 0) || (nyquist_kept && xg == g.nx / 2);
  if (!real_plane) return raw_value(xg, zg, y);
  const std::size_t zc = (g.nz - zg) % g.nz;
  if (zg == zc) return cplx{raw_value(xg, zg, y).real(), 0.0};
  if (zg < zc) return raw_value(xg, zg, y);
  return std::conj(raw_value(xg, zc, y));
}

struct Case {
  int pa, pb;
  int fft_threads, reorder_threads;
  int p3dfft;  // 0 or 1: an int, so the struct has no padding bytes
};

class PfftCases : public ::testing::TestWithParam<Case> {};

TEST_P(PfftCases, SpectralRoundTripIsIdentity) {
  const Case tc = GetParam();
  const grid g{16, 9, 8};
  run_world(tc.pa * tc.pb, [&](communicator& world) {
    cart2d cart(world, tc.pa, tc.pb);
    kernel_config cfg =
        tc.p3dfft ? kernel_config::p3dfft_mode() : kernel_config{};
    cfg.fft_threads = tc.fft_threads;
    cfg.reorder_threads = tc.reorder_threads;
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();

    aligned_buffer<cplx> spec(d.y_pencil_elems());
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        for (std::size_t y = 0; y < g.ny; ++y)
          spec[(x * d.zs.count + z) * g.ny + y] =
              spec_value(d.xs.offset + x, d.zs.offset + z, y, g,
                         !cfg.drop_nyquist, cfg.dealias);

    aligned_buffer<double> phys(d.x_pencil_real_elems());
    aligned_buffer<cplx> back(d.y_pencil_elems());
    pf.to_physical(spec.data(), phys.data());
    pf.to_spectral(phys.data(), back.data());
    for (std::size_t i = 0; i < spec.size(); ++i)
      EXPECT_LT(std::abs(back[i] - spec[i]), 1e-12)
          << "rank " << world.rank() << " elem " << i;
  });
}

TEST_P(PfftCases, PhysicalFieldIsConsistentAcrossDecompositions) {
  const Case tc = GetParam();
  const grid g{16, 5, 8};
  // Serial reference on one rank.
  std::vector<double> ref;
  std::mutex ref_m;
  run_world(1, [&](communicator& world) {
    cart2d cart(world, 1, 1);
    kernel_config cfg =
        tc.p3dfft ? kernel_config::p3dfft_mode() : kernel_config{};
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec(d.y_pencil_elems());
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        for (std::size_t y = 0; y < g.ny; ++y)
          spec[(x * d.zs.count + z) * g.ny + y] =
              spec_value(x, z, y, g, !cfg.drop_nyquist, cfg.dealias);
    std::vector<double> out(d.x_pencil_real_elems());
    pf.to_physical(spec.data(), out.data());
    std::lock_guard<std::mutex> lk(ref_m);
    ref = std::move(out);
  });

  run_world(tc.pa * tc.pb, [&](communicator& world) {
    cart2d cart(world, tc.pa, tc.pb);
    kernel_config cfg =
        tc.p3dfft ? kernel_config::p3dfft_mode() : kernel_config{};
    cfg.fft_threads = tc.fft_threads;
    cfg.reorder_threads = tc.reorder_threads;
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec(d.y_pencil_elems());
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        for (std::size_t y = 0; y < g.ny; ++y)
          spec[(x * d.zs.count + z) * g.ny + y] =
              spec_value(d.xs.offset + x, d.zs.offset + z, y, g,
                         !cfg.drop_nyquist, cfg.dealias);
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    pf.to_physical(spec.data(), phys.data());
    // Compare the local block against the serial global field.
    for (std::size_t z = 0; z < d.zp.count; ++z)
      for (std::size_t y = 0; y < d.yb.count; ++y)
        for (std::size_t x = 0; x < d.nxf; ++x) {
          const std::size_t zg = d.zp.offset + z;
          const std::size_t yg = d.yb.offset + y;
          const double want = ref[(zg * g.ny + yg) * d.nxf + x];
          const double got = phys[(z * d.yb.count + y) * d.nxf + x];
          EXPECT_NEAR(got, want, 1e-12)
              << "rank " << world.rank() << " (" << x << "," << yg << ","
              << zg << ")";
        }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, PfftCases,
    ::testing::Values(Case{1, 1, 1, 1, 0}, Case{2, 2, 1, 1, 0},
                      Case{4, 1, 1, 1, 0}, Case{1, 4, 1, 1, 0},
                      Case{2, 4, 1, 1, 0}, Case{3, 2, 1, 1, 0},
                      Case{2, 2, 3, 2, 0}, Case{1, 1, 1, 1, 1},
                      Case{2, 2, 1, 1, 1}, Case{4, 2, 1, 1, 1}));

TEST(Pfft, SingleModeGivesAnalyticCosine) {
  const grid g{16, 3, 8};
  run_world(4, [&](communicator& world) {
    cart2d cart(world, 2, 2);
    parallel_fft pf(g, cart, kernel_config{});
    const auto& d = pf.dec();
    // u_hat(kx=1, kz=3) = 1 for every y.
    aligned_buffer<cplx> spec(d.y_pencil_elems(), cplx{0, 0});
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        if (d.xs.offset + x == 1 && d.zs.offset + z == 3)
          for (std::size_t y = 0; y < g.ny; ++y)
            spec[(x * d.zs.count + z) * g.ny + y] = cplx{1.0, 0.0};
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    pf.to_physical(spec.data(), phys.data());
    const double twopi = 2.0 * std::numbers::pi;
    for (std::size_t z = 0; z < d.zp.count; ++z)
      for (std::size_t y = 0; y < d.yb.count; ++y)
        for (std::size_t x = 0; x < d.nxf; ++x) {
          const double th = twopi * (static_cast<double>(x) / d.nxf +
                                     3.0 * static_cast<double>(d.zp.offset + z) /
                                         d.nzf);
          EXPECT_NEAR(phys[(z * d.yb.count + y) * d.nxf + x],
                      2.0 * std::cos(th), 1e-12);
        }
  });
}

TEST(Pfft, SpanwiseNyquistModeIsDroppedByDealiasing) {
  // A coefficient at kz index nz/2 is not representable on the padded grid
  // (+nz/2 and -nz/2 are distinct there), so the dealiased kernel drops it:
  // the round trip must return zero for it and leave all other modes alone.
  const grid g{8, 3, 8};
  run_world(2, [&](communicator& world) {
    cart2d cart(world, 1, 2);
    parallel_fft pf(g, cart, kernel_config{});
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec(d.y_pencil_elems(), cplx{0, 0});
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        for (std::size_t y = 0; y < g.ny; ++y) {
          const std::size_t zg = d.zs.offset + z;
          if (zg == g.nz / 2 || (d.xs.offset + x == 1 && zg == 1))
            spec[(x * d.zs.count + z) * g.ny + y] = cplx{1.0, 0.0};
        }
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    aligned_buffer<cplx> back(d.y_pencil_elems());
    pf.to_physical(spec.data(), phys.data());
    pf.to_spectral(phys.data(), back.data());
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        for (std::size_t y = 0; y < g.ny; ++y) {
          const std::size_t zg = d.zs.offset + z;
          const std::size_t i = (x * d.zs.count + z) * g.ny + y;
          const cplx want = (zg == g.nz / 2)
                                ? cplx{0.0, 0.0}
                                : spec[i];
          EXPECT_LT(std::abs(back[i] - want), 1e-12);
        }
  });
}

TEST(Pfft, NegativeSpanwiseModeUsesPaddedTail) {
  const grid g{8, 2, 8};
  run_world(1, [&](communicator& world) {
    cart2d cart(world, 1, 1);
    parallel_fft pf(g, cart, kernel_config{});
    const auto& d = pf.dec();
    // kz = -2 lives at spectral index nz - 2 = 6.
    aligned_buffer<cplx> spec(d.y_pencil_elems(), cplx{0, 0});
    for (std::size_t y = 0; y < g.ny; ++y)
      spec[(1 * d.zs.count + 6) * g.ny + y] = cplx{1.0, 0.0};
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    pf.to_physical(spec.data(), phys.data());
    const double twopi = 2.0 * std::numbers::pi;
    for (std::size_t z = 0; z < d.nzf; ++z)
      for (std::size_t x = 0; x < d.nxf; ++x) {
        const double th = twopi * (static_cast<double>(x) / d.nxf -
                                   2.0 * static_cast<double>(z) / d.nzf);
        EXPECT_NEAR(phys[(z * d.yb.count + 0) * d.nxf + x], 2.0 * std::cos(th),
                    1e-12);
      }
  });
}

TEST(Pfft, MoreRanksThanDataInSomeDimension) {
  // ny = 5 over PB = 8: three ranks own zero y rows; nxh = 4 over PA = 1.
  // Empty blocks must flow through the alltoallv machinery unharmed.
  const grid g{8, 5, 8};
  run_world(8, [&](communicator& world) {
    cart2d cart(world, 1, 8);
    parallel_fft pf(g, cart, kernel_config{});
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec(d.y_pencil_elems());
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        for (std::size_t y = 0; y < g.ny; ++y)
          spec[(x * d.zs.count + z) * g.ny + y] =
              spec_value(d.xs.offset + x, d.zs.offset + z, y, g, false, true);
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    aligned_buffer<cplx> back(d.y_pencil_elems());
    pf.to_physical(spec.data(), phys.data());
    pf.to_spectral(phys.data(), back.data());
    for (std::size_t i = 0; i < spec.size(); ++i)
      EXPECT_LT(std::abs(back[i] - spec[i]), 1e-12);
  });
}

TEST(Pfft, WorkspaceCustomSmallerThanP3dfft) {
  const grid g{32, 8, 16};
  run_world(1, [&](communicator& world) {
    cart2d cart(world, 1, 1);
    // Match the paper's Table 6 conditions: no dealiasing on either side.
    kernel_config custom_cfg;
    custom_cfg.dealias = false;
    parallel_fft custom(g, cart, custom_cfg);
    parallel_fft p3d(g, cart, kernel_config::p3dfft_mode());
    // The customized kernel needs one buffer on 1x1; P3DFFT mode keeps three.
    EXPECT_LT(custom.workspace_bytes(), p3d.workspace_bytes());
    EXPECT_EQ(p3d.workspace_bytes() % 3, 0u);
  });
}

// On a 1x1 grid both transpose stages are skipped and the FFT stages
// gather and scatter the caller's buffers themselves: no reorder pass runs.
TEST(Pfft, OneRankRunsNoReorderPass) {
  const grid g{16, 4, 8};
  run_world(1, [&](communicator& world) {
    cart2d cart(world, 1, 1);
    parallel_fft pf(g, cart, kernel_config{});
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec(d.y_pencil_elems(), cplx{0, 0});
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    pf.to_physical(spec.data(), phys.data());
    pf.to_spectral(phys.data(), spec.data());
    EXPECT_GT(pf.fft_seconds(), 0.0);
    EXPECT_EQ(pf.reorder_seconds(), 0.0);
    EXPECT_EQ(pf.batching().reorder_calls, 0u);
    EXPECT_GE(pf.comm_seconds(), 0.0);
    pf.reset_timers();
    EXPECT_EQ(pf.fft_seconds(), 0.0);
    EXPECT_EQ(pf.comm_seconds(), 0.0);
  });
}

// With pb > 1 the y-pencils are packed for and unpacked from CommB, so
// every stage row runs.
TEST(Pfft, TimersAccumulateAndReset) {
  const grid g{16, 4, 8};
  run_world(2, [&](communicator& world) {
    cart2d cart(world, 1, 2);
    parallel_fft pf(g, cart, kernel_config{});
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec(d.y_pencil_elems(), cplx{0, 0});
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    pf.to_physical(spec.data(), phys.data());
    EXPECT_GT(pf.fft_seconds(), 0.0);
    EXPECT_GT(pf.reorder_seconds(), 0.0);
    EXPECT_GT(pf.batching().reorder_calls, 0u);
    EXPECT_GE(pf.comm_seconds(), 0.0);
    pf.reset_timers();
    EXPECT_EQ(pf.fft_seconds(), 0.0);
    EXPECT_EQ(pf.reorder_seconds(), 0.0);
    EXPECT_EQ(pf.comm_seconds(), 0.0);
  });
}

// On a 2x2 split every stage row runs once per transform, and the three
// timer accessors partition the rows: exchanges, pack/unpack, FFTs.
TEST(Pfft, TimerAccessorsSumStageRows) {
  const grid g{16, 8, 8};
  run_world(4, [&](communicator& world) {
    cart2d cart(world, 2, 2);
    parallel_fft pf(g, cart, kernel_config{});
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec(d.y_pencil_elems(), cplx{0, 0});
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    pf.to_physical(spec.data(), phys.data());
    pf.to_spectral(phys.data(), spec.data());
    ASSERT_EQ(pf.stage_phases().size(), 2 * parallel_fft::kStageRows);
    double comm = 0.0, reorder = 0.0, fft = 0.0;
    for (const auto& r : pf.stage_phases()) {
      EXPECT_EQ(r.calls, 1) << r.name;
      (r.name.rfind("exchange_", 0) == 0 ? comm
       : r.name.rfind("fft_", 0) == 0    ? fft
                                         : reorder) += r.seconds;
    }
    EXPECT_DOUBLE_EQ(pf.comm_seconds(), comm);
    EXPECT_DOUBLE_EQ(pf.reorder_seconds(), reorder);
    EXPECT_DOUBLE_EQ(pf.fft_seconds(), fft);
  });
}

TEST(Pfft, ThreadedAndSerialBitwiseIdentical) {
  const grid g{16, 7, 8};
  std::vector<double> serial_out, threaded_out;
  for (int threads : {1, 4}) {
    run_world(2, [&](communicator& world) {
      cart2d cart(world, 2, 1);
      kernel_config cfg;
      cfg.fft_threads = threads;
      cfg.reorder_threads = threads;
      parallel_fft pf(g, cart, cfg);
      const auto& d = pf.dec();
      aligned_buffer<cplx> spec(d.y_pencil_elems());
      for (std::size_t x = 0; x < d.xs.count; ++x)
        for (std::size_t z = 0; z < d.zs.count; ++z)
          for (std::size_t y = 0; y < g.ny; ++y)
            spec[(x * d.zs.count + z) * g.ny + y] =
                spec_value(d.xs.offset + x, d.zs.offset + z, y, g, false);
      aligned_buffer<double> phys(d.x_pencil_real_elems());
      pf.to_physical(spec.data(), phys.data());
      if (world.rank() == 0) {
        auto& out = threads == 1 ? serial_out : threaded_out;
        out.assign(phys.begin(), phys.end());
      }
    });
  }
  ASSERT_EQ(serial_out.size(), threaded_out.size());
  for (std::size_t i = 0; i < serial_out.size(); ++i)
    EXPECT_EQ(serial_out[i], threaded_out[i]);
}

}  // namespace
