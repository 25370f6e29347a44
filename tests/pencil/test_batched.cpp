// Batched multi-field transforms: bit-identity against the per-field path
// across modes, pool widths, batch sizes and pipelining, plus the exchange
// aggregation the batching exists for.
#include <gtest/gtest.h>

#include <cmath>
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

cplx raw_value(std::size_t x, std::size_t z, std::size_t y) {
  const double a = 0.31 * static_cast<double>(x) +
                   0.73 * static_cast<double>(z) +
                   1.17 * static_cast<double>(y) + 0.5;
  const double b = 0.21 * static_cast<double>(x) -
                   0.43 * static_cast<double>(z) +
                   0.91 * static_cast<double>(y);
  return cplx{std::sin(a), std::cos(b)};
}

/// Per-field spectral value with the conjugate symmetries a real physical
/// field requires (field index folded into y so the fields differ).
cplx spec_value(std::size_t f, std::size_t xg, std::size_t zg, std::size_t y,
                const grid& g, bool nyquist_kept, bool dealias) {
  y += 11 * f;
  if (dealias && zg == g.nz / 2) return cplx{0.0, 0.0};
  const bool real_plane = (xg == 0) || (nyquist_kept && xg == g.nx / 2);
  if (!real_plane) return raw_value(xg, zg, y);
  const std::size_t zc = (g.nz - zg) % g.nz;
  if (zg == zc) return cplx{raw_value(xg, zg, y).real(), 0.0};
  if (zg < zc) return raw_value(xg, zg, y);
  return std::conj(raw_value(xg, zc, y));
}

struct BCase {
  int pa, pb;
  int fft_threads, reorder_threads;
  int p3dfft;  // 0 or 1: an int, so the struct has no padding bytes
  int max_batch, pipeline_depth;
};

class BatchedCases : public ::testing::TestWithParam<BCase> {};

// The acceptance property: for F in {1, 3, 5}, one batched round trip is
// bit-identical (EXPECT_EQ, no tolerance) to F independent per-field round
// trips on the same instance.
TEST_P(BatchedCases, BitIdenticalToPerFieldRoundTrips) {
  const BCase tc = GetParam();
  const grid g{16, 9, 8};
  for (std::size_t F : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    run_world(tc.pa * tc.pb, [&](communicator& world) {
      cart2d cart(world, tc.pa, tc.pb);
      kernel_config cfg =
          tc.p3dfft ? kernel_config::p3dfft_mode() : kernel_config{};
      cfg.fft_threads = tc.fft_threads;
      cfg.reorder_threads = tc.reorder_threads;
      cfg.max_batch = tc.max_batch;
      cfg.pipeline_depth = tc.pipeline_depth;
      parallel_fft pf(g, cart, cfg);
      const auto& d = pf.dec();

      std::vector<aligned_buffer<cplx>> spec(F);
      std::vector<aligned_buffer<double>> phys_ref(F), phys_bat(F);
      std::vector<aligned_buffer<cplx>> back_ref(F), back_bat(F);
      for (std::size_t f = 0; f < F; ++f) {
        spec[f].reset(d.y_pencil_elems());
        for (std::size_t x = 0; x < d.xs.count; ++x)
          for (std::size_t z = 0; z < d.zs.count; ++z)
            for (std::size_t y = 0; y < g.ny; ++y)
              spec[f][(x * d.zs.count + z) * g.ny + y] =
                  spec_value(f, d.xs.offset + x, d.zs.offset + z, y, g,
                             !cfg.drop_nyquist, cfg.dealias);
        phys_ref[f].reset(d.x_pencil_real_elems());
        phys_bat[f].reset(d.x_pencil_real_elems());
        back_ref[f].reset(d.y_pencil_elems());
        back_bat[f].reset(d.y_pencil_elems());
      }

      // Per-field reference: a single-field call is the one-group
      // schedule, run in order on the caller.
      for (std::size_t f = 0; f < F; ++f) {
        pf.to_physical(spec[f].data(), phys_ref[f].data());
        pf.to_spectral(phys_ref[f].data(), back_ref[f].data());
      }

      // Batched round trip.
      std::vector<const cplx*> sp(F);
      std::vector<double*> ph(F);
      for (std::size_t f = 0; f < F; ++f) {
        sp[f] = spec[f].data();
        ph[f] = phys_bat[f].data();
      }
      pf.to_physical_batch(sp.data(), ph.data(), F);
      std::vector<const double*> pc(F);
      std::vector<cplx*> bk(F);
      for (std::size_t f = 0; f < F; ++f) {
        pc[f] = phys_bat[f].data();
        bk[f] = back_bat[f].data();
      }
      pf.to_spectral_batch(pc.data(), bk.data(), F);

      for (std::size_t f = 0; f < F; ++f) {
        for (std::size_t i = 0; i < phys_ref[f].size(); ++i)
          ASSERT_EQ(phys_bat[f][i], phys_ref[f][i])
              << "rank " << world.rank() << " field " << f << " phys " << i
              << " F=" << F;
        for (std::size_t i = 0; i < back_ref[f].size(); ++i)
          ASSERT_EQ(back_bat[f][i], back_ref[f][i])
              << "rank " << world.rank() << " field " << f << " spec " << i
              << " F=" << F;
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BatchedCases,
    ::testing::Values(
        // plain batched: serial, parallel, threaded pools, P3DFFT mode
        BCase{1, 1, 1, 1, 0, 5, 1}, BCase{2, 2, 1, 1, 0, 5, 1},
        BCase{2, 2, 3, 2, 0, 5, 1}, BCase{2, 2, 1, 1, 1, 5, 1},
        BCase{4, 1, 1, 1, 1, 5, 1},
        // chunked: max_batch below the widest F
        BCase{2, 2, 1, 1, 0, 2, 1}, BCase{1, 4, 1, 1, 0, 3, 1},
        BCase{2, 1, 1, 1, 0, 1, 1},
        // pipelined: depth 2/3, threaded pools, P3DFFT mode, chunk+pipeline
        BCase{2, 2, 1, 1, 0, 5, 2}, BCase{2, 2, 1, 1, 0, 5, 3},
        BCase{2, 2, 3, 2, 0, 5, 3}, BCase{2, 2, 1, 1, 1, 5, 2},
        BCase{3, 2, 1, 1, 0, 2, 2}, BCase{1, 1, 1, 1, 0, 5, 2},
        // pipelined over one size-1 communicator: the skipped stage hands
        // its send layout straight to the next FFT stage of every group
        // (P3DFFT mode copies instead)
        BCase{1, 4, 1, 1, 0, 5, 2}, BCase{4, 1, 1, 1, 0, 5, 2},
        BCase{4, 1, 1, 1, 1, 5, 2}, BCase{1, 4, 1, 1, 1, 5, 3},
        BCase{1, 4, 3, 2, 0, 5, 2},
        // depth past the chunk: G = min(depth, nf) groups of one field,
        // and a trailing one-field chunk runs as one group
        BCase{2, 2, 1, 1, 0, 5, 5}, BCase{2, 2, 1, 1, 0, 2, 3},
        BCase{2, 2, 1, 1, 1, 2, 3}));

// The point of the batching: all F fields ride ONE exchange per transpose
// stage, visible both in the vmpi per-communicator call counts and in the
// kernel's own batch statistics.
TEST(PfftBatch, AggregatesExchangesAcrossFields) {
  const grid g{16, 8, 8};
  run_world(4, [&](communicator& world) {
    cart2d cart(world, 2, 2);
    kernel_config cfg;
    cfg.max_batch = 5;
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();

    std::vector<aligned_buffer<cplx>> spec(5);
    std::vector<aligned_buffer<double>> phys(5);
    std::vector<const cplx*> sp3(3);
    std::vector<double*> ph3(3);
    std::vector<const double*> pc5(5);
    std::vector<cplx*> bk5(5);
    std::vector<aligned_buffer<cplx>> back(5);
    for (std::size_t f = 0; f < 5; ++f) {
      spec[f].reset(d.y_pencil_elems());
      phys[f].reset(d.x_pencil_real_elems());
      phys[f].fill(0.0);
      back[f].reset(d.y_pencil_elems());
      for (std::size_t x = 0; x < d.xs.count; ++x)
        for (std::size_t z = 0; z < d.zs.count; ++z)
          for (std::size_t y = 0; y < g.ny; ++y)
            spec[f][(x * d.zs.count + z) * g.ny + y] = spec_value(
                f, d.xs.offset + x, d.zs.offset + z, y, g, false, true);
      pc5[f] = phys[f].data();
      bk5[f] = back[f].data();
    }
    for (std::size_t f = 0; f < 3; ++f) {
      sp3[f] = spec[f].data();
      ph3[f] = phys[f].data();
    }

    const auto a0 = cart.comm_a().stats();
    const auto b0 = cart.comm_b().stats();
    // The RK3 substage pattern: 3 fields down, 5 fields up — was 8 round
    // trips (16 alltoallv calls), is now 2 batched ones (4 calls).
    pf.to_physical_batch(sp3.data(), ph3.data(), 3);
    pf.to_spectral_batch(pc5.data(), bk5.data(), 5);
    const auto a1 = cart.comm_a().stats();
    const auto b1 = cart.comm_b().stats();
    EXPECT_EQ(a1.alltoall_calls - a0.alltoall_calls, 2u);
    EXPECT_EQ(b1.alltoall_calls - b0.alltoall_calls, 2u);

    const auto bs = pf.batching();
    EXPECT_EQ(bs.transforms, 2u);
    EXPECT_EQ(bs.fields, 8u);
    EXPECT_EQ(bs.exchanges, 4u);  // 2 transpose stages per transform
    EXPECT_GT(bs.reorder_calls, 0u);
    EXPECT_EQ(bs.reorder_fields % bs.reorder_calls, 0u);
  });
}

// Each chunk of nf fields runs as G = min(pipeline_depth, nf) groups, and
// every group issues its own exchange per transpose stage. Each group also
// passes every stage row once; with G > 1 the exchange rows accumulate on
// the comm thread while the caller accumulates the others.
TEST(PfftBatch, PipelineIssuesOneExchangePerGroupAndStage) {
  const grid g{16, 8, 8};
  struct row {
    int depth, max_batch;
    std::size_t fields, groups;
  };
  for (const row r : {row{1, 5, 5, 1}, row{2, 5, 5, 2}, row{3, 5, 2, 2},
                      row{3, 2, 5, 5}}) {
    run_world(4, [&](communicator& world) {
      cart2d cart(world, 2, 2);
      kernel_config cfg;
      cfg.max_batch = r.max_batch;
      cfg.pipeline_depth = r.depth;
      parallel_fft pf(g, cart, cfg);
      const auto& d = pf.dec();
      std::vector<aligned_buffer<cplx>> spec(r.fields);
      std::vector<aligned_buffer<double>> phys(r.fields);
      std::vector<const cplx*> sp(r.fields);
      std::vector<cplx*> sw(r.fields);
      std::vector<double*> ph(r.fields);
      for (std::size_t f = 0; f < r.fields; ++f) {
        spec[f].reset(d.y_pencil_elems());
        spec[f].fill(cplx{0.0, 0.0});
        phys[f].reset(d.x_pencil_real_elems());
        sp[f] = sw[f] = spec[f].data();
        ph[f] = phys[f].data();
      }
      const auto a0 = cart.comm_a().stats();
      const auto b0 = cart.comm_b().stats();
      pf.to_physical_batch(sp.data(), ph.data(), r.fields);
      const auto a1 = cart.comm_a().stats();
      const auto b1 = cart.comm_b().stats();
      EXPECT_EQ(a1.alltoall_calls - a0.alltoall_calls, r.groups)
          << "depth " << r.depth << " max_batch " << r.max_batch;
      EXPECT_EQ(b1.alltoall_calls - b0.alltoall_calls, r.groups)
          << "depth " << r.depth << " max_batch " << r.max_batch;
      EXPECT_EQ(pf.batching().exchanges, 2 * r.groups);
      EXPECT_EQ(pf.batching().fields, r.fields);
      pf.to_spectral_batch(ph.data(), sw.data(), r.fields);
      double comm = 0.0;
      for (const auto& st : pf.stage_phases()) {
        EXPECT_EQ(st.calls, static_cast<long>(r.groups)) << st.name;
        EXPECT_GT(st.seconds, 0.0) << st.name;
        if (st.name.rfind("exchange_", 0) == 0) comm += st.seconds;
      }
      EXPECT_DOUBLE_EQ(pf.comm_seconds(), comm);
      pf.reset_timers();
      for (const auto& st : pf.stage_phases()) EXPECT_EQ(st.calls, 0) << st.name;
    });
  }
}

TEST(PfftBatch, ChunksBatchesWiderThanMaxBatch) {
  const grid g{16, 6, 8};
  run_world(2, [&](communicator& world) {
    cart2d cart(world, 2, 1);
    kernel_config cfg;
    cfg.max_batch = 2;
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();
    std::vector<aligned_buffer<cplx>> spec(5);
    std::vector<aligned_buffer<double>> phys(5);
    std::vector<const cplx*> sp(5);
    std::vector<double*> ph(5);
    for (std::size_t f = 0; f < 5; ++f) {
      spec[f].reset(d.y_pencil_elems());
      spec[f].fill(cplx{0.0, 0.0});
      phys[f].reset(d.x_pencil_real_elems());
      sp[f] = spec[f].data();
      ph[f] = phys[f].data();
    }
    pf.to_physical_batch(sp.data(), ph.data(), 5);
    // 5 fields in chunks of 2 -> 3 chunks x 1 counted transpose stage:
    // the y<->z stage runs on the size-1 CommB (pb = 1) and is elided.
    EXPECT_EQ(pf.batching().exchanges, 3u);
    EXPECT_EQ(pf.batching().transforms, 1u);
    EXPECT_EQ(pf.batching().fields, 5u);
  });
}

TEST(PfftBatch, WorkspaceGrowsLinearlyWithMaxBatch) {
  const grid g{16, 8, 8};
  run_world(1, [&](communicator& world) {
    cart2d cart(world, 1, 1);
    kernel_config one;
    kernel_config five;
    five.max_batch = 5;
    parallel_fft pf1(g, cart, one);
    parallel_fft pf5(g, cart, five);
    EXPECT_EQ(pf5.workspace_bytes(), 5 * pf1.workspace_bytes());
  });
}

TEST(PfftBatch, RejectsInvalidConfig) {
  const grid g{8, 4, 8};
  run_world(1, [&](communicator& world) {
    cart2d cart(world, 1, 1);
    kernel_config bad;
    bad.max_batch = 0;
    EXPECT_THROW(parallel_fft(g, cart, bad), pcf::precondition_error);
    kernel_config bad2;
    bad2.pipeline_depth = 0;
    EXPECT_THROW(parallel_fft(g, cart, bad2), pcf::precondition_error);
  });
}

}  // namespace
