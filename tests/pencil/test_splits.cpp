// Process-split candidates (pencil / slab / 2.5D hybrid are all splits)
// and the cross-split bit-identity property: every candidate split of the
// same grid must produce the SAME bits — the skipped exchanges of the slab
// and hybrid splits are pure buffer forwards, never a different
// computation. The property runs on a smooth grid and on a Bluestein grid
// (nzf = 111 = 3 x 37, not FFT-smooth) so the non-power-of-two kernels are
// covered.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "pencil/decomp.hpp"
#include "pencil/pencil.hpp"
#include "util/aligned.hpp"

namespace {

using pcf::aligned_buffer;
using pcf::pencil::cplx;
using pcf::pencil::grid;
using pcf::pencil::kernel_config;
using pcf::pencil::parallel_fft;
using pcf::pencil::process_split;
using pcf::pencil::split_candidates;
using pcf::pencil::split_valid;
using pcf::vmpi::cart2d;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

std::string label(const process_split& s) {
  return std::to_string(s.pa) + "x" + std::to_string(s.pb);
}

// --- candidate splits ----------------------------------------------------

// One table for the filter and the candidate order. split_valid is
// pa <= min(nx/2, nz) and pb <= min(ny, nz); the candidates are the
// requested (or near-square) split, the slab 1 x R, the smallest valid
// 2.5D c x R/c and its double, valid and distinct only.
TEST(SplitCandidates, ValidityAndCandidateTable) {
  const grid g{16, 9, 74};  // min(nx/2, nz) = 8, min(ny, nz) = 9
  struct valid_case {
    int pa, pb;
    bool valid;
  };
  for (const valid_case v : {valid_case{1, 1, true}, {1, 9, true},
                             {1, 10, false},  // slab past min(ny, nz)
                             {2, 4, true},    {4, 5, true},
                             {2, 10, false},  // 2.5D rows run out
                             {8, 1, true},
                             {9, 1, false},   // x modes run out
                             {0, 4, false}})
    EXPECT_EQ(split_valid(g, v.pa, v.pb), v.valid) << v.pa << "x" << v.pb;

  struct cand_case {
    grid g;
    int ranks, pa, pb;
    std::vector<process_split> want;
  };
  const cand_case cases[] = {
      {g, 8, 4, 2, {{4, 2}, {1, 8}, {2, 4}}},  // 2c = 4 repeats 4 x 2
      {g, 20, 0, 0, {{4, 5}}},                 // 1 x 20, 2 x 10 invalid
      {g, 20, 2, 10, {{2, 10}, {4, 5}}},       // requested kept unfiltered
      {g, 7, 0, 0, {{1, 7}, {7, 1}}},          // prime: only 7 x 1 more
      {g, 9, 0, 0, {{3, 3}, {1, 9}}},
      {g, 12, 0, 0, {{3, 4}, {2, 6}, {4, 3}}},
      {g, 16, 0, 0, {{4, 4}, {2, 8}}},
      {g, 1, 1, 1, {{1, 1}}},
      {grid{8, 3, 8}, 13, 0, 0, {{1, 13}}},  // nothing else is valid
      {grid{8, 9, 8}, 4, 2, 2, {{2, 2}, {1, 4}, {4, 1}}},
  };
  for (const cand_case& c : cases) {
    const auto got = split_candidates(c.g, c.ranks, c.pa, c.pb);
    std::string got_s, want_s;
    for (const auto& s : got) got_s += label(s) + " ";
    for (const auto& s : c.want) want_s += label(s) + " ";
    EXPECT_EQ(got_s, want_s) << "grid " << c.g.nx << "x" << c.g.ny << "x"
                             << c.g.nz << " at " << c.ranks << " ranks";
  }
}

// --- cross-layout bit-identity -------------------------------------------

/// Globally assembled transform results of one layout: the physical field
/// after to_physical and the spectral field after the full round trip.
struct global_fields {
  std::vector<double> phys;
  std::vector<cplx> back;
};

/// Deterministic spectral input with the conjugate symmetry a real field
/// needs (kx = 0 plane Hermitian in kz; the dropped spanwise Nyquist and
/// kx Nyquist are zero).
cplx spec_value(std::size_t xg, std::size_t zg, std::size_t y,
                const grid& g) {
  if (zg == g.nz / 2) return cplx{0.0, 0.0};
  auto raw = [](std::size_t x, std::size_t z, std::size_t yy) {
    const double a = 0.37 * static_cast<double>(x) +
                     0.61 * static_cast<double>(z) +
                     1.03 * static_cast<double>(yy) + 0.25;
    return cplx{std::sin(a), std::cos(1.7 * a)};
  };
  if (xg != 0) return raw(xg, zg, y);
  const std::size_t zc = (g.nz - zg) % g.nz;
  if (zg == zc) return cplx{raw(xg, zg, y).real(), 0.0};
  if (zg < zc) return raw(xg, zg, y);
  return std::conj(raw(xg, zc, y));
}

global_fields run_layout(const process_split& p, const grid& g) {
  global_fields out;
  std::mutex m;
  run_world(p.pa * p.pb, [&](communicator& world) {
    cart2d cart(world, p.pa, p.pb);
    parallel_fft pf(g, cart, kernel_config{});
    const auto& d = pf.dec();

    aligned_buffer<cplx> spec(d.y_pencil_elems());
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        for (std::size_t y = 0; y < g.ny; ++y)
          spec[(x * d.zs.count + z) * g.ny + y] =
              spec_value(d.xs.offset + x, d.zs.offset + z, y, g);

    aligned_buffer<double> phys(d.x_pencil_real_elems());
    aligned_buffer<cplx> back(d.y_pencil_elems());
    pf.to_physical(spec.data(), phys.data());
    pf.to_spectral(phys.data(), back.data());

    std::lock_guard<std::mutex> lk(m);
    out.phys.resize(d.nzf * g.ny * d.nxf);
    out.back.resize((g.nx / 2) * g.nz * g.ny);
    for (std::size_t z = 0; z < d.zp.count; ++z)
      for (std::size_t y = 0; y < d.yb.count; ++y)
        for (std::size_t x = 0; x < d.nxf; ++x)
          out.phys[((d.zp.offset + z) * g.ny + (d.yb.offset + y)) * d.nxf +
                   x] = phys[(z * d.yb.count + y) * d.nxf + x];
    for (std::size_t x = 0; x < d.xs.count; ++x)
      for (std::size_t z = 0; z < d.zs.count; ++z)
        for (std::size_t y = 0; y < g.ny; ++y)
          out.back[((d.xs.offset + x) * g.nz + (d.zs.offset + z)) * g.ny +
                   y] = back[(x * d.zs.count + z) * g.ny + y];
  });
  return out;
}

void expect_layouts_bit_identical(const grid& g, int ranks) {
  const auto cands = split_candidates(g, ranks, ranks / 2, 2);
  ASSERT_GE(cands.size(), 3u);  // pencil, slab, at least one hybrid
  bool saw_slab = false, saw_hybrid = false;
  const global_fields ref = run_layout(cands[0], g);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    const auto& c = cands[i];
    saw_slab = saw_slab || c.pa == 1;
    saw_hybrid = saw_hybrid || (c.pa > 1 && c.pb > 1);
    const global_fields got = run_layout(c, g);
    ASSERT_EQ(got.phys.size(), ref.phys.size());
    ASSERT_EQ(got.back.size(), ref.back.size());
    for (std::size_t k = 0; k < ref.phys.size(); ++k)
      ASSERT_EQ(got.phys[k], ref.phys[k])
          << label(c) << " phys elem " << k;
    for (std::size_t k = 0; k < ref.back.size(); ++k)
      ASSERT_EQ(got.back[k], ref.back[k])
          << label(c) << " spectral elem " << k;
  }
  EXPECT_TRUE(saw_slab);
  EXPECT_TRUE(saw_hybrid);
}

TEST(DecompBitIdentity, SmoothGridAllLayoutsMatchPencil) {
  expect_layouts_bit_identical(grid{16, 9, 8}, 8);
}

TEST(DecompBitIdentity, BluesteinGridAllLayoutsMatchPencil) {
  // nz = 74 dealiases to nzf = 111 = 3 x 37 — not FFT-smooth, so the
  // padded-z transforms go through the Bluestein kernel on every layout.
  const grid g{16, 9, 74};
  run_world(1, [&](communicator& world) {
    cart2d cart(world, 1, 1);
    parallel_fft pf(g, cart, kernel_config{});
    ASSERT_EQ(pf.dec().nzf, 111u);
  });
  ASSERT_FALSE(pcf::fft::is_smooth(111));
  expect_layouts_bit_identical(g, 8);
}

}  // namespace
