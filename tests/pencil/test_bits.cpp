// Bit-exactness of the parallel FFT kernel. Every output value of
// to_physical_batch and to_spectral_batch is a function of its line alone,
// so the global fields these calls assemble must not change with the
// process split, the batch width, the pipeline depth or the way the
// transpose and the transforms are fused. Each kernel mode and batch width
// pins one CRC-32 of those global outputs; every split, max_batch and
// pipeline_depth must reproduce it. The constants were produced by the
// kernel that ran separate unpack/pack passes around each FFT stage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "pencil/pencil.hpp"
#include "util/aligned.hpp"
#include "util/crc.hpp"

namespace {

using pcf::aligned_buffer;
using pcf::pencil::cplx;
using pcf::pencil::grid;
using pcf::pencil::kernel_config;
using pcf::pencil::parallel_fft;
using pcf::vmpi::cart2d;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

// ny = 13 is not a multiple of the FFT's 8-line blocks, and nx = 16 gives
// 8 spectral x modes, uneven over 3 ranks.
const grid kGrid{16, 13, 8};

enum class mode { dealias, plain, p3dfft };

kernel_config config_for(mode m) {
  if (m == mode::p3dfft) return kernel_config::p3dfft_mode();
  kernel_config c;
  c.dealias = m == mode::dealias;
  return c;
}

double wave(double a, double b, double c, double d) {
  return std::sin(0.37 * a + 0.71 * b + 1.13 * c + 0.29 * d + 0.5);
}

struct outputs {
  std::vector<cplx> phys;  // [f][zf][y][xf] as (phys, 0): one real per cplx
  std::vector<cplx> spec;  // [f][x][z][y]
};

// Runs nf fields through one to_physical_batch and one to_spectral_batch
// on a pa x pb split and assembles the global outputs.
outputs run_split(mode m, int pa, int pb, int max_batch, int depth,
                  std::size_t nf) {
  kernel_config cfg = config_for(m);
  cfg.max_batch = max_batch;
  cfg.pipeline_depth = depth;
  const grid& g = kGrid;
  const pcf::pencil::decomp gd(g, cfg, 1, 1, 0, 0);
  const std::size_t nxs = gd.nxs, nxf = gd.nxf, nzf = gd.nzf;
  outputs out;
  out.phys.assign(nf * nzf * g.ny * nxf, cplx{});
  out.spec.assign(nf * nxs * g.nz * g.ny, cplx{});
  run_world(pa * pb, [&](communicator& world) {
    cart2d cart(world, pa, pb);
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();
    std::vector<aligned_buffer<cplx>> spec(nf), back(nf);
    std::vector<aligned_buffer<double>> phys(nf), pin(nf);
    std::vector<const cplx*> sp(nf);
    std::vector<cplx*> bk(nf);
    std::vector<double*> ph(nf);
    std::vector<const double*> pi(nf);
    for (std::size_t f = 0; f < nf; ++f) {
      const auto fd = static_cast<double>(f);
      spec[f].reset(d.y_pencil_elems());
      for (std::size_t x = 0; x < d.xs.count; ++x)
        for (std::size_t z = 0; z < d.zs.count; ++z)
          for (std::size_t y = 0; y < g.ny; ++y) {
            const auto xg = static_cast<double>(d.xs.offset + x);
            const auto zg = static_cast<double>(d.zs.offset + z);
            const auto yd = static_cast<double>(y);
            spec[f][(x * d.zs.count + z) * g.ny + y] =
                cplx{wave(xg, zg, yd, fd), wave(zg, yd, fd, xg)};
          }
      pin[f].reset(d.x_pencil_real_elems());
      for (std::size_t z = 0; z < d.zp.count; ++z)
        for (std::size_t y = 0; y < d.yb.count; ++y)
          for (std::size_t x = 0; x < nxf; ++x)
            pin[f][(z * d.yb.count + y) * nxf + x] =
                wave(static_cast<double>(x),
                     static_cast<double>(d.yb.offset + y),
                     static_cast<double>(d.zp.offset + z), fd);
      phys[f].reset(d.x_pencil_real_elems());
      back[f].reset(d.y_pencil_elems());
      sp[f] = spec[f].data();
      bk[f] = back[f].data();
      ph[f] = phys[f].data();
      pi[f] = pin[f].data();
    }
    pf.to_physical_batch(sp.data(), ph.data(), nf);
    pf.to_spectral_batch(pi.data(), bk.data(), nf);
    // Each rank owns disjoint global indices, so the writes never race.
    for (std::size_t f = 0; f < nf; ++f) {
      for (std::size_t z = 0; z < d.zp.count; ++z)
        for (std::size_t y = 0; y < d.yb.count; ++y)
          for (std::size_t x = 0; x < nxf; ++x)
            out.phys[((f * nzf + d.zp.offset + z) * g.ny + d.yb.offset + y) *
                         nxf +
                     x] = cplx{phys[f][(z * d.yb.count + y) * nxf + x], 0.0};
      for (std::size_t x = 0; x < d.xs.count; ++x)
        for (std::size_t z = 0; z < d.zs.count; ++z)
          for (std::size_t y = 0; y < g.ny; ++y)
            out.spec[((f * nxs + d.xs.offset + x) * g.nz + d.zs.offset + z) *
                         g.ny +
                     y] = back[f][(x * d.zs.count + z) * g.ny + y];
    }
  });
  return out;
}

std::uint32_t crc_of(const outputs& o) {
  std::uint32_t c = pcf::crc32_init();
  c = pcf::crc32_update(c, o.phys.data(), o.phys.size() * sizeof(cplx));
  c = pcf::crc32_update(c, o.spec.data(), o.spec.size() * sizeof(cplx));
  return pcf::crc32_final(c);
}

struct pinned {
  mode m;
  std::size_t nf;
  std::uint32_t crc;
};

const char* name(mode m) {
  switch (m) {
    case mode::dealias: return "dealias";
    case mode::plain: return "plain";
    case mode::p3dfft: return "p3dfft";
  }
  return "?";
}

// clang-format off
constexpr pinned kPinned[] = {
    {mode::dealias, 1, 0x62bb38f3u},
    {mode::dealias, 3, 0x420471abu},
    {mode::dealias, 5, 0x9f85cb84u},
    {mode::plain, 1, 0xc57aaa66u},
    {mode::plain, 3, 0x170feecfu},
    {mode::plain, 5, 0x108c2b03u},
    {mode::p3dfft, 1, 0x2da057d4u},
    {mode::p3dfft, 3, 0x39dcf057u},
    {mode::p3dfft, 5, 0x2d3d957du},
};
// clang-format on

struct split {
  int pa, pb;
};
constexpr split kSplits[] = {{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}};

TEST(PencilBits, MatchesParentKernel) {
  for (const pinned& p : kPinned)
    for (const split s : kSplits)
      for (int max_batch : {2, 5})
        for (int depth : {1, 2}) {
          const std::uint32_t got =
              crc_of(run_split(p.m, s.pa, s.pb, max_batch, depth, p.nf));
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "{mode::%s, %zu, 0x%08xu}, split %dx%d, max_batch %d, "
                        "depth %d",
                        name(p.m), p.nf, got, s.pa, s.pb, max_batch, depth);
          EXPECT_EQ(got, p.crc) << buf;
        }
}

}  // namespace
