// Bit-exactness of the lane-blocked executor. Each (kind, length) pins the
// CRC-32 of every execute_many output over line counts that exercise one
// lane, a partial block, a full block, a block plus a tail and two blocks
// plus a tail, in three layouts: contiguous lines, strided lines with gaps
// (the gaps must survive untouched) and in place. The constants were
// produced by the per-line kernel the blocked one replaced, so a single
// flipped bit in any lane, any tail or any gap fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "fft/fft.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"

namespace {

using pcf::fft::c2c_plan;
using pcf::fft::c2r_plan;
using pcf::fft::cplx;
using pcf::fft::direction;
using pcf::fft::r2c_plan;

enum class kind { c2c_forward, c2c_inverse, r2c, c2r };
enum class layout { contiguous, strided, in_place };

constexpr std::size_t kCounts[] = {1, 7, 8, 9, 19};
constexpr layout kLayouts[] = {layout::contiguous, layout::strided,
                               layout::in_place};
constexpr double kGap = -7.25;  // value left in every byte no line owns

double* as_real(std::vector<cplx>& v) {
  return reinterpret_cast<double*>(v.data());
}

struct pinned {
  kind k;
  std::size_t n;
  std::uint32_t crc;
};

// `count` lines of `stride` doubles whose first `used` values are uniform
// in [-1, 1) and whose rest keep kGap. Held as complex and viewed as
// doubles, the direction [complex.numbers] allows.
std::vector<cplx> lines(std::size_t count, std::size_t stride,
                        std::size_t used, std::uint64_t seed) {
  pcf::rng r(seed);
  std::vector<cplx> buf(count * stride / 2, cplx{kGap, kGap});
  double* d = as_real(buf);
  for (std::size_t b = 0; b < count; ++b)
    for (std::size_t i = 0; i < used; ++i) d[b * stride + i] = r.uniform(-1, 1);
  return buf;
}

// One execute_many of `count` lines; returns the CRC-32 state updated with
// every byte of the output buffer (lines and gaps).
std::uint32_t run_case(kind k, std::size_t n, std::size_t count, layout lay,
                       std::uint32_t crc) {
  const std::uint64_t seed = 1000 * n + 10 * count + static_cast<int>(lay);
  const bool strided = lay == layout::strided;
  // Line lengths and strides in doubles.
  const bool real_in = k == kind::r2c, real_out = k == kind::c2r;
  const std::size_t h = n / 2 + 1;
  const std::size_t in_used = real_in ? n : 2 * (real_out ? h : n);
  const std::size_t out_used = real_out ? n : 2 * (real_in ? h : n);
  std::size_t in_stride = std::max(in_used, out_used) + (strided ? 6 : 0);
  std::size_t out_stride = in_stride + (strided ? 4 : 0);
  if (lay == layout::contiguous) {
    in_stride = in_used;
    out_stride = out_used;
  }
  std::vector<cplx> in = lines(count, in_stride, in_used, seed);
  std::vector<cplx> own_out(count * out_stride / 2, cplx{kGap, kGap});
  std::vector<cplx>& out = lay == layout::in_place ? in : own_out;
  if (lay == layout::in_place) out_stride = in_stride;

  switch (k) {
    case kind::c2c_forward:
    case kind::c2c_inverse: {
      const c2c_plan p(n, k == kind::c2c_forward ? direction::forward
                                                 : direction::inverse);
      p.execute_many(in.data(), in_stride / 2, out.data(), out_stride / 2,
                     count);
      break;
    }
    case kind::r2c: {
      const r2c_plan p(n);
      p.execute_many(as_real(in), in_stride, out.data(), out_stride / 2, count);
      break;
    }
    case kind::c2r: {
      const c2r_plan p(n);
      p.execute_many(in.data(), in_stride / 2, as_real(out), out_stride, count);
      break;
    }
  }
  return pcf::crc32_update(crc, out.data(), out.size() * sizeof(cplx));
}

std::uint32_t crc_all(kind k, std::size_t n) {
  std::uint32_t crc = pcf::crc32_init();
  for (std::size_t count : kCounts)
    for (layout lay : kLayouts) crc = run_case(k, n, count, lay, crc);
  return pcf::crc32_final(crc);
}

const char* name(kind k) {
  switch (k) {
    case kind::c2c_forward: return "c2c_forward";
    case kind::c2c_inverse: return "c2c_inverse";
    case kind::r2c: return "r2c";
    case kind::c2r: return "c2r";
  }
  return "?";
}

// clang-format off
constexpr pinned kPinned[] = {
    {kind::c2c_forward, 2, 0x89ab7128u},
    {kind::c2c_inverse, 2, 0x89ab7128u},
    {kind::r2c, 2, 0xf0ee3337u},
    {kind::c2r, 2, 0xb1952a00u},
    {kind::c2c_forward, 3, 0x3f7331a1u},
    {kind::c2c_inverse, 3, 0x6fb139f0u},
    {kind::c2c_forward, 4, 0xcc71ef63u},
    {kind::c2c_inverse, 4, 0xd57143a9u},
    {kind::r2c, 4, 0x0beba246u},
    {kind::c2r, 4, 0x4b15ab25u},
    {kind::c2c_forward, 5, 0x4aa80dfeu},
    {kind::c2c_inverse, 5, 0x7b501110u},
    {kind::c2c_forward, 6, 0xf4f602d1u},
    {kind::c2c_inverse, 6, 0x34139aa8u},
    {kind::r2c, 6, 0x67098ff3u},
    {kind::c2r, 6, 0xc5e627adu},
    {kind::c2c_forward, 7, 0x42a8b008u},
    {kind::c2c_inverse, 7, 0xb5fe8872u},
    {kind::c2c_forward, 8, 0x895ebe74u},
    {kind::c2c_inverse, 8, 0x78eec530u},
    {kind::r2c, 8, 0x0f234979u},
    {kind::c2r, 8, 0xb277a5a2u},
    {kind::c2c_forward, 11, 0x3534e5cdu},
    {kind::c2c_inverse, 11, 0x69191be5u},
    {kind::c2c_forward, 12, 0x15ef4df3u},
    {kind::c2c_inverse, 12, 0x682ace07u},
    {kind::r2c, 12, 0xe2750e0bu},
    {kind::c2r, 12, 0x09c72a2au},
    {kind::c2c_forward, 13, 0xde3ce7cau},
    {kind::c2c_inverse, 13, 0x41483b76u},
    {kind::c2c_forward, 16, 0x5f32b6f5u},
    {kind::c2c_inverse, 16, 0x9956efe7u},
    {kind::r2c, 16, 0x27f7f412u},
    {kind::c2r, 16, 0x8786a7a7u},
    {kind::c2c_forward, 24, 0x8083d21du},
    {kind::c2c_inverse, 24, 0x0c8cd2a9u},
    {kind::r2c, 24, 0x8919c54eu},
    {kind::c2r, 24, 0x67a636a1u},
    {kind::c2c_forward, 31, 0x26544f6au},
    {kind::c2c_inverse, 31, 0x3ba6545du},
    {kind::c2c_forward, 36, 0x662688bbu},
    {kind::c2c_inverse, 36, 0xa16dbaefu},
    {kind::r2c, 36, 0x9b389870u},
    {kind::c2r, 36, 0xda0e8797u},
    {kind::c2c_forward, 48, 0x6aabf026u},
    {kind::c2c_inverse, 48, 0xfde65b1eu},
    {kind::r2c, 48, 0xd4a9c25au},
    {kind::c2r, 48, 0x64e827aeu},
    {kind::c2c_forward, 62, 0x37a98e3au},
    {kind::c2c_inverse, 62, 0xeb63dd01u},
    {kind::r2c, 62, 0x273b468bu},
    {kind::c2r, 62, 0xde7b5a15u},
    {kind::c2c_forward, 74, 0x8118f199u},
    {kind::c2c_inverse, 74, 0xe45dd418u},
    {kind::r2c, 74, 0x63a33ed3u},
    {kind::c2r, 74, 0x9688a3eau},
    {kind::c2c_forward, 96, 0x1ef0d32au},
    {kind::c2c_inverse, 96, 0xf5c5f9b0u},
    {kind::r2c, 96, 0x9a90c566u},
    {kind::c2r, 96, 0x4103bd90u},
    {kind::c2c_forward, 111, 0xb6de4d30u},
    {kind::c2c_inverse, 111, 0xa3da6fb0u},
};
// clang-format on

TEST(FftBits, MatchesParentKernel) {
  for (const pinned& p : kPinned) {
    const std::uint32_t got = crc_all(p.k, p.n);
    char buf[96];
    std::snprintf(buf, sizeof buf, "{kind::%s, %zu, 0x%08xu},", name(p.k),
                  p.n, got);
    EXPECT_EQ(got, p.crc) << buf;
  }
}

}  // namespace
