// The lane-blocked executor behind every plan kind (internal to pcf_fft).
//
// execute_many() moves its lines through the transform kLanes at a time.
// A pack step gathers kLanes lines into a block, interleaved lane-innermost
// in planar re/im form: element j of lane l keeps its real part at
// blk[2*L*j + l] and its imaginary part at blk[2*L*j + L + l]. Every
// butterfly stage then runs across the L lanes of a block, and an unpack
// step scatters the block out to the caller's lines. Both go through the
// caller's line_maps (fft.hpp), resolved per block by `lanes`. A tail of
// count % kLanes lines, and every line of a Bluestein plan, runs the same
// kernel at one lane, where the block layout is simply one interleaved
// complex line.
//
// Each lane's arithmetic is the per-line DIT recursion's, operand for
// operand, with complex products written out in GCC's order
// (re = ar*br - ai*bi, im = ar*bi + ai*br). Lanes never mix, so results do
// not depend on which lines share a block.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "fft/fft.hpp"
#include "fft/scratch.hpp"

namespace pcf::fft::detail {

/// Lines per block.
inline constexpr std::size_t kLanes = 8;

/// Lane count of a block, passed to pack/unpack callbacks as a type.
template <std::size_t L>
using lanes_t = std::integral_constant<std::size_t, L>;

/// Lines line .. line+L-1 of a line_map, resolved once per block. When the
/// lanes share a group (the common case), lane l of a slot sits l * row
/// past lane 0; otherwise each lane keeps its own group and row.
template <std::size_t L>
class lanes {
 public:
  lanes(std::size_t rows, std::size_t line)
      : g0_(static_cast<std::ptrdiff_t>(line / rows)),
        r0_(static_cast<std::ptrdiff_t>(line % rows)),
        one_group_(line % rows + L <= rows) {
    if (one_group_) return;
    for (std::size_t l = 0; l < L; ++l) {
      g_[l] = static_cast<std::ptrdiff_t>((line + l) / rows);
      r_[l] = static_cast<std::ptrdiff_t>((line + l) % rows);
    }
  }

  /// Calls f(l, o) with the offset o of slot s's element in every lane l;
  /// returns false, without calls, if the slot has no storage.
  template <class F>
  bool each(const line_slot& s, F&& f) const {
    if (s.off == line_slot::none) return false;
    if (one_group_ && s.row == 1) {  // adjacent lanes: a plain run
      const std::ptrdiff_t o = s.off + g0_ * s.group + r0_;
      for (std::size_t l = 0; l < L; ++l)
        f(l, o + static_cast<std::ptrdiff_t>(l));
      return true;
    }
    // Lane offsets depend only on the slot's strides, which most maps
    // share across all their slots: resolve them once per stride pair.
    if (s.group != group_ || s.row != row_) {
      group_ = s.group;
      row_ = s.row;
      for (std::size_t l = 0; l < L; ++l)
        lane_[l] = one_group_ ? g0_ * s.group +
                                    (r0_ + static_cast<std::ptrdiff_t>(l)) *
                                        s.row
                              : g_[l] * s.group + r_[l] * s.row;
    }
    for (std::size_t l = 0; l < L; ++l) f(l, s.off + lane_[l]);
    return true;
  }

 private:
  std::ptrdiff_t g0_, r0_;
  bool one_group_;
  std::ptrdiff_t g_[L] = {}, r_[L] = {};
  // Lane offsets for the strides (group_, row_); none resolved yet.
  mutable std::ptrdiff_t group_ = line_slot::none, row_ = line_slot::none;
  mutable std::ptrdiff_t lane_[L] = {};
};

/// re[l], im[l] = element j of lane l (zero where the slot has none).
template <std::size_t L>
inline void gather(const line_map<const cplx>& m, const lanes<L>& ln,
                   std::size_t j, double* re, double* im) {
  const auto* p = reinterpret_cast<const double*>(m.base);
  if (!ln.each(m.slots[j], [&](std::size_t l, std::ptrdiff_t o) {
        re[l] = p[2 * o];
        im[l] = p[2 * o + 1];
      }))
    for (std::size_t l = 0; l < L; ++l) re[l] = im[l] = 0.0;
}

/// v[l] = real element j of lane l (zero where the slot has none).
template <std::size_t L>
inline void gather(const line_map<const double>& m, const lanes<L>& ln,
                   std::size_t j, double* v) {
  if (!ln.each(m.slots[j],
               [&](std::size_t l, std::ptrdiff_t o) { v[l] = m.base[o]; }))
    for (std::size_t l = 0; l < L; ++l) v[l] = 0.0;
}

/// Stores (re[l], im[l]) * m.scale as element j of lane l, unless the slot
/// has no storage.
template <std::size_t L>
inline void scatter(const line_map<cplx>& m, const lanes<L>& ln,
                    std::size_t j, const double* re, const double* im) {
  auto* p = reinterpret_cast<double*>(m.base);
  const double c = m.scale;
  if (c != 1.0)
    ln.each(m.slots[j], [&](std::size_t l, std::ptrdiff_t o) {
      p[2 * o] = re[l] * c;
      p[2 * o + 1] = im[l] * c;
    });
  else
    ln.each(m.slots[j], [&](std::size_t l, std::ptrdiff_t o) {
      p[2 * o] = re[l];
      p[2 * o + 1] = im[l];
    });
}

/// Stores v[l] * m.scale as real element j of lane l, unless the slot has
/// no storage.
template <std::size_t L>
inline void scatter(const line_map<double>& m, const lanes<L>& ln,
                    std::size_t j, const double* v) {
  const double c = m.scale;
  if (c != 1.0)
    ln.each(m.slots[j],
            [&](std::size_t l, std::ptrdiff_t o) { m.base[o] = v[l] * c; });
  else
    ln.each(m.slots[j],
            [&](std::size_t l, std::ptrdiff_t o) { m.base[o] = v[l]; });
}

/// The line_map of `count` contiguous lines of n elements, `stride`
/// elements apart, with its slot table checked out of `sc`.
template <class T>
line_map<T> strided_lines(scratch_arena::scope& sc, T* base, std::size_t n,
                          std::size_t stride, std::size_t count) {
  auto* slots = reinterpret_cast<line_slot*>(
      sc.alloc((n * sizeof(line_slot) + sizeof(cplx) - 1) / sizeof(cplx)));
  for (std::size_t j = 0; j < n; ++j)
    slots[j] = {static_cast<std::ptrdiff_t>(j), 0,
                static_cast<std::ptrdiff_t>(stride)};
  return {base, slots, count > 0 ? count : 1};
}

class engine {
 public:
  engine(std::size_t n, direction d);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] direction dir() const { return dir_; }
  [[nodiscard]] double flops() const { return flops_; }

  /// Transforms lines first .. first+count-1. `pack(lanes_t<L>, line, a)`
  /// fills block `a` with lines line .. line+L-1; `unpack(lanes_t<L>, line,
  /// b)` copies the transformed block `b` back out. One scratch scope and
  /// one counter update cover the whole call.
  template <class Pack, class Unpack>
  void execute(std::size_t first, std::size_t count, Pack&& pack,
               Unpack&& unpack) const {
    if (count == 0) return;
    scratch_arena::scope sc(scratch_arena::tls());
    const std::size_t lanes = (bluestein_ || count < kLanes) ? 1 : kLanes;
    auto* a = reinterpret_cast<double*>(sc.alloc(n_ * lanes));
    auto* b = reinterpret_cast<double*>(sc.alloc(n_ * lanes));
    auto* work = reinterpret_cast<double*>(sc.alloc(bluestein_ ? 2 * bl_m_ : 0));
    const std::size_t end = first + count;
    std::size_t line = first;
    if (lanes == kLanes)
      for (; line + kLanes <= end; line += kLanes) {
        pack(lanes_t<kLanes>{}, line, a);
        run<kLanes>(a, b, work);
        unpack(lanes_t<kLanes>{}, line, static_cast<const double*>(b));
      }
    for (; line < end; ++line) {
      pack(lanes_t<1>{}, line, a);
      run<1>(a, b, work);
      unpack(lanes_t<1>{}, line, static_cast<const double*>(b));
    }
    account(count);
  }

 private:
  struct stage {
    std::size_t n = 0;  // transform length at this depth
    std::size_t r = 0;  // radix applied at this depth
    std::size_t m = 0;  // n / r
    // tw[(q-1)*m + k2] = w_n^{q k2} for q in 1..r-1 (q = 0 is always 1).
    std::vector<cplx> tw;
  };

  void build_mixed_radix();
  void build_bluestein();

  /// Transforms block `a` into block `b` (distinct). `work` holds
  /// 2 * bl_m_ complex elements for a Bluestein plan, which runs at L = 1.
  template <std::size_t L>
  void run(const double* a, double* b, double* work) const;
  template <std::size_t R, std::size_t L>
  void leaves(const double* a, double* b) const;
  template <std::size_t R, std::size_t L>
  void combine(const stage& st, double* b) const;
  void bluestein(const double* a, double* b, double* work) const;

  /// Adds `count` lines' worth of the per-line flop and byte accounting.
  void account(std::size_t count) const;

  std::size_t n_ = 0;
  direction dir_ = direction::forward;
  double sign_ = -1.0;  // -1 forward, +1 inverse
  double flops_ = 0.0;
  std::vector<stage> stages_;
  // roots_[r][q] = w_r^q for each radix r in use.
  std::vector<std::vector<cplx>> roots_;

  // Bluestein state (only when n is not smooth).
  bool bluestein_ = false;
  std::size_t bl_m_ = 0;                     // padded power-of-two length
  std::vector<cplx> bl_chirp_;               // a_j = exp(sign i pi j^2 / n)
  std::vector<cplx> bl_bhat_;                // FFT_M of the chirp filter
  std::unique_ptr<const engine> bl_fwd_, bl_inv_;
};

extern template void engine::run<1>(const double*, double*, double*) const;
extern template void engine::run<kLanes>(const double*, double*,
                                         double*) const;

}  // namespace pcf::fft::detail
