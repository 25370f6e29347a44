// The lane-blocked executor behind every plan kind (internal to pcf_fft).
//
// execute_many() moves its lines through the transform kLanes at a time.
// A pack step copies kLanes lines into a block, interleaved lane-innermost
// in planar re/im form: element j of lane l keeps its real part at
// blk[2*L*j + l] and its imaginary part at blk[2*L*j + L + l]. Every
// butterfly stage then runs across the L lanes of a block, and an unpack
// step copies the block out to the caller's lines. A tail of count % kLanes
// lines, and every line of a Bluestein plan, runs the same kernel at one
// lane, where the block layout is simply one interleaved complex line.
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

class engine {
 public:
  engine(std::size_t n, direction d);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] direction dir() const { return dir_; }
  [[nodiscard]] double flops() const { return flops_; }

  /// Transforms `count` lines. `pack(lanes_t<L>, line, a)` fills block `a`
  /// with lines line .. line+L-1; `unpack(lanes_t<L>, line, b)` copies the
  /// transformed block `b` back out. One scratch scope and one counter
  /// update cover the whole call.
  template <class Pack, class Unpack>
  void execute(std::size_t count, Pack&& pack, Unpack&& unpack) const {
    if (count == 0) return;
    scratch_arena::scope sc(scratch_arena::tls());
    const std::size_t lanes = (bluestein_ || count < kLanes) ? 1 : kLanes;
    auto* a = reinterpret_cast<double*>(sc.alloc(n_ * lanes));
    auto* b = reinterpret_cast<double*>(sc.alloc(n_ * lanes));
    auto* work = reinterpret_cast<double*>(sc.alloc(bluestein_ ? 2 * bl_m_ : 0));
    std::size_t line = 0;
    if (lanes == kLanes)
      for (; line + kLanes <= count; line += kLanes) {
        pack(lanes_t<kLanes>{}, line, a);
        run<kLanes>(a, b, work);
        unpack(lanes_t<kLanes>{}, line, static_cast<const double*>(b));
      }
    for (; line < count; ++line) {
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
