// Plan-based 1-D FFT library (the reproduction's substitute for FFTW 3.3).
//
// Supports any length: mixed-radix Cooley-Tukey with specialized radix
// 2/3/4 butterflies, table-driven butterflies for other primes <= 31, and
// a Bluestein chirp-z fallback for lengths containing larger prime
// factors. Forward transforms use exp(-i 2 pi j k / n); inverse transforms
// are unnormalized (a forward-inverse round trip scales by n), matching
// FFTW's convention.
//
// Like FFTW's "many" plans, execute_many() runs its lines in blocks of 8:
// each block is gathered into thread-local scratch interleaved
// lane-innermost (planar re/im, element j of lane l at 2*8*j + l), every
// butterfly stage runs across the 8 lanes, and the block is scattered back
// out. A tail of count % 8 lines, execute() and Bluestein plans run the
// same kernel at one lane. Lanes never mix, so a line's result does not
// depend on which lines share its block.
//
// Where the lines live is a line_map on each side: an offset table per
// element plus per-line coordinates. The strided form execute_many(ptr,
// stride, ...) is its contiguous case; the pencil kernel hands the FFT its
// exchange buffers' layouts directly, so the gather and scatter of a block
// are the transpose's reorder (pencil/pencil.hpp).
//
// Plans are immutable after construction and safe to execute concurrently
// from multiple threads (scratch is per-call / thread-local), which is what
// lets the pencil kernel embed FFT calls inside threaded blocks exactly as
// the paper does with FFTW + OpenMP (Section 4.2).
#pragma once

#include <complex>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

namespace pcf::fft {

using cplx = std::complex<double>;

namespace detail {
class engine;
}

enum class direction { forward, inverse };

/// Storage of element j of every line of a line_map: in line (g, r) it sits
/// at base[off + g * group + r * row].
struct line_slot {
  /// `off` of an element without storage: a gather reads it as zero and a
  /// scatter drops it (a dealiasing gap, a pad, a dropped Nyquist mode).
  static constexpr std::ptrdiff_t none =
      std::numeric_limits<std::ptrdiff_t>::min();
  std::ptrdiff_t off = 0;
  std::ptrdiff_t group = 0;
  std::ptrdiff_t row = 0;
};

/// Gather/scatter form of a set of lines. Line l is row l % rows of group
/// l / rows, and its element j lives where slots[j] says. T is the element
/// type of the side: cplx, or double for the real side of r2c/c2r.
template <class T>
struct line_map {
  T* base = nullptr;
  const line_slot* slots = nullptr;  // one per element of a line
  std::size_t rows = 1;
  /// Output maps only: every stored value is multiplied by it (1 stores
  /// the transform's values as they are).
  double scale = 1.0;
};

/// Complex-to-complex 1-D transform of fixed length.
class c2c_plan {
 public:
  c2c_plan(std::size_t n, direction dir);
  ~c2c_plan();
  c2c_plan(c2c_plan&&) noexcept;
  c2c_plan& operator=(c2c_plan&&) noexcept;
  c2c_plan(const c2c_plan&) = delete;
  c2c_plan& operator=(const c2c_plan&) = delete;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] direction dir() const;

  /// Transform `in` into `out` (both length n). `in == out` is allowed
  /// (lines pass through block scratch); otherwise they must not overlap.
  void execute(const cplx* in, cplx* out) const;

  /// Transform `count` lines; line b starts at in + b*in_stride
  /// (out + b*out_stride) and is contiguous. Thread-safe.
  void execute_many(const cplx* in, std::size_t in_stride, cplx* out,
                    std::size_t out_stride, std::size_t count) const;

  /// Transform lines first .. first+count-1 of `in` into the same lines of
  /// `out` (n slots each). A block's stores may only overwrite input that
  /// belongs to its own lines, so in place through one map is fine.
  void execute_many(const line_map<const cplx>& in, const line_map<cplx>& out,
                    std::size_t first, std::size_t count) const;

  /// Nominal flop count of one execution (5 n log2 n convention).
  [[nodiscard]] double flops_per_execute() const;

 private:
  std::unique_ptr<detail::engine> impl_;
};

/// Real-to-complex forward transform: n real inputs -> n/2 + 1 complex
/// outputs (indices 0..n/2; index n/2 is the Nyquist mode). n must be even.
class r2c_plan {
 public:
  explicit r2c_plan(std::size_t n);
  ~r2c_plan();
  r2c_plan(r2c_plan&&) noexcept;
  r2c_plan& operator=(r2c_plan&&) noexcept;
  r2c_plan(const r2c_plan&) = delete;
  r2c_plan& operator=(const r2c_plan&) = delete;

  [[nodiscard]] std::size_t size() const;

  void execute(const double* in, cplx* out) const;
  void execute_many(const double* in, std::size_t in_stride, cplx* out,
                    std::size_t out_stride, std::size_t count) const;
  /// Mapped lines as in c2c_plan: `in` has n real slots, `out` n/2 + 1.
  void execute_many(const line_map<const double>& in,
                    const line_map<cplx>& out, std::size_t first,
                    std::size_t count) const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// Complex-to-real inverse transform: n/2 + 1 complex inputs -> n real
/// outputs, unnormalized (r2c followed by c2r scales by n). n must be even.
/// The imaginary parts of in[0] and in[n/2] are assumed zero.
class c2r_plan {
 public:
  explicit c2r_plan(std::size_t n);
  ~c2r_plan();
  c2r_plan(c2r_plan&&) noexcept;
  c2r_plan& operator=(c2r_plan&&) noexcept;
  c2r_plan(const c2r_plan&) = delete;
  c2r_plan& operator=(const c2r_plan&) = delete;

  [[nodiscard]] std::size_t size() const;

  void execute(const cplx* in, double* out) const;
  void execute_many(const cplx* in, std::size_t in_stride, double* out,
                    std::size_t out_stride, std::size_t count) const;
  /// Mapped lines as in c2c_plan: `in` has n/2 + 1 slots, `out` n real.
  void execute_many(const line_map<const cplx>& in,
                    const line_map<double>& out, std::size_t first,
                    std::size_t count) const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// O(n^2) reference DFT used by tests and as the generic-prime butterfly
/// oracle. Forward for sign = -1, inverse (unnormalized) for sign = +1.
void dft_naive(const cplx* in, cplx* out, std::size_t n, int sign);

/// Prime factorization of n in nondecreasing order (n >= 1).
std::vector<std::size_t> factorize(std::size_t n);

/// True if n's largest prime factor is <= 31 (handled by mixed-radix
/// butterflies without the Bluestein fallback).
bool is_smooth(std::size_t n);

}  // namespace pcf::fft
