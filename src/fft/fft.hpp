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
// each block is copied into thread-local scratch interleaved
// lane-innermost (planar re/im, element j of lane l at 2*8*j + l), and
// every butterfly stage runs across the 8 lanes. A tail of count % 8 lines,
// execute() and Bluestein plans run the same kernel at one lane. Lanes never
// mix, so a line's result does not depend on which lines share its block.
//
// Plans are immutable after construction and safe to execute concurrently
// from multiple threads (scratch is per-call / thread-local), which is what
// lets the pencil kernel embed FFT calls inside threaded blocks exactly as
// the paper does with FFTW + OpenMP (Section 4.2).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace pcf::fft {

using cplx = std::complex<double>;

namespace detail {
class engine;
}

enum class direction { forward, inverse };

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
