// Real <-> complex transforms via the even/odd packing trick: a length-n
// real transform is computed with one length-n/2 complex transform plus an
// O(n) unpack. This is the storage layout the paper's kernel exploits when
// it drops the Nyquist mode (Section 4.4). The packing runs in the block
// engine's pack step and the unpacking in its unpack step, so a block of
// lines goes through the half-length transform together.
#include <numbers>
#include <vector>

#include "fft/engine.hpp"
#include "fft/fft.hpp"
#include "util/check.hpp"

namespace pcf::fft {

namespace {

/// Unit roots e^{sign i 2 pi k / n} for k = 0..n/2.
std::vector<cplx> half_roots(std::size_t n, double sign) {
  std::vector<cplx> w(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k)
    w[k] = std::polar(1.0, sign * 2.0 * std::numbers::pi *
                               static_cast<double>(k) /
                               static_cast<double>(n));
  return w;
}

/// n / 2, once n is known to be a valid real-transform length (checked
/// before the half-length plan is built).
std::size_t half_length(std::size_t n, const char* what) {
  PCF_REQUIRE(n >= 2 && n % 2 == 0, what);
  return n / 2;
}

}  // namespace

// ---------------------------------------------------------------------------
// r2c
// ---------------------------------------------------------------------------

struct r2c_plan::impl {
  std::size_t n = 0;
  detail::engine half;  // length n/2 forward transform
  std::vector<cplx> w;  // e^{-2 pi i k / n}

  explicit impl(std::size_t len)
      : n(len),
        half(half_length(len, "r2c length must be even"), direction::forward),
        w(half_roots(len, -1.0)) {}
};

r2c_plan::r2c_plan(std::size_t n) : impl_(new impl(n)) {}
r2c_plan::~r2c_plan() = default;
r2c_plan::r2c_plan(r2c_plan&&) noexcept = default;
r2c_plan& r2c_plan::operator=(r2c_plan&&) noexcept = default;
std::size_t r2c_plan::size() const { return impl_->n; }

void r2c_plan::execute(const double* in, cplx* out) const {
  execute_many(in, 0, out, 0, 1);
}

void r2c_plan::execute_many(const double* in, std::size_t in_stride, cplx* out,
                            std::size_t out_stride, std::size_t count) const {
  const std::size_t h = impl_->n / 2;
  const cplx* w = impl_->w.data();
  auto* dst = reinterpret_cast<double*>(out);
  impl_->half.execute(
      count,
      // Pack: z_j = x_{2j} + i x_{2j+1}.
      [&](auto lanes, std::size_t line, double* a) {
        constexpr std::size_t L = decltype(lanes)::value;
        for (std::size_t l = 0; l < L; ++l) {
          const double* x = in + (line + l) * in_stride;
          for (std::size_t j = 0; j < h; ++j) {
            a[2 * L * j + l] = x[2 * j];
            a[2 * L * j + L + l] = x[2 * j + 1];
          }
        }
      },
      // Unpack: X_k = E_k + w^k O_k with
      //   E_k = (Z_k + conj(Z_{h-k})) / 2,  O_k = -i (Z_k - conj(Z_{h-k})) / 2.
      [&](auto lanes, std::size_t line, const double* b) {
        constexpr std::size_t L = decltype(lanes)::value;
        for (std::size_t k = 0; k <= h; ++k) {
          const double* zk = b + 2 * L * (k % h);
          const double* zm = b + 2 * L * ((h - k) % h);
          const double wr = w[k].real(), wi = w[k].imag();
          for (std::size_t l = 0; l < L; ++l) {
            const double mr = zm[l], mi = -zm[L + l];  // conj(Z_{h-k})
            const double er = 0.5 * (zk[l] + mr), ei = 0.5 * (zk[L + l] + mi);
            const double dr = 0.5 * (zk[l] - mr), di = 0.5 * (zk[L + l] - mi);
            const double o_r = di, o_i = -dr;  // -i * d
            double* y = dst + 2 * ((line + l) * out_stride + k);
            y[0] = er + (wr * o_r - wi * o_i);
            y[1] = ei + (wr * o_i + wi * o_r);
          }
        }
      });
}

// ---------------------------------------------------------------------------
// c2r
// ---------------------------------------------------------------------------

struct c2r_plan::impl {
  std::size_t n = 0;
  detail::engine half;  // length n/2 inverse transform
  std::vector<cplx> w;  // e^{+2 pi i k / n}

  explicit impl(std::size_t len)
      : n(len),
        half(half_length(len, "c2r length must be even"), direction::inverse),
        w(half_roots(len, 1.0)) {}
};

c2r_plan::c2r_plan(std::size_t n) : impl_(new impl(n)) {}
c2r_plan::~c2r_plan() = default;
c2r_plan::c2r_plan(c2r_plan&&) noexcept = default;
c2r_plan& c2r_plan::operator=(c2r_plan&&) noexcept = default;
std::size_t c2r_plan::size() const { return impl_->n; }

void c2r_plan::execute(const cplx* in, double* out) const {
  execute_many(in, 0, out, 0, 1);
}

void c2r_plan::execute_many(const cplx* in, std::size_t in_stride, double* out,
                            std::size_t out_stride, std::size_t count) const {
  const std::size_t h = impl_->n / 2;
  const cplx* w = impl_->w.data();
  const auto* src = reinterpret_cast<const double*>(in);
  impl_->half.execute(
      count,
      // Pack: Z_k = E_k + i O_k (scale 2 relative to the forward E/O) so
      // that r2c followed by c2r scales by exactly n, matching FFTW.
      [&](auto lanes, std::size_t line, double* a) {
        constexpr std::size_t L = decltype(lanes)::value;
        for (std::size_t l = 0; l < L; ++l) {
          const double* x = src + 2 * (line + l) * in_stride;
          for (std::size_t k = 0; k < h; ++k) {
            const double xr = x[2 * k], xi = x[2 * k + 1];
            const double mr = x[2 * (h - k)], mi = -x[2 * (h - k) + 1];
            const double er = xr + mr, ei = xi + mi;
            const double dr = xr - mr, di = xi - mi;
            const double wr = w[k].real(), wi = w[k].imag();
            const double o_r = wr * dr - wi * di, o_i = wr * di + wi * dr;
            a[2 * L * k + l] = er - o_i;  // e + i*o
            a[2 * L * k + L + l] = ei + o_r;
          }
        }
      },
      // Unpack: x_{2j} = Re z_j, x_{2j+1} = Im z_j.
      [&](auto lanes, std::size_t line, const double* b) {
        constexpr std::size_t L = decltype(lanes)::value;
        for (std::size_t l = 0; l < L; ++l) {
          double* y = out + (line + l) * out_stride;
          for (std::size_t j = 0; j < h; ++j) {
            y[2 * j] = b[2 * L * j + l];
            y[2 * j + 1] = b[2 * L * j + L + l];
          }
        }
      });
}

}  // namespace pcf::fft
