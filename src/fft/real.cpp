// Real <-> complex transforms via the even/odd packing trick: a length-n
// real transform is computed with one length-n/2 complex transform plus an
// O(n) unpack. This is the storage layout the paper's kernel exploits when
// it drops the Nyquist mode (Section 4.4). The packing runs in the block
// engine's pack step and the unpacking in its unpack step, so a block of
// lines goes through the half-length transform together.
#include <algorithm>
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
  const std::size_t n = impl_->n;
  detail::scratch_arena::scope sc(detail::scratch_arena::tls());
  execute_many(detail::strided_lines(sc, in, n, in_stride, count),
               detail::strided_lines(sc, out, n / 2 + 1, out_stride, count), 0,
               count);
}

void r2c_plan::execute_many(const line_map<const double>& in,
                            const line_map<cplx>& out, std::size_t first,
                            std::size_t count) const {
  const std::size_t h = impl_->n / 2;
  const cplx* w = impl_->w.data();
  impl_->half.execute(
      first, count,
      // Pack: z_j = x_{2j} + i x_{2j+1}.
      [&](auto lanes, std::size_t line, double* a) {
        constexpr std::size_t L = decltype(lanes)::value;
        const detail::lanes<L> ln(in.rows, line);
        for (std::size_t j = 0; j < h; ++j) {
          detail::gather(in, ln, 2 * j, a + 2 * L * j);
          detail::gather(in, ln, 2 * j + 1, a + 2 * L * j + L);
        }
      },
      // Unpack: X_k = E_k + w^k O_k with
      //   E_k = (Z_k + conj(Z_{h-k})) / 2,  O_k = -i (Z_k - conj(Z_{h-k})) / 2.
      // Modes the output map drops are not formed.
      [&](auto lanes, std::size_t line, const double* b) {
        constexpr std::size_t L = decltype(lanes)::value;
        const detail::lanes<L> ln(out.rows, line);
        for (std::size_t k = 0; k <= h; ++k) {
          if (out.slots[k].off == line_slot::none) continue;
          const double* zk = b + 2 * L * (k % h);
          const double* zm = b + 2 * L * ((h - k) % h);
          const double wr = w[k].real(), wi = w[k].imag();
          double yr[L], yi[L];
          for (std::size_t l = 0; l < L; ++l) {
            const double mr = zm[l], mi = -zm[L + l];  // conj(Z_{h-k})
            const double er = 0.5 * (zk[l] + mr), ei = 0.5 * (zk[L + l] + mi);
            const double dr = 0.5 * (zk[l] - mr), di = 0.5 * (zk[L + l] - mi);
            const double o_r = di, o_i = -dr;  // -i * d
            yr[l] = er + (wr * o_r - wi * o_i);
            yi[l] = ei + (wr * o_i + wi * o_r);
          }
          detail::scatter(out, ln, k, yr, yi);
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
  const std::size_t n = impl_->n;
  detail::scratch_arena::scope sc(detail::scratch_arena::tls());
  execute_many(detail::strided_lines(sc, in, n / 2 + 1, in_stride, count),
               detail::strided_lines(sc, out, n, out_stride, count), 0, count);
}

void c2r_plan::execute_many(const line_map<const cplx>& in,
                            const line_map<double>& out, std::size_t first,
                            std::size_t count) const {
  const std::size_t h = impl_->n / 2;
  const cplx* w = impl_->w.data();
  impl_->half.execute(
      first, count,
      // Pack: Z_k = E_k + i O_k (scale 2 relative to the forward E/O) so
      // that r2c followed by c2r scales by exactly n, matching FFTW. X_k
      // and X_{h-k} feed both Z_k and Z_{h-k}, so each pair is gathered
      // into the block once and packed in place.
      [&](auto lanes, std::size_t line, double* a) {
        constexpr std::size_t L = decltype(lanes)::value;
        const detail::lanes<L> ln(in.rows, line);
        double xh[2 * L];  // X_h, the one input element without a Z slot
        for (std::size_t k = 0; k < h; ++k)
          detail::gather(in, ln, k, a + 2 * L * k, a + 2 * L * k + L);
        detail::gather(in, ln, h, xh, xh + L);
        const auto z = [&](const double* x, const double* y, std::size_t k,
                           double* out) {
          const double wr = w[k].real(), wi = w[k].imag();
          for (std::size_t l = 0; l < L; ++l) {
            const double mr = y[l], mi = -y[L + l];  // conj(X_{h-k})
            const double er = x[l] + mr, ei = x[L + l] + mi;
            const double dr = x[l] - mr, di = x[L + l] - mi;
            const double o_r = wr * dr - wi * di, o_i = wr * di + wi * dr;
            out[l] = er - o_i;  // e + i*o
            out[L + l] = ei + o_r;
          }
        };
        double t[2 * L];
        for (std::size_t k = 0; 2 * k <= h; ++k) {
          double* xk = a + 2 * L * k;
          if (k == 0) {
            z(xk, xh, 0, t);
          } else if (2 * k == h) {
            z(xk, xk, k, t);
          } else {
            double* xm = a + 2 * L * (h - k);
            double u[2 * L];
            z(xm, xk, h - k, u);
            z(xk, xm, k, t);
            std::copy_n(u, 2 * L, xm);
          }
          std::copy_n(t, 2 * L, xk);
        }
      },
      // Unpack: x_{2j} = Re z_j, x_{2j+1} = Im z_j.
      [&](auto lanes, std::size_t line, const double* b) {
        constexpr std::size_t L = decltype(lanes)::value;
        const detail::lanes<L> ln(out.rows, line);
        for (std::size_t j = 0; j < h; ++j) {
          detail::scatter(out, ln, 2 * j, b + 2 * L * j);
          detail::scatter(out, ln, 2 * j + 1, b + 2 * L * j + L);
        }
      });
}

}  // namespace pcf::fft
