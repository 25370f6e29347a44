#include <algorithm>
#include <cmath>
#include <numbers>

#include "fft/engine.hpp"
#include "fft/fft.hpp"
#include "util/check.hpp"
#include "util/counters.hpp"

namespace pcf::fft {

namespace {

constexpr std::size_t kMaxButterflyRadix = 31;

double twopi() { return 2.0 * std::numbers::pi; }

}  // namespace

std::vector<std::size_t> factorize(std::size_t n) {
  PCF_REQUIRE(n >= 1, "factorize requires n >= 1");
  std::vector<std::size_t> f;
  for (std::size_t p = 2; p * p <= n; p += (p == 2 ? 1 : 2)) {
    while (n % p == 0) {
      f.push_back(p);
      n /= p;
    }
  }
  if (n > 1) f.push_back(n);
  return f;
}

bool is_smooth(std::size_t n) {
  auto f = factorize(n);
  return f.empty() || f.back() <= kMaxButterflyRadix;
}

void dft_naive(const cplx* in, cplx* out, std::size_t n, int sign) {
  PCF_REQUIRE(sign == 1 || sign == -1, "sign must be +1 or -1");
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      // Reduce j*k mod n before forming the angle to preserve accuracy.
      const double ang = sign * twopi() * static_cast<double>((j * k) % n) /
                         static_cast<double>(n);
      const cplx w = std::polar(1.0, ang);
      // in[j] * w in GCC's order, without the __muldc3 NaN check.
      acc += cplx{in[j].real() * w.real() - in[j].imag() * w.imag(),
                  in[j].real() * w.imag() + in[j].imag() * w.real()};
    }
    out[k] = acc;
  }
}

// ---------------------------------------------------------------------------
// Mixed-radix engine
// ---------------------------------------------------------------------------

namespace detail {

engine::engine(std::size_t n, direction d)
    : n_(n),
      dir_(d),
      sign_(d == direction::forward ? -1.0 : 1.0),
      flops_(n > 1 ? 5.0 * static_cast<double>(n) *
                         std::log2(static_cast<double>(n))
                   : 0.0) {
  if (n_ <= 1) return;
  if (is_smooth(n_))
    build_mixed_radix();
  else
    build_bluestein();
}

void engine::build_mixed_radix() {
  // Merge prime factors: pairs of 2s become radix-4 stages (the hot path
  // for the power-of-two-rich grid sizes used in the DNS).
  auto primes = factorize(n_);
  std::vector<std::size_t> radices;
  std::size_t twos = 0;
  for (std::size_t p : primes) {
    if (p == 2)
      ++twos;
    else
      radices.push_back(p);
  }
  while (twos >= 2) {
    radices.push_back(4);
    twos -= 2;
  }
  if (twos == 1) radices.push_back(2);
  std::sort(radices.begin(), radices.end(), std::greater<>());

  roots_.assign(kMaxButterflyRadix + 1, {});
  std::size_t rem = n_;
  for (std::size_t r : radices) {
    stage st;
    st.n = rem;
    st.r = r;
    st.m = rem / r;
    st.tw.resize(st.m * (r - 1));
    for (std::size_t k2 = 0; k2 < st.m; ++k2) {
      for (std::size_t q = 1; q < r; ++q) {
        const double ang = sign_ * twopi() *
                           static_cast<double>((q * k2) % st.n) /
                           static_cast<double>(st.n);
        st.tw[(q - 1) * st.m + k2] = std::polar(1.0, ang);
      }
    }
    if (roots_[r].empty()) {
      roots_[r].resize(r);
      for (std::size_t q = 0; q < r; ++q)
        roots_[r][q] =
            std::polar(1.0, sign_ * twopi() * static_cast<double>(q) /
                                static_cast<double>(r));
    }
    stages_.push_back(std::move(st));
    rem /= r;
  }
  PCF_ASSERT(rem == 1);
}

void engine::build_bluestein() {
  bluestein_ = true;
  bl_m_ = 1;
  while (bl_m_ < 2 * n_ - 1) bl_m_ <<= 1;
  bl_fwd_ = std::make_unique<const engine>(bl_m_, direction::forward);
  bl_inv_ = std::make_unique<const engine>(bl_m_, direction::inverse);

  bl_chirp_.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    // j^2 mod 2n keeps the argument small for accuracy.
    const std::size_t j2 = (j * j) % (2 * n_);
    bl_chirp_[j] = std::polar(
        1.0, sign_ * std::numbers::pi * static_cast<double>(j2) /
                 static_cast<double>(n_));
  }
  std::vector<cplx> b(bl_m_, cplx{0.0, 0.0});
  for (std::size_t j = 0; j < n_; ++j) {
    const cplx c = std::conj(bl_chirp_[j]);
    b[j] = c;
    if (j != 0) b[bl_m_ - j] = c;
  }
  bl_bhat_.resize(bl_m_);
  bl_fwd_->run<1>(reinterpret_cast<const double*>(b.data()),
                  reinterpret_cast<double*>(bl_bhat_.data()), nullptr);
}

namespace {

/// One block element's L lanes, held in registers or on the stack.
template <std::size_t L>
struct elem {
  double re[L];
  double im[L];
};

template <std::size_t L>
inline void load(const double* blk, std::size_t j, elem<L>& t) {
  const double* p = blk + 2 * L * j;
  for (std::size_t l = 0; l < L; ++l) {
    t.re[l] = p[l];
    t.im[l] = p[L + l];
  }
}

/// t = x * w for every lane of block element j.
template <std::size_t L>
inline void load_twiddled(const double* blk, std::size_t j, cplx w,
                          elem<L>& t) {
  const double* p = blk + 2 * L * j;
  const double wr = w.real(), wi = w.imag();
  for (std::size_t l = 0; l < L; ++l) {
    const double xr = p[l], xi = p[L + l];
    t.re[l] = xr * wr - xi * wi;
    t.im[l] = xr * wi + xi * wr;
  }
}

/// Radix-R butterfly on the (already twiddled) inputs t[0..r), writing
/// output k to block element k * os of `out`. R = 0 is the table-driven
/// butterfly for any prime r <= 31, accumulating in the order
/// acc = t[0] + t[1] w^{k} + t[2] w^{2k} + ...
template <std::size_t R, std::size_t L>
inline void butterfly(const elem<L>* t, std::size_t r, double* out,
                      std::size_t os, const cplx* roots, double sign) {
  const std::size_t es = 2 * L * os;  // output element stride in doubles
  if constexpr (R == 2) {
    double* o0 = out;
    double* o1 = out + es;
    for (std::size_t l = 0; l < L; ++l) {
      const double ar = t[0].re[l], ai = t[0].im[l];
      const double br = t[1].re[l], bi = t[1].im[l];
      o0[l] = ar + br;
      o0[L + l] = ai + bi;
      o1[l] = ar - br;
      o1[L + l] = ai - bi;
    }
  } else if constexpr (R == 3) {
    const double s3 = sign * 0.8660254037844386467637231707529362;  // sqrt(3)/2
    double* o0 = out;
    double* o1 = out + es;
    double* o2 = out + 2 * es;
    for (std::size_t l = 0; l < L; ++l) {
      const double ur = t[1].re[l] + t[2].re[l], ui = t[1].im[l] + t[2].im[l];
      const double vr = t[1].re[l] - t[2].re[l], vi = t[1].im[l] - t[2].im[l];
      const double wr = t[0].re[l] - 0.5 * ur, wi = t[0].im[l] - 0.5 * ui;
      const double ivr = -s3 * vi, ivi = s3 * vr;  // i * s3 * v
      o0[l] = t[0].re[l] + ur;
      o0[L + l] = t[0].im[l] + ui;
      o1[l] = wr + ivr;
      o1[L + l] = wi + ivi;
      o2[l] = wr - ivr;
      o2[L + l] = wi - ivi;
    }
  } else if constexpr (R == 4) {
    const double ns = -sign;
    double* o0 = out;
    double* o1 = out + es;
    double* o2 = out + 2 * es;
    double* o3 = out + 3 * es;
    for (std::size_t l = 0; l < L; ++l) {
      const double ar = t[0].re[l] + t[2].re[l], ai = t[0].im[l] + t[2].im[l];
      const double br = t[0].re[l] - t[2].re[l], bi = t[0].im[l] - t[2].im[l];
      const double cr = t[1].re[l] + t[3].re[l], ci = t[1].im[l] + t[3].im[l];
      const double dr = t[1].re[l] - t[3].re[l], di = t[1].im[l] - t[3].im[l];
      // forward (sign=-1): X1 = b - i d, X3 = b + i d
      const double idr = ns * di, idi = sign * dr;  // sign * i * d
      o0[l] = ar + cr;
      o0[L + l] = ai + ci;
      o1[l] = br + idr;
      o1[L + l] = bi + idi;
      o2[l] = ar - cr;
      o2[L + l] = ai - ci;
      o3[l] = br - idr;
      o3[L + l] = bi - idi;
    }
  } else {
    for (std::size_t k = 0; k < r; ++k) {
      elem<L> acc = t[0];
      for (std::size_t q = 1; q < r; ++q) {
        const double wr = roots[(q * k) % r].real();
        const double wi = roots[(q * k) % r].imag();
        for (std::size_t l = 0; l < L; ++l) {
          acc.re[l] += t[q].re[l] * wr - t[q].im[l] * wi;
          acc.im[l] += t[q].re[l] * wi + t[q].im[l] * wr;
        }
      }
      double* o = out + k * es;
      for (std::size_t l = 0; l < L; ++l) {
        o[l] = acc.re[l];
        o[L + l] = acc.im[l];
      }
    }
  }
}

}  // namespace

// The DIT recursion, flattened: every leaf butterfly first (reading the
// input in digit-reversed order), then each stage's combines from the
// deepest to the outermost, in place in b. Each combine sees exactly the
// sub-transform values the recursion would have handed it.
template <std::size_t L>
void engine::run(const double* a, double* b, double* work) const {
  if (n_ <= 1) {
    std::copy_n(a, 2 * L * n_, b);
    return;
  }
  if (bluestein_) {
    PCF_ASSERT(L == 1);
    bluestein(a, b, work);
    return;
  }
  switch (stages_.back().r) {
    case 2: leaves<2, L>(a, b); break;
    case 3: leaves<3, L>(a, b); break;
    case 4: leaves<4, L>(a, b); break;
    default: leaves<0, L>(a, b); break;
  }
  for (std::size_t d = stages_.size() - 1; d-- > 0;) {
    const stage& st = stages_[d];
    switch (st.r) {
      case 2: combine<2, L>(st, b); break;
      case 3: combine<3, L>(st, b); break;
      case 4: combine<4, L>(st, b); break;
      default: combine<0, L>(st, b); break;
    }
  }
}

template void engine::run<1>(const double*, double*, double*) const;
template void engine::run<kLanes>(const double*, double*, double*) const;

template <std::size_t R, std::size_t L>
void engine::leaves(const double* a, double* b) const {
  const std::size_t r = R == 0 ? stages_.back().r : R;
  const std::size_t is = n_ / r;  // input stride between a leaf's points
  const std::size_t outer = stages_.size() - 1;
  const cplx* roots = roots_[r].data();
  elem<L> t[R == 0 ? kMaxButterflyRadix : R];
  // Odometer over the outer stages' branch digits: leaf o/r reads input
  // offset sum_d digit[d] * (n / stages_[d].n), its position in the
  // recursion's input striding.
  std::size_t digit[64] = {};
  std::size_t off = 0;
  for (std::size_t o = 0; o < n_; o += r) {
    for (std::size_t q = 0; q < r; ++q) load(a, off + q * is, t[q]);
    butterfly<R>(t, r, b + 2 * L * o, 1, roots, sign_);
    for (std::size_t d = outer; d-- > 0;) {
      const std::size_t step = n_ / stages_[d].n;
      off += step;
      if (++digit[d] < stages_[d].r) break;
      digit[d] = 0;
      off -= stages_[d].r * step;
    }
  }
}

template <std::size_t R, std::size_t L>
void engine::combine(const stage& st, double* b) const {
  const std::size_t r = R == 0 ? st.r : R;
  const std::size_t m = st.m;
  const cplx* roots = roots_[r].data();
  elem<L> t[R == 0 ? kMaxButterflyRadix : R];
  // Column k2 of every sub-transform shares its twiddles; each instance
  // of this stage is a contiguous run of st.n elements of b.
  for (std::size_t k2 = 0; k2 < m; ++k2) {
    cplx w[R == 0 ? kMaxButterflyRadix : R];
    for (std::size_t q = 1; q < r; ++q) w[q] = st.tw[(q - 1) * m + k2];
    for (std::size_t base = k2; base < n_; base += st.n) {
      load(b, base, t[0]);
      for (std::size_t q = 1; q < r; ++q)
        load_twiddled(b, base + q * m, w[q], t[q]);
      butterfly<R>(t, r, b + 2 * L * base, m, roots, sign_);
    }
  }
}

void engine::bluestein(const double* a, double* b, double* work) const {
  double* u = work;
  double* uhat = work + 2 * bl_m_;
  std::fill_n(u, 2 * bl_m_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {  // u = a * chirp
    const double xr = a[2 * j], xi = a[2 * j + 1];
    const double cr = bl_chirp_[j].real(), ci = bl_chirp_[j].imag();
    u[2 * j] = xr * cr - xi * ci;
    u[2 * j + 1] = xr * ci + xi * cr;
  }
  bl_fwd_->run<1>(u, uhat, nullptr);
  for (std::size_t j = 0; j < bl_m_; ++j) {  // uhat *= bhat
    const double xr = uhat[2 * j], xi = uhat[2 * j + 1];
    const double hr = bl_bhat_[j].real(), hi = bl_bhat_[j].imag();
    uhat[2 * j] = xr * hr - xi * hi;
    uhat[2 * j + 1] = xr * hi + xi * hr;
  }
  bl_inv_->run<1>(uhat, u, nullptr);
  const double inv_m = 1.0 / static_cast<double>(bl_m_);
  for (std::size_t k = 0; k < n_; ++k) {  // b = (u / m) * chirp
    const double xr = u[2 * k] * inv_m, xi = u[2 * k + 1] * inv_m;
    const double cr = bl_chirp_[k].real(), ci = bl_chirp_[k].imag();
    b[2 * k] = xr * cr - xi * ci;
    b[2 * k + 1] = xr * ci + xi * cr;
  }
}

void engine::account(std::size_t count) const {
  if (n_ <= 1) return;
  // Per line: this transform plus, under Bluestein, its two inner ones.
  std::uint64_t flops = static_cast<std::uint64_t>(flops_);
  std::uint64_t bytes = n_ * sizeof(cplx);
  if (bluestein_) {
    flops += 2 * static_cast<std::uint64_t>(bl_fwd_->flops_);
    bytes += 2 * bl_m_ * sizeof(cplx);
  }
  counters::add_flops(flops * count);
  counters::add_read(bytes * count);
  counters::add_written(bytes * count);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// c2c_plan
// ---------------------------------------------------------------------------

c2c_plan::c2c_plan(std::size_t n, direction dir)
    : impl_(std::make_unique<detail::engine>(n, dir)) {}
c2c_plan::~c2c_plan() = default;
c2c_plan::c2c_plan(c2c_plan&&) noexcept = default;
c2c_plan& c2c_plan::operator=(c2c_plan&&) noexcept = default;

std::size_t c2c_plan::size() const { return impl_->size(); }
direction c2c_plan::dir() const { return impl_->dir(); }
double c2c_plan::flops_per_execute() const { return impl_->flops(); }

void c2c_plan::execute(const cplx* in, cplx* out) const {
  execute_many(in, 0, out, 0, 1);
}

void c2c_plan::execute_many(const cplx* in, std::size_t in_stride, cplx* out,
                            std::size_t out_stride, std::size_t count) const {
  const std::size_t n = impl_->size();
  detail::scratch_arena::scope sc(detail::scratch_arena::tls());
  execute_many(detail::strided_lines(sc, in, n, in_stride, count),
               detail::strided_lines(sc, out, n, out_stride, count), 0, count);
}

void c2c_plan::execute_many(const line_map<const cplx>& in,
                            const line_map<cplx>& out, std::size_t first,
                            std::size_t count) const {
  const std::size_t n = impl_->size();
  impl_->execute(
      first, count,
      [&](auto lanes, std::size_t line, double* a) {
        constexpr std::size_t L = decltype(lanes)::value;
        const detail::lanes<L> ln(in.rows, line);
        for (std::size_t j = 0; j < n; ++j)
          detail::gather(in, ln, j, a + 2 * L * j, a + 2 * L * j + L);
      },
      [&](auto lanes, std::size_t line, const double* b) {
        constexpr std::size_t L = decltype(lanes)::value;
        const detail::lanes<L> ln(out.rows, line);
        for (std::size_t j = 0; j < n; ++j)
          detail::scatter(out, ln, j, b + 2 * L * j, b + 2 * L * j + L);
      });
}

}  // namespace pcf::fft
