// Complex products written out part by part.
#pragma once

#include <complex>

namespace pcf::core {

/// (ar + i ai) * b written out in GCC's order for a complex product
/// (re = ar*br - ai*bi, im = ar*bi + ai*br), keeping the terms a zero ar or
/// ai contributes. These are the bits of std::complex's operator* whenever
/// its result is not NaN in both parts, without the __muldc3 call that
/// checks for that case. Products of a real and a complex value stay
/// std::complex expressions: they are already part by part.
inline std::complex<double> cmul(double ar, double ai, std::complex<double> b) {
  return {ar * b.real() - ai * b.imag(), ar * b.imag() + ai * b.real()};
}

}  // namespace pcf::core
