// Process-grid splits: every layout of the transpose kernel is a split.
//
// The kernel runs on a P_A x P_B process grid and pays one global
// exchange per grid dimension of size > 1 (paper Section 2.2). The
// comm-avoiding layouts of Diez-Peeters-Costa (arXiv:2502.06296) are
// shapes of that grid, not separate code paths:
//
//   pencil  P_A x P_B. Two global exchange stages per transform direction
//           (y<->z over CommB, z<->x over CommA).
//   slab    1 x R. CommA has one rank, so the z<->x stage needs no
//           communication at all — the kernel forwards the packed buffer
//           straight into the unpack. One global exchange per direction.
//   2.5D    c x (R/c) with a small replica count c: the y<->z exchange
//           shrinks to radix R/c inside each of the c slab groups (CommB)
//           and the second global exchange becomes one small radix-c
//           intra-group exchange (CommA — on a GPU node, an NVLink-island
//           exchange).
//
// Every split reuses the identical pack/exchange/unpack/FFT machinery of
// parallel_fft and is bit-identical to every other (the skipped exchanges
// are pure copies). A split whose blocks come out empty on some rank is
// legal and still bit-identical; split_valid only keeps such splits out
// of the tuner's candidate set.
#pragma once

#include <vector>

#include "pencil/pencil.hpp"

namespace pcf::pencil {

/// A P_A x P_B process grid.
struct process_split {
  int pa = 1;
  int pb = 1;

  friend bool operator==(const process_split&, const process_split&) =
      default;
};

/// True when pa x pb leaves every rank a nonempty block: pa <= min(nx/2,
/// nz) (the x-mode and padded-z extents are split over P_A) and pb <=
/// min(ny, nz) (the y and z extents are split over P_B).
[[nodiscard]] bool split_valid(const grid& g, int pa, int pb);

/// Near-square default pencil split: pa is the largest divisor of `ranks`
/// with pa <= pb. Used when a run asks the tuner to measure the split (the
/// config then carries pa = pb = 0).
void default_pencil_grid(int ranks, int& pa, int& pb);

/// The splits the tuner times at this rank count, in a fixed order:
///   0. pa x pb, or the near-square default when it does not cover the
///      ranks (always present, never filtered);
///   1. the slab 1 x R;
///   2. the 2.5D c x R/c with the smallest valid c >= 2 (the smallest
///      intra-group exchange);
///   3. its double 2c x R/2c (a NUMA/NVLink-island-sized group).
/// Splits 1-3 appear only when split_valid and distinct from split 0.
[[nodiscard]] std::vector<process_split> split_candidates(const grid& g,
                                                          int ranks, int pa,
                                                          int pb);

}  // namespace pcf::pencil
