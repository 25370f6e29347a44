// Per-wavenumber implicit solves of the KMM formulation.
//
// Each RK substep, for each Fourier mode (kx, kz) != (0, 0), three banded
// two-point boundary value problems are solved (paper Section 2.1):
//
//   [A0 - b nu dt (A2 - k2 A0)] c_omega = R_omega,   omega(+-1) = 0
//   [A0 - b nu dt (A2 - k2 A0)] c_phi   = R_phi,     phi BCs via influence
//   [A2 - k2 A0] c_v = phi(points),                  v(+-1) = 0
//
// The no-slip conditions v'(+-1) = 0 cannot be imposed on the second-order
// phi system directly; the classical influence (Green's function) matrix
// method is used: two homogeneous Helmholtz solutions with unit wall values
// of phi are combined with the particular solution so that v' vanishes at
// both walls.
//
// The factored operators live in mode-blocked arenas. The active modes
// (k2 > 0), in mode order, form blocks of kModeBlock; each block's bands
// are interleaved lane-innermost (banded::interleave_band), so one band
// pass of banded::solve_interleaved solves every mode of the block. A short
// last block is padded with copies of its first mode, computed but never
// written back. advance() runs one block of a substep: the explicit side
// through A0/A2 panels, the Helmholtz pass, and for the velocity the
// Poisson recovery of v with the influence correction.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "core/operators.hpp"

namespace pcf {
class thread_pool;
}

namespace pcf::core {

/// Explicit side of one RK3 substep for advance():
///   rhs = [A0 + ca (A2 - k2 A0)] c + g h + z h_prev.
struct substep_weights {
  double ca = 0.0;  // alpha_i * diffusivity * dt
  double g = 0.0;   // gamma_i * dt, weight of this substep's nonlinear term
  double z = 0.0;   // zeta_i * dt, weight of the previous substep's
};

/// One evolved field's lines for advance(); line m of each array starts at
/// m * n.
struct field_lines {
  cplx* c = nullptr;        // spline coefficients: state in, solution out
  const cplx* h = nullptr;  // this substep's nonlinear term
  cplx* h_prev = nullptr;   // history: read, then overwritten with h
};

/// Complex entries of per-thread scratch that one advance() over `fields`
/// fields of n-point lines needs: three panels of kModeBlock * fields
/// lines. The velocity advance counts as 2 fields (omega and phi).
constexpr std::size_t advance_scratch(std::size_t n, std::size_t fields) {
  return 3 * kModeBlock * fields * n;
}

/// The active mode slots of a k2 table (k2 > 0) in mode order, cut into
/// blocks of kModeBlock; only the last block may be short.
class mode_blocks {
 public:
  void assign(const std::vector<double>& k2s);
  void clear();

  [[nodiscard]] std::size_t count() const {
    return (active_ + kModeBlock - 1) / kModeBlock;
  }
  /// Mode slots of block b's kModeBlock lanes; the padding lanes of a
  /// short block repeat its first mode.
  [[nodiscard]] const std::size_t* ids(std::size_t b) const {
    return ids_.data() + b * kModeBlock;
  }
  /// How many lanes of block b are real modes.
  [[nodiscard]] std::size_t live(std::size_t b) const {
    return std::min(kModeBlock, active_ - b * kModeBlock);
  }
  [[nodiscard]] const std::vector<double>& k2s() const { return k2s_; }
  [[nodiscard]] bool active(int m) const {
    return m >= 0 && static_cast<std::size_t>(m) < k2s_.size() &&
           k2s_[static_cast<std::size_t>(m)] > 0.0;
  }

 private:
  std::vector<double> k2s_;       // the table the blocks were cut from
  std::vector<std::size_t> ids_;  // active slots in mode order, padded
  std::size_t active_ = 0;
};

/// Factored velocity solvers for every active mode of a k2 table, for one
/// or more implicit coefficients c_s = beta_s * nu * dt. One slab holds:
///   - ONE Poisson section (A2 - k2 A0): it depends only on k2, so every
///     coefficient shares it;
///   - one section per coefficient: the Helmholtz bands, the influence
///     solutions phi1/phi2 and v1/v2, and the inverted 2x2 influence matrix.
/// Every section is mode-blocked and lane-interleaved: within a block,
/// band entry e of mode lane r is at [e * 8 + r], influence solution q at
/// row i at [(i * 2 + q) * 8 + r], and minv entry (l, q) at
/// [(2 l + q) * 8 + r].
///
/// Lifetime: build() with the same operators and k2 table keeps a built
/// Poisson section and rebuilds only the coefficient sections (a dt
/// change); invalidate() drops those and keeps the Poisson section;
/// reset() frees the slab (the suspend path). Storage is reallocated only
/// when the shape changes.
class solver_arena {
 public:
  solver_arena() = default;

  /// One-coefficient build: the Poisson section plus one coefficient
  /// section.
  void build(const wall_normal_operators& ops, double c,
             const std::vector<double>& k2s, thread_pool& pool) {
    build(ops, std::span<const double>(&c, 1), k2s, pool);
  }

  /// Build (or rebuild) one coefficient section per entry of cs over the
  /// active slots of k2s. Factorization and the blocked influence solves
  /// run block-parallel on pool.
  void build(const wall_normal_operators& ops, std::span<const double> cs,
             const std::vector<double>& k2s, thread_pool& pool);

  /// Forget the coefficient sections (a dt change); the Poisson section
  /// and all storage are kept for the next build().
  void invalidate() { built_ = false; }

  /// Forget everything AND free the slab: a parked run should not pin its
  /// factored bands. The next build() repopulates every section,
  /// bit-identical to a cold build.
  void reset();

  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] int sections() const { return static_cast<int>(cs_.size()); }
  [[nodiscard]] double coeff(int s) const {
    return cs_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool active(int m) const {
    return built_ && blocks_.active(m);
  }
  [[nodiscard]] std::size_t blocks() const { return blocks_.count(); }
  [[nodiscard]] std::size_t storage_bytes() const {
    return slab_.size() * sizeof(double);
  }

  /// Advance mode block b through the substep of coefficient section s:
  /// omega and phi (om.c, phi.c) go through one Helmholtz pass of 4 lanes
  /// per mode, then v (c_v) through one Poisson pass of 2 lanes per mode
  /// and the influence correction. Each mode's bits equal those of a
  /// per-mode solve with its own bands. scratch holds
  /// advance_scratch(n, 2) complex entries.
  void advance(int s, std::size_t b, const substep_weights& w,
               const field_lines& om, const field_lines& phi, cplx* c_v,
               cplx* scratch) const;

 private:
  // Slab offsets: block b's Poisson bands, and its record (Helmholtz
  // bands, phi12, v12, minv) in coefficient section s.
  [[nodiscard]] std::size_t record() const;
  [[nodiscard]] std::size_t pois_at(std::size_t b) const;
  [[nodiscard]] std::size_t section_at(std::size_t s, std::size_t b) const;

  const wall_normal_operators* ops_ = nullptr;
  int n_ = 0, h_ = 0;
  mode_blocks blocks_;
  std::vector<double> cs_;
  // [Poisson bands of every block | per coefficient: per block the
  // Helmholtz bands, phi12, v12, minv].
  std::vector<double> slab_;
  bool pois_built_ = false;
  bool built_ = false;
};

/// Factored scalar Helmholtz operators for one diffusive coefficient
/// beta_i * kappa * dt, in solver_arena's blocked layout. Passive-scalar
/// transport needs only the Dirichlet Helmholtz solve (no influence
/// correction, no Poisson recovery), so the slab holds just the bands.
/// Same lifetime rules as solver_arena.
class scalar_arena {
 public:
  scalar_arena() = default;

  /// Build (or rebuild) over the active slots of k2s; factorization runs
  /// block-parallel on pool.
  void build(const wall_normal_operators& ops, double c,
             const std::vector<double>& k2s, thread_pool& pool);

  /// Forget the built contents (storage is kept for the next build()).
  void invalidate() { built_ = false; }

  /// Forget the contents AND free the slab (the suspend path).
  void reset();

  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] double coeff() const { return c_; }
  [[nodiscard]] std::size_t blocks() const { return blocks_.count(); }

  /// Advance `count` scalars that share this diffusivity over mode block b
  /// (homogeneous Dirichlet walls: wall values live in the mean): one band
  /// pass of 2 * count lanes per mode. scratch holds
  /// advance_scratch(n, count) complex entries.
  void advance(std::size_t b, const substep_weights& w, const field_lines* f,
               std::size_t count, cplx* scratch) const;

 private:
  const wall_normal_operators* ops_ = nullptr;
  double c_ = 0.0;
  int n_ = 0, h_ = 0;
  mode_blocks blocks_;
  std::vector<double> slab_;
  bool built_ = false;
};

}  // namespace pcf::core
