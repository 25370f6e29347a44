// Shared context of the staged RK3 substep pipeline.
//
// The simulation advances one step as an explicit sequence of stages
// (paper steps (a)-(j), Section 2.1):
//
//   nonlinear_stage   spectral velocities -> physical batch -> quadratic
//                     products (+ CFL) -> spectral batch -> KMM h_v / h_g
//   implicit_stage    per-mode omega / phi / v arena solves
//   mean_flow_stage   the (0, 0) mean U / W advance
//   diagnostics_stage CFL reduction, adaptive dt, timing report
//
// Every stage consumes the same stage_context: immutable grid/wavenumber
// tables (mode_tables), the evolved + work fields (field_state), the
// preallocated scratch arena (field_workspace) and the per-stage phase
// timer. Stages are independently constructible against a hand-built
// context, which is how the per-stage unit tests drive them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/operators.hpp"
#include "core/simulation.hpp"
#include "pencil/autotune.hpp"
#include "pencil/pencil.hpp"
#include "util/aligned.hpp"
#include "util/phase_timer.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"
#include "vmpi/vmpi.hpp"

namespace pcf::core {

/// Spalart-Moser-Rogers (1991) low-storage RK3 IMEX coefficients.
/// Substep i: [I - beta_i dt nu L] x = [I + alpha_i dt nu L] x + dt
/// (gamma_i N + zeta_i N_prev), L = D^2 - k^2. zeta_1 = 0, so no nonlinear
/// history is carried across full steps.
namespace rk3 {
inline constexpr double kAlpha[3] = {29.0 / 96.0, -3.0 / 40.0, 1.0 / 6.0};
inline constexpr double kBeta[3] = {37.0 / 160.0, 5.0 / 24.0, 1.0 / 6.0};
inline constexpr double kGamma[3] = {8.0 / 15.0, 5.0 / 12.0, 3.0 / 4.0};
inline constexpr double kZeta[3] = {0.0, -17.0 / 60.0, -5.0 / 12.0};
}  // namespace rk3

/// Pencil-kernel configuration for the DNS: batch wide enough for the five
/// nonlinear products of an RK3 substep to ride one aggregated exchange
/// per transpose stage, with pipelining taken from the run configuration.
[[nodiscard]] pencil::kernel_config dns_kernel_config(
    const channel_config& c);

/// The tuning-cache key a DNS of configuration `c` measures under on
/// `ranks` ranks — what tests pre-seed and tools inspect. Derived from the
/// *configured* split and batch ceiling, not tuner-resolved ones.
[[nodiscard]] pencil::tune_key dns_tune_key(const channel_config& c,
                                            int ranks);

/// If c.autotune is set, run pencil::autotune_transforms over `world`
/// (collective) and write the chosen split (c.pa x c.pb; measured when
/// both are 0), batch width and pipeline depth back into `c`; otherwise a
/// no-op. Must run before the Cartesian split is
/// made and before dns_workspace_sizes() sizes the transform lane.
channel_config& resolve_tuning(channel_config& c, vmpi::communicator& world);

/// Per-rank wavenumber tables, fixed for the simulation's lifetime.
struct mode_tables {
  std::size_t n = 0;       // wall-normal points
  std::size_t nmodes = 0;  // local (kx, kz) pairs
  bool has_mean = false;   // this rank owns the (0, 0) mode
  std::size_t mean_idx = 0;

  std::vector<double> kx, kz;  // local wavenumber values
  // Mean mode + spanwise Nyquist modes. uint8_t, not vector<bool>: the
  // per-mode hot loops index it every iteration and the packed bitset's
  // proxy reference is slower and non-addressable.
  std::vector<std::uint8_t> skip;
  // Per-mode kx^2 + kz^2. A zero does double duty: it marks a skipped
  // mode (mean / Nyquist), and downstream solver_arena::build leaves the
  // slot inactive for exactly those modes.
  std::vector<double> k2s;
};

/// Build the tables from the configuration and this rank's decomposition.
[[nodiscard]] mode_tables make_mode_tables(const channel_config& c,
                                           const pencil::decomp& d);

/// Evolved state plus the transform-sized work fields every stage reads or
/// writes. Large fields own their storage (they are the simulation's
/// footprint, not scratch); the substep-lifetime mean forcings hU/hW are
/// permanent checkouts on the workspace's shared lane.
struct field_state {
  /// Allocates every field; hU/hW come out of ws.shared() (permanent).
  /// nscalars adds one scalar_state per configured passive scalar (the
  /// default keeps the velocity-only layout and footprint).
  field_state(const mode_tables& modes, std::size_t phys_elems,
              field_workspace& ws, std::size_t nscalars = 0);

  /// Re-check hU/hW out of the (freshly reacquired) shared lane after a
  /// workspace release/reacquire cycle. hU/hW are contents-dead at step
  /// boundaries — the nonlinear stage zero-fills and rewrites them every
  /// substep before anything reads them — so only the pointers need
  /// re-establishing; they are zero-filled anyway for definedness. Must be
  /// the FIRST shared-lane checkout after reacquire (construction order).
  void rebind_workspace(field_workspace& ws);

  std::size_t n = 0;  // line length (= modes.n)

  // Evolved state (spline coefficients, one length-n line per local mode).
  aligned_buffer<cplx> c_v, c_om, c_phi;
  aligned_buffer<cplx> hv_prev, hg_prev;
  std::vector<double> c_U, c_W, hU_prev, hW_prev;

  // Work fields.
  aligned_buffer<cplx> u_s, v_s, w_s;         // spectral velocities (points)
  aligned_buffer<cplx> q1, q2, q3, q4, q5;    // spectral products (points)
  aligned_buffer<double> u_p, v_p, w_p;       // physical velocities
  aligned_buffer<double> f1, f2, f3, f4, f5;  // physical products

  // Mean nonlinear forcing of the current substep (length n each).
  double* hU = nullptr;
  double* hW = nullptr;

  /// One passive scalar's evolved state and work fields. The scalar rides
  /// the same pipeline as the velocities: th_s carries theta-hat at the
  /// collocation points into the batched physical transform and is
  /// overwritten with the nonlinear right-hand side h_theta by the
  /// assembly (mirroring how h_v / h_g reuse u_s / v_s).
  struct scalar_state {
    aligned_buffer<cplx> c_th;      // evolved fluctuation coefficients
    aligned_buffer<cplx> hth_prev;  // nonlinear history
    aligned_buffer<cplx> th_s;      // theta at points; h_theta after assemble
    aligned_buffer<cplx> qu, qv, qw;    // spectral products u/v/w * theta
    aligned_buffer<double> th_p;        // physical scalar
    aligned_buffer<double> gu, gv, gw;  // physical products
    // Mean profile coefficients, nonlinear history, and the current
    // substep's mean forcing (plain vectors: tiny, serial, suspend-safe).
    std::vector<double> c_T, hT_prev, hT;
  };
  std::vector<scalar_state> scalars;

  double cfl_local = 0.0, cfl_global = 0.0;

  /// Zero the evolved state and nonlinear histories. The mean-mode
  /// histories must be cleared too: the RK3 zeta weight is zero on the
  /// first substep, but 0 * NaN from a contaminated previous state would
  /// still poison a restored run.
  void zero();

  [[nodiscard]] cplx* line(aligned_buffer<cplx>& b, std::size_t m) const {
    return b.data() + m * n;
  }
  [[nodiscard]] const cplx* line(const aligned_buffer<cplx>& b,
                                 std::size_t m) const {
    return b.data() + m * n;
  }
};

/// Everything a stage needs, by reference; the simulation (or a test
/// harness) owns the referents. cfg is live — dt changes made by the
/// adaptive controller are visible to the stages on the next substep.
struct stage_context {
  const channel_config& cfg;
  const pencil::decomp& d;
  const wall_normal_operators& ops;
  pencil::parallel_fft& pf;
  thread_pool& pool;
  vmpi::communicator& world;
  const mode_tables& modes;
  field_state& state;
  field_workspace& ws;
  phase_timer& timers;
};

/// Workspace capacities for a DNS of this configuration/decomposition:
/// sized for the deepest transient user of each lane (see the .cpp for the
/// inventory) plus per-checkout alignment slack.
[[nodiscard]] field_workspace::sizes dns_workspace_sizes(
    const channel_config& c, const pencil::decomp& d);

}  // namespace pcf::core
