// Turbulent channel flow DNS (paper Sections 2 and 6).
//
// Incompressible Navier-Stokes in the Kim-Moin-Moser wall-normal
// velocity/vorticity formulation: Fourier-Galerkin in x and z, B-spline
// collocation in y, low-storage RK3 IMEX time advance (Spalart-Moser-Rogers
// 1991), 3/2-rule dealiased pseudo-spectral nonlinear terms, and the
// customized pencil transpose/FFT kernel for the spectral <-> physical
// moves.
//
// Nondimensionalization: channel half-width delta = 1, friction velocity
// u_tau = 1. The flow is driven by a constant mean pressure gradient
// dP/dx = -1, so nu = 1 / Re_tau and the statistically steady state has
// wall shear stress 1 by construction.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/operators.hpp"
#include "core/statistics.hpp"
#include "pencil/decomp.hpp"
#include "pencil/pencil.hpp"
#include "util/counters.hpp"
#include "vmpi/vmpi.hpp"

namespace pcf::core {

/// Upper bound on configured passive scalars. The nonlinear stage carries
/// the scalar fields in fixed-size pointer arrays so the hot loops stay
/// allocation-free; validate() enforces the bound.
inline constexpr std::size_t kMaxScalars = 8;

/// One passive scalar: advected by the resolved velocity field with
/// diffusivity kappa = 1 / (re_tau * prandtl) and Dirichlet wall values
/// theta(-1) = wall_lo, theta(+1) = wall_hi. The initial mean profile is
/// the linear conduction solution between the wall values.
struct scalar_spec {
  double prandtl = 1.0;
  double wall_lo = 0.0;
  double wall_hi = 0.0;
};

/// How the mean streamwise momentum is driven.
enum class forcing_mode {
  /// Constant mean pressure gradient -dP/dx = channel_config::forcing
  /// (the classical friction-units channel; F is a constant).
  pressure_gradient,
  /// Constant flow rate: every substep solves once without forcing, once
  /// for the forcing response, and picks F so the bulk velocity equals the
  /// target exactly (linearity of the mean Helmholtz solve). The applied F
  /// is an observable (channel_dns::current_forcing).
  flow_rate,
};

/// The scenario layer: wall boundary values, the forcing mode and the
/// passive-scalar list. The default-constructed value is the classical
/// constant-pressure-gradient Poiseuille channel, and a default scenario
/// leaves every code path and every checkpoint byte exactly as before.
struct scenario_config {
  // Streamwise / spanwise wall velocities: u(-1) = wall_u_lo, u(+1) =
  // wall_u_hi (plane Couette: wall_u_lo = -U_w, wall_u_hi = +U_w). The
  // walls are uniform in x and z, so moving walls live entirely in the
  // mean (0, 0) mode; fluctuations keep homogeneous no-slip conditions.
  double wall_u_lo = 0.0, wall_u_hi = 0.0;
  double wall_w_lo = 0.0, wall_w_hi = 0.0;

  forcing_mode forcing = forcing_mode::pressure_gradient;
  // flow_rate only: the bulk velocity to hold. <= 0 captures the bulk of
  // the state at the first advanced substep and holds that.
  double target_bulk = 0.0;

  std::vector<scalar_spec> scalars;

  [[nodiscard]] bool moving_walls() const {
    return wall_u_lo != 0.0 || wall_u_hi != 0.0 || wall_w_lo != 0.0 ||
           wall_w_hi != 0.0;
  }
  [[nodiscard]] bool constant_flow_rate() const {
    return forcing == forcing_mode::flow_rate;
  }
  [[nodiscard]] bool is_default() const {
    return !moving_walls() && !constant_flow_rate() && scalars.empty();
  }
};

struct channel_config {
  // Resolution: nx/nz Fourier modes (nx % 4 == 0, nz % 2 == 0), ny B-spline
  // basis functions of the given degree.
  std::size_t nx = 32;
  std::size_t nz = 32;
  int ny = 33;
  int degree = 7;
  double stretch = 2.0;  // tanh clustering of wall-normal breakpoints

  // Domain (channel half-width = 1). Defaults are the classical
  // Re_tau = 180 box of Kim-Moin-Moser / Moser-Kim-Mansour.
  double lx = 4.0 * 3.14159265358979323846;
  double lz = 4.0 * 3.14159265358979323846 / 3.0;

  double re_tau = 180.0;  // nu = 1 / re_tau
  double dt = 2e-4;       // fixed time step (friction units)
  double forcing = 1.0;   // mean pressure gradient -dP/dx (1 = friction units)

  // Decomposition layout (pencil::decomposition): the configured pencil
  // grid, a 1-D slab, a 2.5D slab-pencil hybrid, or `tuned` (measure the
  // valid candidates at construction and keep the fastest — implies the
  // transform autotuner). Slab and 2.5D resolve to a concrete pa/pb before
  // the Cartesian split, overriding the values below; all layouts are
  // bit-identical (the determinism suite pins all three to one CRC trace).
  pencil::decomposition decomposition = pencil::decomposition::pencil2d;
  // 2.5D replica-group size c (pa = c, pb = ranks / c); 0 picks the
  // smallest valid c >= 2.
  int replica_c = 0;

  // Process grid and on-node threading.
  int pa = 1;
  int pb = 1;
  int fft_threads = 1;
  int reorder_threads = 1;
  int advance_threads = 1;

  // Pencil-transform pipelining: > 1 overlaps the transpose exchanges of
  // one field group with the FFT/reorder of the previous group on a
  // dedicated comm thread (see pencil::kernel_config::pipeline_depth).
  int pipeline_depth = 1;

  // Widest multi-field batch one aggregated pencil exchange may carry
  // (pencil::kernel_config::max_batch). 5 fits the five nonlinear products
  // of an RK3 substep in one exchange per transpose stage; smaller values
  // chunk the batch and are bit-identical (the determinism suite pins F in
  // {1, 3, 5} to one CRC trace).
  int max_batch = 5;

  // Cache the factored Helmholtz/Poisson systems and influence vectors per
  // (wavenumber, substep). Exact same results; trades memory for the
  // repeated factorizations (ablation: bench_ablation_solver_cache).
  bool cache_solvers = true;

  // Lease the workspace lanes from the process-wide block pool
  // (pcf::block_pool::global()) instead of owning their slabs. Pooled
  // instances can suspend() — releasing every leased block back to the
  // pool for other simulations — and resume() onto possibly different
  // blocks with bit-identical physics. Allocation pattern aside, the two
  // regimes are byte-for-byte equivalent (the determinism-pooled preset
  // pins this).
  bool pooled_workspace = false;

  // Measure-and-pick autotuning of the transform kernel at construction
  // (pencil::autotune_transforms): {exchange strategy per communicator,
  // batch width <= max_batch, pipeline depth} are timed on this grid and
  // rank split, and the winner is written back into max_batch /
  // pipeline_depth / strategy_a / strategy_b before any workspace is
  // sized. Bit-identical physics for every choice (the determinism suite
  // pins this). `tuning_cache` persists winners across runs; empty
  // re-measures at every construction. A damaged or version-skewed cache
  // file falls back to measurement — it never aborts a run.
  bool autotune = false;
  std::string tuning_cache;

  // Exchange strategy per transpose communicator (CommA = z<->x, CommB =
  // y<->z). auto_plan defers to the kernel default (alltoall) or, with
  // `autotune`, to the measured winner.
  pencil::exchange_strategy strategy_a = pencil::exchange_strategy::auto_plan;
  pencil::exchange_strategy strategy_b = pencil::exchange_strategy::auto_plan;

  // Scenario layer: wall BC values, forcing mode, passive scalars. The
  // default is the classical channel and changes nothing.
  scenario_config scenario;

  /// Check every documented constraint (grid divisibility, ny/degree
  /// compatibility, positive physics parameters, scenario sanity) and
  /// throw a precondition_error naming the offending key. Called by the
  /// channel_dns constructor and the campaign job-file loader, so a bad
  /// config fails at the boundary with an actionable message instead of
  /// deep in the pencil/bspline layers.
  void validate() const;
};

/// One-dimensional energy spectra at one wall-normal location.
struct spectrum_data {
  std::vector<double> euu, evv, eww;  // indexed by wavenumber index
};

/// Section timings of one or more steps (the breakdown of Tables 9-10).
///
/// The flat fields are the legacy view; `phases` is the hierarchical
/// per-stage breakdown from the staged pipeline (step > nonlinear >
/// {velocities, to_physical, products, to_spectral, assemble}, implicit >
/// build, mean_flow, reduce). Parent rows include their children. The
/// flop/byte attribution is populated only on single-rank runs (counter
/// buckets are process-global and vmpi ranks share the process).
struct step_timings {
  struct phase_report {
    std::string name;
    int depth = 0;  // nesting level for display indentation
    double seconds = 0.0;
    long calls = 0;
    std::uint64_t flops = 0;
    std::uint64_t bytes = 0;  // read + written
  };

  double transpose = 0.0;  // communication + on-node reorder
  double fft = 0.0;
  double advance = 0.0;    // nonlinear assembly + implicit solves
  double total = 0.0;
  std::vector<phase_report> phases;

  /// Per-lane workspace high-water marks ("shared", "transform",
  /// "thread[i]"): capacity vs the deepest bytes ever checked out.
  struct lane_usage {
    std::string name;
    std::uint64_t capacity_bytes = 0;
    std::uint64_t peak_bytes = 0;
  };
  std::vector<lane_usage> workspace;
  bool pooled = false;  // lanes lease their slabs from the block pool
  /// Process-wide block-pool telemetry snapshot (all pools, live +
  /// retired); meaningful when any instance runs pooled.
  counters::pool_counts pool{};
};

/// One entry of a checkpoint's section table: a named payload, its size
/// and the CRC-32 of its bytes.
struct checkpoint_section {
  std::string name;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

class channel_dns {
 public:
  channel_dns(const channel_config& cfg, vmpi::communicator& world);
  ~channel_dns();
  channel_dns(const channel_dns&) = delete;
  channel_dns& operator=(const channel_dns&) = delete;

  [[nodiscard]] const channel_config& config() const;
  [[nodiscard]] const wall_normal_operators& operators() const;
  [[nodiscard]] const pencil::decomp& dec() const;

  /// Parabolic Poiseuille profile plus divergence-free perturbations of
  /// the given amplitude (fraction of the laminar centerline velocity) on
  /// the low Fourier modes. Deterministic for a given seed.
  void initialize(double perturbation, std::uint64_t seed = 1);

  /// Advance one full RK3 time step.
  void step();

  /// Change the time step (invalidates cached implicit solvers).
  void set_dt(double dt);

  // --- suspend / resume ------------------------------------------------------
  // A suspended simulation keeps its evolved state (fields, statistics,
  // time) but releases every workspace slab — pooled instances hand their
  // blocks back to the block pool for other simulations; owned instances
  // free to the OS — and drops the cached factored solver arenas. Any
  // state-touching call (step, diagnostics, checkpointing, ...) resumes
  // implicitly, re-leasing possibly different blocks; physics is
  // bit-identical across any number of suspend/resume cycles. Only legal
  // at a step boundary (always true from the public API; RK3 carries no
  // nonlinear history across steps).

  /// Release the workspace slabs and factored-solver storage. Idempotent.
  void suspend();
  /// Reacquire slabs and re-establish the permanent checkouts. Idempotent;
  /// also called implicitly by any state-touching entry point.
  void resume();
  [[nodiscard]] bool suspended() const;

  /// Adapt dt each step so the convective CFL tracks `target` (clamped to
  /// [dt_min, dt_max]); pass target <= 0 to disable. Uses the CFL of the
  /// previous step, so the controller lags by one step.
  void set_cfl_target(double target, double dt_min, double dt_max);

  [[nodiscard]] double time() const;
  [[nodiscard]] long step_count() const;
  [[nodiscard]] double dt() const;

  // --- diagnostics (collective calls) ------------------------------------
  /// Bulk (volume-averaged) streamwise velocity.
  double bulk_velocity();
  /// Volume-averaged kinetic energy 0.5 <u.u>.
  double kinetic_energy();
  /// Max |ikx u + dv/dy + ikz w| over modes and collocation points.
  double max_divergence();
  /// Convective CFL number of the last computed physical fields.
  [[nodiscard]] double cfl() const;
  /// Wall shear stress d<U>/dy * nu at the lower wall (should approach 1).
  double wall_shear_stress();
  /// Volume-averaged viscous dissipation nu <|grad u|^2>, computed
  /// spectrally. In a statistically steady state this balances the power
  /// input F * U_bulk; for laminar Poiseuille the balance is exact.
  double dissipation();

  // --- statistics ----------------------------------------------------------
  /// Sample the instantaneous velocity field into the running profiles.
  void accumulate_stats();
  [[nodiscard]] profile_data stats();
  void reset_stats();

  /// Copy the instantaneous physical velocity fields (x-pencil layout
  /// [z_local][y_local][x]) — for visualization (paper Figures 7-8).
  void physical_velocity(std::vector<double>& u, std::vector<double>& v,
                         std::vector<double>& w);

  /// Instantaneous spanwise vorticity omega_z = dv/dx - du/dy in physical
  /// space (same layout) — the quantity of paper Figure 8.
  void physical_vorticity_z(std::vector<double>& wz);

  /// Instantaneous 1-D energy spectra at collocation point y_index:
  /// E(kx) summed over kz (streamwise), indexed by the streamwise mode
  /// 0..nx/2-1. The conjugate (negative-kx) half is counted by the usual
  /// factor of two; the mean mode is excluded. Collective call.
  spectrum_data streamwise_spectra(int y_index);
  /// E(|kz|) summed over kx, indexed 0..nz/2.
  spectrum_data spanwise_spectra(int y_index);

  // --- state access ---------------------------------------------------------
  /// Mean streamwise velocity at the collocation points (valid on every
  /// rank; reduced internally).
  std::vector<double> mean_profile();
  /// Replace the mean streamwise profile (values at collocation points;
  /// must vanish at the walls). No-op on ranks not owning the mean mode.
  void set_mean_profile(const std::vector<double>& values_at_points);
  /// Spline coefficients of v-hat / omega-hat for global mode (jx, jz);
  /// empty if this rank does not own the mode.
  std::vector<std::complex<double>> mode_v(std::size_t jx, std::size_t jz);
  std::vector<std::complex<double>> mode_omega(std::size_t jx, std::size_t jz);

  // --- scenario observables -----------------------------------------------
  /// Number of configured passive scalars.
  [[nodiscard]] std::size_t num_scalars() const;
  /// Mean profile of scalar s at the collocation points (valid on every
  /// rank; reduced internally).
  std::vector<double> scalar_profile(std::size_t s);
  /// Replace the mean profile of scalar s (values at collocation points;
  /// the wall values are re-imposed by the next substep's BC rows). No-op
  /// on ranks not owning the mean mode.
  void set_scalar_profile(std::size_t s, const std::vector<double>& values);
  /// Wall flux kappa d<theta>/dy of scalar s at the lower wall.
  double scalar_wall_flux(std::size_t s);
  /// Spline coefficients of theta-hat for global mode (jx, jz); empty if
  /// this rank does not own the mode.
  std::vector<std::complex<double>> mode_scalar(std::size_t s, std::size_t jx,
                                                std::size_t jz);
  /// The mean streamwise forcing in effect: the configured constant for
  /// pressure-gradient driving; under constant flow rate, the F applied at
  /// the last advanced substep (0 before the first step). Collective.
  double current_forcing();
  /// The resolved flow-rate target bulk velocity (0 until captured /
  /// when pressure-gradient driven). Collective.
  double flow_rate_target();

  // --- checkpointing ---------------------------------------------------------
  /// Save the evolved state to one decomposition-independent file (call at
  /// a step boundary; RK3 carries no nonlinear history across steps). Every
  /// rank writes its own mode lines at their global offsets, MPI-IO style,
  /// so no rank holds more than its local state, and the file restarts on
  /// any process grid of the same spectral resolution. The write is
  /// crash-safe (temp file + atomic rename: an interrupted save never
  /// damages the previous checkpoint), every section carries a CRC-32,
  /// and the dt controller's state rides along. Collective.
  void save_checkpoint(const std::string& path) const;
  /// Restore a save_checkpoint file onto this instance's process grid,
  /// verifying every section checksum first; truncation, trailing bytes
  /// and corruption are rejected with an error naming the section.
  /// Collective.
  void load_checkpoint(const std::string& path);

  /// The section table save_checkpoint would write for the current state,
  /// computed in memory (no file is touched): section names in file order
  /// with their payload sizes and CRC-32s. Identical on every rank for
  /// every decomposition. Collective.
  [[nodiscard]] std::vector<checkpoint_section> checkpoint_sections() const;

  // --- performance ----------------------------------------------------------
  [[nodiscard]] step_timings timings() const;
  void reset_timings();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace pcf::core
