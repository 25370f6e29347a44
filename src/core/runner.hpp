// Production-run orchestration (paper Section 6).
//
// The paper's science campaign runs ~13 flow-throughs (~650,000 steps) in
// checkpointed segments, discarding the transient before accumulating
// statistics. This runner packages that workflow: it advances the DNS in
// segments, samples statistics on a cadence after a warmup time, writes
// rotated crash-safe checkpoints, records a time series of the global
// diagnostics, and can stop on a wall-clock budget.
//
// Recovery policy: checkpoints rotate through numbered generations
// (single files `<prefix>.g<step>`, newest `checkpoint_keep` kept), so a
// corrupt or torn file never leaves the campaign without a restart point —
// the loader falls back to the newest generation that verifies and whose
// restored state is finite. If the integration blows up (non-finite
// energy), the runner writes a diagnostic report (including the vmpi
// communication statistics) and, when `max_blowup_retries` allows, restores
// the newest good generation with the time step scaled by
// `retry_dt_factor` before continuing.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace pcf::core {

struct run_plan {
  double flow_throughs = 1.0;    // run length in bulk flow-through times
  double warmup_fraction = 0.5;  // fraction of the run before statistics
  long stats_every = 10;         // steps between statistics samples
  long diag_every = 50;          // steps between diagnostics records
  long checkpoint_every = 0;     // steps between checkpoints (0 = none)
  std::string checkpoint_path;   // prefix; ".g<step>" is appended
  int checkpoint_keep = 2;       // rotated generations to keep (>= 1)
  double max_seconds = 0.0;      // wall-clock budget (0 = unlimited)
  bool stop_on_nonfinite = true;  // halt if the energy goes non-finite

  // Blow-up recovery: restore the newest good checkpoint generation with a
  // reduced time step, at most `max_blowup_retries` times per campaign
  // (0 = report and halt, the pre-recovery behavior).
  int max_blowup_retries = 0;
  double retry_dt_factor = 0.5;  // dt multiplier applied on each retry
  std::string report_path;  // blow-up report ("" -> <checkpoint_path>.blowup.txt)

  // Per-stage timing windows: every `timings_every` steps (0 = never) the
  // runner hands the step_timings accumulated over the window (including
  // the hierarchical phase rows) to `on_timings` and resets the timers, so
  // long campaigns get a rolling per-stage breakdown instead of one
  // end-of-run aggregate.
  long timings_every = 0;
  std::function<void(const step_timings&)> on_timings;
};

/// One row of the diagnostics time series.
struct diag_sample {
  long step = 0;
  double time = 0.0;
  double bulk_velocity = 0.0;
  double kinetic_energy = 0.0;
  double wall_shear = 0.0;
  double cfl = 0.0;
};

struct run_report {
  long steps_run = 0;
  bool hit_time_budget = false;
  bool went_nonfinite = false;  // simulation blew up and was halted
  long checkpoints_written = 0;
  long blowup_recoveries = 0;   // successful restore-with-reduced-dt cycles
  long restored_generation = -1;  // newest generation restored from (-1: none)
  bool wrote_report = false;    // a blow-up report was written
  std::vector<diag_sample> series;
  profile_data profiles;   // accumulated statistics (may be empty)
};

/// Estimate the flow-through time Lx / U_bulk from the current state.
double flow_through_time(channel_dns& dns);

/// Restore the newest checkpoint generation under `prefix` that loads
/// cleanly (atomic rename means a generation either exists complete
/// or not at all, and the per-section CRCs reject silent corruption) and
/// whose restored energy is finite. Returns the generation number, or -1
/// if no generation is usable (the DNS state is then unspecified).
/// Collective.
long restore_newest_generation(channel_dns& dns, vmpi::communicator& world,
                               const std::string& prefix);

/// Restore the newest good generation if any rotated checkpoint exists
/// under `prefix`, otherwise initialize(perturbation, seed). Returns the
/// restored generation, or -1 for a fresh start. Collective.
long resume_or_initialize(channel_dns& dns, vmpi::communicator& world,
                          const std::string& prefix, double perturbation,
                          std::uint64_t seed = 1);

/// Execute the plan. `on_diag` (optional) is called with each diagnostics
/// sample as it is recorded (for logging). Collective.
run_report run_campaign(channel_dns& dns, vmpi::communicator& world,
                        const run_plan& plan,
                        const std::function<void(const diag_sample&)>& on_diag = {});

/// Write the diagnostics series as CSV.
void write_series_csv(const std::string& path,
                      const std::vector<diag_sample>& series);

}  // namespace pcf::core
