// Multi-tenant campaign server: N independent channel simulations
// time-sliced over ONE shared worker pool under a bounded memory budget.
//
// A parameter sweep (Re_tau, grid, forcing, dt policy) is a set of small
// independent DNS runs, and running them back to back wastes exactly what
// this repo already knows how to share: the block pool recycles workspace
// between suspended tenants (PR 8), FFT plans are immutable and shareable
// (fft/plan_cache.hpp), the tuning memo publishes one measurement to every
// identical config (pencil/autotune.hpp), and a checkpoint restarts
// bit-identically, dt controller included (core/simulation.hpp). The
// campaign server composes those pieces:
//
//   * Each job is a TENANT: a single-rank vmpi world plus a channel_dns,
//     advanced in SLICES of K steps. Between slices the tenant suspends,
//     handing its workspace blocks back to the pool for whoever runs next.
//   * Slices are tasks on a shared util::thread_pool whose queue is
//     priority-aware and tenant-fair (higher priority first; round-robin
//     across tenants within a priority), so a 64-run sweep makes steady
//     progress everywhere instead of head-of-line blocking.
//   * When residency pressure exceeds the budget (live instances or pool
//     bytes), the COLDEST suspended tenant is EVICTED: its state spills to
//     a checkpoint (the single-file format, on the tenant's 1-rank
//     world, written without resuming the suspended instance) and the
//     instance is destroyed. Its next slice readmits it — reconstruct +
//     load_checkpoint, which also restores the adaptive dt — and the
//     restart-continuation contract makes the evicted run's trace
//     bit-identical to a never-evicted one.
//   * Physics is untouched by all of this: scheduling order, slice width,
//     eviction and cache sharing are data-movement choices, and the
//     campaign determinism suite pins every run's per-step fingerprint to
//     its solo execution.
//
// Cancellation drops a tenant's queued slices immediately and stops an
// in-flight slice at the next step boundary. A failed tenant (an exception
// out of its slice) records the error and never poisons its neighbours.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace pcf::campaign {

/// One sweep member: a named channel configuration plus how far to run it.
struct job_spec {
  std::string name;             // report label (unique names recommended)
  core::channel_config config;  // physics + resolution (pa/pb forced to 1)
  long steps = 0;               // total steps to advance
  int priority = 0;             // higher is scheduled first
  double perturbation = 1e-3;   // initialize() amplitude
  std::uint64_t seed = 1;       // initialize() seed
  // dt policy: a positive cfl_target enables the adaptive-dt controller
  // (set_cfl_target) with dt clamped to [dt_min, dt_max].
  double cfl_target = 0.0;
  double dt_min = 0.0;
  double dt_max = 0.0;
  int stats_every = 0;  // accumulate_stats() every N steps (0: never)
};

enum class job_state {
  queued,     // never run yet
  running,    // a worker is inside one of its slices
  suspended,  // between slices, workspace released, instance resident
  evicted,    // spilled to checkpoint, instance destroyed
  done,       // reached steps
  cancelled,  // cancel() before completion
  failed,     // its slice threw; see job_status::error
};

[[nodiscard]] const char* to_string(job_state s);

/// Public snapshot of one tenant.
struct job_status {
  std::uint64_t id = 0;
  std::string name;
  job_state state = job_state::queued;
  long steps_done = 0;
  long steps_total = 0;
  int priority = 0;
  int evictions = 0;   // times this run was spilled
  double time = 0.0;   // simulation time reached
  std::string error;   // failed only
};

/// One per-slice diagnostics sample of one run (collect_series).
struct series_sample {
  long step = 0;
  double time = 0.0;
  double bulk = 0.0;    // bulk velocity
  double energy = 0.0;  // volume-averaged kinetic energy
  double cfl = 0.0;
};

struct campaign_config {
  int workers = 2;       // shared pool width (>= 1)
  int slice_steps = 16;  // steps per scheduling slice (>= 1)
  /// Residency caps; 0 disables that cap. Eviction needs a spill_dir.
  int max_resident = 0;  // live channel_dns instances
  std::uint64_t memory_budget_bytes = 0;  // global block-pool occupancy
  std::string spill_dir;  // eviction checkpoints live here
  /// Shared tuning-cache file applied to jobs that autotune without one.
  std::string tuning_cache;
  bool collect_series = false;  // per-slice series_sample recording
};

/// End-of-campaign accounting (also the live status() totals).
struct campaign_report {
  std::vector<job_status> jobs;
  long total_steps = 0;
  std::uint64_t evictions = 0;
  std::uint64_t readmissions = 0;
  double elapsed_s = 0.0;
  /// Block-pool occupancy high-water over the campaign, in bytes
  /// (blocks_peak * block_bytes of the global pool).
  std::uint64_t pool_peak_bytes = 0;
  /// Campaign-attributable deltas of the shared-cache counters.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t tuning_memo_hits = 0;
  std::uint64_t tuning_memo_misses = 0;
  /// Blocks the campaign's workers left leased or parked after every
  /// tenant settled and the pool's threads were joined. The zero-stranded
  /// invariant: always 0 (worker-exit hooks flush per-thread caches).
  std::uint64_t stranded_blocks = 0;
};

class campaign_server {
 public:
  explicit campaign_server(campaign_config cfg);
  ~campaign_server();
  campaign_server(const campaign_server&) = delete;
  campaign_server& operator=(const campaign_server&) = delete;

  /// Add a job (before or during run()). Returns its id.
  std::uint64_t enqueue(job_spec spec);

  /// Cancel a job: queued slices are dropped now, an in-flight slice
  /// stops at its next step boundary. False if the id is unknown or the
  /// job already settled.
  bool cancel(std::uint64_t id);

  /// Observer invoked after every step of every run, from the worker
  /// thread driving it, with the tenant's instance resident and resumed —
  /// the determinism suite fingerprints each step through this. Set
  /// before run(); keep it cheap, it serializes that tenant's slice.
  void set_step_observer(
      std::function<void(std::uint64_t id, core::channel_dns& dns)> obs);

  /// Drive every enqueued job to a settled state (done, cancelled or
  /// failed) over the shared pool; blocks until the campaign is drained
  /// and the workers joined. One campaign per server: a second call
  /// throws.
  campaign_report run();

  /// Live snapshot (thread-safe, callable during run() from outside).
  [[nodiscard]] std::vector<job_status> status() const;

  /// Per-slice diagnostics of one run (collect_series; valid after run()).
  [[nodiscard]] const std::vector<series_sample>& series(
      std::uint64_t id) const;

  /// Human-readable live status: one line per job plus the pool/cache
  /// telemetry line the campaign_runner prints while polling.
  [[nodiscard]] std::string status_report() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace pcf::campaign
