// Measured autotuning of the pencil transform kernel.
//
// The paper's kernel leans on FFTW 3.3's transpose planner, which times
// candidate exchange implementations at plan time and keeps the fastest
// (Section 4.3). This module is that planner, extended to the whole knob
// set the batched kernel exposes: {exchange strategy per communicator,
// batch width F, pipeline depth}, each measured on the 3-down + 5-up field
// workload an RK3 substage actually runs. Timings are max-reduced across
// all ranks before the (deterministic) argmin, so every rank picks the
// same configuration.
//
// Winners persist in a small versioned on-disk cache keyed by (grid,
// rank split, thread counts, batch ceiling, kernel flags). The cache is
// strictly advisory: a missing, truncated, CRC-mismatched or
// version-skewed file falls back to re-measurement with a warning — it
// can never abort a run. Writes go through io::atomic_file_writer, so a
// crash mid-store leaves the previous cache intact (and the store path
// honours io::fault_policy, which is how the fault tests drive it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pencil/decomp.hpp"
#include "pencil/pencil.hpp"
#include "vmpi/vmpi.hpp"

namespace pcf::pencil {

/// Identity of one tuning measurement. Every field that changes the
/// measured exchange/compute shape is part of the key; a config change
/// therefore *invalidates* by missing, never by staleness.
struct tune_key {
  std::uint32_t nx = 0, ny = 0, nz = 0;  // spectral grid
  std::uint32_t pa = 0, pb = 0;          // process grid
  std::uint32_t fft_threads = 1;
  std::uint32_t reorder_threads = 1;
  std::uint32_t max_batch = 1;  // ceiling the tuner searches under
  std::uint32_t flags = 0;      // bit 0: drop_nyquist, bit 1: dealias
  // Requested decomposition layout (cache format v2): the decomposition
  // enum's value, and the configured 2.5D replica count (0 = automatic).
  // Transform-tuning entries use the defaults; decomposition-tuning
  // entries key under decomposition::tuned.
  std::uint32_t decomp_kind = 0;
  std::uint32_t replica_c = 0;

  friend bool operator==(const tune_key&, const tune_key&) = default;
};

/// The tuner's decision: what to run production with.
struct tune_choice {
  exchange_strategy strat_a = exchange_strategy::alltoall;  // CommA (z<->x)
  exchange_strategy strat_b = exchange_strategy::alltoall;  // CommB (y<->z)
  int batch = 1;           // aggregated-exchange width F
  int pipeline_depth = 1;  // comm/compute overlap groups
  // Resolved decomposition (cache format v2). Transform-tuning entries
  // leave pa = pb = 0; decomposition-tuning entries record the winning
  // layout and its concrete process grid here.
  decomposition decomp = decomposition::pencil2d;
  int pa = 0;
  int pb = 0;

  friend bool operator==(const tune_choice&, const tune_choice&) = default;
};

struct tune_entry {
  tune_key key;
  tune_choice choice;
};

struct tune_options {
  std::string cache_path;  // empty: measure always, persist nothing
  int reps = 3;            // timed reps per candidate (best-of)
  bool force_retune = false;  // ignore a cache hit (still stores)
};

/// What one autotune call did. `warnings` is populated on the rank that
/// touched the cache file (world rank 0); cache trouble lands there.
struct tune_report {
  tune_key key;
  tune_choice choice;
  bool from_cache = false;  // served without measuring (either cache tier)
  bool from_memo = false;   // ...specifically by the in-process memo
  bool stored = false;
  double per_field_s = 0.0;  // agreed time of the F=1/depth=1 baseline
  double chosen_s = 0.0;     // agreed time of the winning candidate
  struct candidate {
    int batch = 1;
    int pipeline_depth = 1;
    double seconds = 0.0;
  };
  std::vector<candidate> measured;  // empty on a cache hit
  std::vector<std::string> warnings;
};

/// The cache key for running `base` on this grid and process split.
/// `dk`/`replica_c` identify the *requested* decomposition (only
/// decomposition-tuning entries pass non-defaults).
[[nodiscard]] tune_key make_tune_key(const grid& g, const kernel_config& base,
                                     int pa, int pb,
                                     decomposition dk = decomposition::pencil2d,
                                     int replica_c = 0);

/// `base` with the tuner's decision applied (per-communicator strategies,
/// batch width and pipeline depth).
[[nodiscard]] kernel_config apply_tuning(kernel_config base,
                                         const tune_choice& choice);

/// Tune the transform configuration for (g, cart, base): consult the
/// cache, measure candidates on a cache miss, agree across ranks, persist
/// the winner. Collective over `world` (which must span cart's ranks).
[[nodiscard]] tune_report autotune_transforms(const grid& g,
                                              vmpi::communicator& world,
                                              vmpi::cart2d& cart,
                                              const kernel_config& base,
                                              const tune_options& opt);

/// What one decomposition-tuning call decided.
struct decomp_tune_report {
  tune_key key;
  decomp_plan plan;  // the layout to run production with
  bool from_cache = false;  // served without measuring (either cache tier)
  bool from_memo = false;   // ...specifically by the in-process memo
  bool stored = false;
  struct candidate {
    decomp_plan plan;
    double seconds = 0.0;  // agreed (max-over-ranks) substage time
  };
  std::vector<candidate> measured;  // empty on a cache hit
  std::vector<std::string> warnings;
};

/// Resolve `requested` into a concrete decomposition plan, measuring when
/// requested == tuned: every runnable candidate (pencil2d with the
/// configured pa x pb always included, so the tuned pick is never slower
/// than pencil *as measured*) runs the 3-down + 5-up RK3 substage workload
/// on its own temporary Cartesian split, timings are max-reduced, and the
/// strict-< argmin over the fixed candidate order picks identically on
/// every rank. The winner persists in the v2 tuning cache under a
/// decomposition::tuned key. Non-tuned requests validate and return
/// without measuring. Collective over `world`.
[[nodiscard]] decomp_tune_report autotune_decomposition(
    const grid& g, vmpi::communicator& world, decomposition requested, int pa,
    int pb, int replica_c, const kernel_config& base, const tune_options& opt);

// --- cache file access (exposed for tests and pre-seeding) -----------------

/// Parse the cache at `path`. Structural damage (truncation, bad magic,
/// version skew, CRC mismatch) appends a human-readable warning and
/// degrades to the valid prefix — a missing file is simply empty, and no
/// failure mode throws.
[[nodiscard]] std::vector<tune_entry> load_tuning_cache(
    const std::string& path, std::vector<std::string>* warnings = nullptr);

/// Atomically replace the cache at `path` with `entries` (temp + rename
/// via io::atomic_file_writer; io::fault_policy applies). Throws on I/O
/// failure — autotune_transforms catches and degrades to a warning.
void save_tuning_cache(const std::string& path,
                       const std::vector<tune_entry>& entries);

/// Find `key` in `entries`; nullptr if absent.
[[nodiscard]] const tune_entry* find_tuning_entry(
    const std::vector<tune_entry>& entries, const tune_key& key);

// --- in-process tuning memo ------------------------------------------------
//
// Concurrent simulations sharing one cache file (a campaign sweep) used to
// race the file's load-merge-store and re-measure identical configs. A
// process-wide memo keyed by (cache_path, tune_key) now fronts the file:
// the first caller of a key measures while later callers of the same key
// block until the choice is published, and file writes serialize through a
// per-path mutex so distinct keys merging into the same file cannot drop
// each other's entries. The memo is only consulted when a cache_path is
// set — an empty path still means "measure always".

struct tuning_memo_stats {
  std::uint64_t hits = 0;    // consults served by a published choice
  std::uint64_t misses = 0;  // consults that took ownership and measured
  std::size_t entries = 0;   // published choices currently held
};

/// Snapshot of the process-wide memo counters.
[[nodiscard]] tuning_memo_stats tuning_memo_statistics();

/// Drop every memoized choice and zero the counters (test isolation and
/// campaign teardown). Must not race in-flight autotune calls.
void tuning_memo_reset();

}  // namespace pcf::pencil
