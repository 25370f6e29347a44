// Measured autotuning of the pencil transform kernel.
//
// The paper's kernel leans on FFTW 3.3's transpose planner, which times
// candidate exchange implementations at plan time and keeps the fastest
// (Section 4.3). This module is that planner, pointed at the knobs the
// batched kernel exposes: {process split, batch width F, pipeline depth},
// each measured on the 3-down + 5-up field workload an RK3 substage
// actually runs. Timings are max-reduced across all ranks before the
// (deterministic) argmin, so every rank picks the same configuration. The
// exchange implementation itself is not a knob: on vmpi an alltoallv costs
// two rendezvous where p-1 MPI_Sendrecv rounds cost 2(p-1) for the same
// copies, and it never measured slower (DESIGN.md §10).
//
// Winners persist in a small versioned on-disk cache keyed by (grid, rank
// count, requested split, thread counts, batch ceiling, kernel flags).
// One entry holds the whole choice, split included. The cache is
// strictly advisory: a missing, truncated, CRC-mismatched or
// version-skewed file falls back to re-measurement with a warning — it
// can never abort a run. Writes go through io::atomic_file_writer, so a
// crash mid-store leaves the previous cache intact (and the store path
// honours io::fault_policy, which is how the fault tests drive it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pencil/pencil.hpp"
#include "vmpi/vmpi.hpp"

namespace pcf::pencil {

/// Identity of one tuning measurement. Every field that changes the
/// measured exchange/compute shape is part of the key; a config change
/// therefore *invalidates* by missing, never by staleness.
struct tune_key {
  std::uint32_t nx = 0, ny = 0, nz = 0;  // spectral grid
  std::uint32_t ranks = 0;               // world size
  std::uint32_t pa = 0, pb = 0;  // requested split; 0 x 0: measure it
  std::uint32_t fft_threads = 1;
  std::uint32_t reorder_threads = 1;
  std::uint32_t max_batch = 1;  // ceiling the tuner searches under
  std::uint32_t flags = 0;      // bit 0: drop_nyquist, bit 1: dealias

  friend bool operator==(const tune_key&, const tune_key&) = default;
};

/// The tuner's decision: what to run production with.
struct tune_choice {
  int batch = 1;           // aggregated-exchange width F
  int pipeline_depth = 1;  // comm/compute overlap groups
  int pa = 1;              // process split (the requested one when given)
  int pb = 1;

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
    int pa = 1;
    int pb = 1;
    int batch = 1;
    int pipeline_depth = 1;
    double seconds = 0.0;
  };
  // Every timed candidate in order, empty on a cache hit or a 1-rank
  // world: the split candidates first (only when the split is measured;
  // timed at the base batch and depth), then the batch/depth sweep on the
  // winning split.
  std::vector<candidate> measured;
  std::vector<std::string> warnings;
};

/// The cache key for running `base` on this grid over `ranks` ranks with
/// the requested split pa x pb (0 x 0: the tuner measures the split).
[[nodiscard]] tune_key make_tune_key(const grid& g, const kernel_config& base,
                                     int ranks, int pa, int pb);

/// `base` with the tuner's decision applied (batch width and pipeline
/// depth; the split is the caller's to use).
[[nodiscard]] kernel_config apply_tuning(kernel_config base,
                                         const tune_choice& choice);

/// Tune the process split and the transform configuration for (g, base)
/// over `world`. pa x pb is the requested split; pa = pb = 0 measures it:
/// every split_candidates() entry runs the 3-down + 5-up RK3 substage
/// workload at `base`, and the strict-< argmin over the fixed candidate
/// order keeps candidate 0 on a tie, so the pick is never slower than
/// candidate 0 as measured. The batch/depth sweep is then timed on the
/// winning split. Timings are max-reduced over `world`, so every rank
/// picks the same choice. A 1-rank world times nothing: the choice is
/// 1 x 1 with base's batch and (batch-clamped) depth.
///
/// One transaction per call: in-process memo, then the cache file (rank
/// 0), verdict broadcast, measure on a miss, merge-store, barrier, memo
/// publish. Collective over `world`.
[[nodiscard]] tune_report autotune_transforms(const grid& g,
                                              vmpi::communicator& world,
                                              int pa, int pb,
                                              const kernel_config& base,
                                              const tune_options& opt);

// --- cache file access (exposed for tests and pre-seeding) -----------------

/// Parse the cache at `path`. Structural damage (truncation, bad magic,
/// version skew, CRC mismatch) appends a human-readable warning and
/// degrades to the valid prefix — a missing file is simply empty, and no
/// failure mode throws. An entry whose choice does not fit its own key
/// (batch over the key's ceiling, depth over the batch, a split that does
/// not cover the key's ranks or differs from the requested one) is
/// skipped with a warning, so its key re-measures.
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
