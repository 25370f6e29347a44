// pcf::determinism — bit-identity harness for the channel DNS.
//
// The solver is deterministic by construction (DESIGN.md, "Determinism
// contract"): thread counts, transform batch width, pipeline depth and the
// virtual-rank decomposition are all data-movement choices that must not
// change a single bit of the evolved state, and a run restored from a
// checkpoint must continue exactly as the uninterrupted run.
// This header turns that contract into something a test can assert *per
// step*: a `step_fingerprint` condenses the instantaneous state into the
// per-section CRC-32s of its checkpoint (decomposition-independent: each
// covers a global array whose every mode line has exactly one owner),
// and `compare` reports the first diverging step *and field* so a failure
// names where the bit-identity broke, not just that it did.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace pcf::determinism {

/// The state digest of one step boundary. time/dt are carried as IEEE-754
/// bit patterns: the contract is bit-identity, and a textual round-trip of
/// a double through a golden file must not be a source of false matches.
struct step_fingerprint {
  long step = 0;
  std::uint64_t time_bits = 0;
  std::uint64_t dt_bits = 0;
  std::uint32_t crc_v = 0;     // v-hat spline coefficients
  std::uint32_t crc_om = 0;    // omega_y-hat
  std::uint32_t crc_phi = 0;   // phi-hat
  std::uint32_t crc_mean = 0;  // mean U/W profiles
  // Fold of every scenario section CRC (passive scalars, flow-rate
  // forcing state) in the order sc0, scm0, sc1, scm1, ..., frc; 0 for the
  // default scenario, so default-channel golden traces are unchanged by
  // the scenario layer.
  std::uint32_t crc_scalars = 0;

  /// One CRC-32 over every field above — the per-step value a golden
  /// trace pins. crc_scalars participates only when nonzero, keeping the
  /// default channel's combined values frozen.
  [[nodiscard]] std::uint32_t combined() const;

  bool operator==(const step_fingerprint&) const = default;
};

/// A per-step fingerprint sequence (row 0 is the pre-step state).
struct trace {
  std::vector<step_fingerprint> steps;
};

/// Digest the instantaneous state from the checkpoint's section CRCs,
/// computed in memory (channel_dns::checkpoint_sections). Collective;
/// every rank returns the identical fingerprint regardless of the
/// decomposition. `ignored` is accepted for older callers that passed a
/// scratch file; nothing is written.
[[nodiscard]] step_fingerprint fingerprint(core::channel_dns& dns,
                                           const std::string& ignored = {});

/// Fingerprint the current state, then advance `nsteps` steps
/// fingerprinting after each one: nsteps + 1 rows. Collective.
[[nodiscard]] trace record_trace(core::channel_dns& dns, int nsteps);

/// One point of disagreement between two traces: the row, the step count
/// recorded there, and the first field that differs ("rows" for a length
/// mismatch, else "step", "time", "dt", "c_v", "c_om", "c_phi", "mean" or
/// "scalars").
struct divergence {
  std::size_t row = 0;
  long step = 0;
  std::string field;
  std::uint64_t expected = 0;
  std::uint64_t actual = 0;
};

/// Row-by-row comparison; one divergence per disagreeing row (first field
/// in evolution order), empty means bit-identical traces.
[[nodiscard]] std::vector<divergence> compare(const trace& expected,
                                              const trace& actual);

/// Human-readable one-line-per-divergence report for test failures.
[[nodiscard]] std::string describe(const std::vector<divergence>& divs);

/// Golden-trace round trip. The CSV is stable and diff-friendly: one row
/// per step, doubles as hex bit patterns, CRCs as hex.
void write_trace_csv(const std::string& path, const trace& t);
[[nodiscard]] trace read_trace_csv(const std::string& path);

/// CRC-32 of an entire file — pins the frozen on-disk checkpoint layout.
[[nodiscard]] std::uint32_t file_crc32(const std::string& path);

}  // namespace pcf::determinism
