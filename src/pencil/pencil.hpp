// 2-D pencil decomposition and the customized parallel FFT kernel
// (paper Sections 2.2-2.3 and 4.3-4.4).
//
// Global data is a spectral field with nxh = nx/2 retained streamwise
// Fourier modes (the Nyquist mode is dropped — one of the customized
// kernel's advantages over P3DFFT), ny wall-normal points and nz spanwise
// modes, distributed over a P_A x P_B process grid:
//
//   y-pencils: [x-block(P_A)][z-block(P_B)][ny]      (y contiguous)
//   z-pencils: [x-block(P_A)][y-block(P_B)][nzp]     (z contiguous)
//   x-pencils: [zp-block(P_A)][y-block(P_B)][...x]   (x contiguous)
//
// The spectral -> physical path is: y->z transpose (CommB), 3/2 pad + z
// inverse FFT, z->x transpose (CommA), 3/2 pad + c2r FFT. Each FFT stage
// gathers its lines straight from one exchange's receive layout and
// scatters them straight into the next one's send layout, so the 3/2-rule
// padding/truncation and the reorders happen inside the transforms, one
// pass per stage, as in the paper. Physical grid is nxp = 3nx/2 by
// nzp = 3nz/2 (per y point).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fft/fft.hpp"
#include "util/phase_timer.hpp"
#include "util/workspace.hpp"
#include "vmpi/vmpi.hpp"

namespace pcf::pencil {

using cplx = std::complex<double>;

/// Block distribution of n items over p ranks (remainder spread over the
/// first n % p ranks).
struct block {
  std::size_t offset = 0;
  std::size_t count = 0;
};
block block_range(std::size_t n, int p, int r);

/// Global grid extents (spectral sizes; nx = full streamwise modes before
/// the Nyquist drop, must be divisible by 4; nz must be even).
struct grid {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t nz = 0;

  [[nodiscard]] std::size_t nxh() const { return nx / 2; }       // modes kept
  [[nodiscard]] std::size_t nxp() const { return 3 * nx / 2; }   // phys x
  [[nodiscard]] std::size_t nzp() const { return 3 * nz / 2; }   // phys z
};

/// Kernel configuration. The defaults are the paper's customized kernel;
/// `p3dfft_mode()` reproduces P3DFFT 2.5.1's implementation choices for the
/// Table 6 comparison.
struct kernel_config {
  bool drop_nyquist = true;   // don't store/transpose the x Nyquist mode
  bool dealias = true;        // fuse 3/2 pad/truncate into the transposes
  int fft_threads = 1;        // threads for FFT + pad/truncate blocks
  int reorder_threads = 1;    // threads for pack/unpack (on-node reorder)
  // Fields aggregated into one exchange by the *_batch entry points; the
  // exchange buffers grow by this factor. 1 keeps the seed footprint.
  int max_batch = 1;
  // > 1 splits each batch into up to this many field groups and overlaps
  // the exchange of group k with the FFT/reorder of its neighbours on a
  // dedicated comm thread (vmpi::async_proxy). 1 = fully synchronous.
  int pipeline_depth = 1;

  static kernel_config p3dfft_mode() {
    return kernel_config{false, false, 1, 1};
  }
};

/// Cumulative counters for the batched transform path of one parallel_fft
/// instance (single-field calls count as batches of 1).
struct batch_stats {
  std::uint64_t transforms = 0;      // batch API entries
  std::uint64_t fields = 0;          // fields across those entries
  std::uint64_t exchanges = 0;       // aggregated transpose exchanges issued
  std::uint64_t reorder_calls = 0;   // fused pack/unpack kernel invocations
  std::uint64_t reorder_fields = 0;  // fields across those invocations
};

/// Per-rank decomposition bookkeeping.
struct decomp {
  decomp(const grid& g, const kernel_config& cfg, int pa, int pb, int ca,
         int cb);

  grid g;
  int pa, pb;      // process grid
  int ca, cb;      // my coordinates
  std::size_t nxs; // spectral x modes carried (nxh or nxh+1 with Nyquist)
  std::size_t nxf; // physical x line length (nxp, or nx without dealiasing)
  std::size_t nzf; // physical z line length (nzp, or nz without dealiasing)

  block xs;   // my spectral-x block (over P_A), y- and z-pencils
  block zs;   // my spectral-z block (over P_B), y-pencils
  block yb;   // my y block (over P_B), z- and x-pencils
  block zp;   // my physical-z block (over P_A), x-pencils

  [[nodiscard]] std::size_t y_pencil_elems() const {
    return xs.count * zs.count * g.ny;
  }
  [[nodiscard]] std::size_t z_pencil_elems() const {
    return xs.count * yb.count * nzf;
  }
  /// Complex modes per x line in x-pencils (input of the c2r transform).
  [[nodiscard]] std::size_t x_line_modes() const { return nxf / 2 + 1; }
  [[nodiscard]] std::size_t x_pencil_real_elems() const {
    return zp.count * yb.count * nxf;
  }
};

/// Bytes of transpose/FFT workspace one parallel_fft instance
/// needs for this decomposition and configuration (including per-buffer
/// alignment slack) — what to lease for the workspace lane handed to the
/// lane constructor below.
[[nodiscard]] std::size_t transform_workspace_bytes(const decomp& d,
                                                    const kernel_config& cfg);

/// The parallel FFT kernel: spectral y-pencils <-> physical x-pencils.
/// Thread-unsafe per instance; each rank builds its own. The exchange
/// buffers (one on a 1x1 grid, two otherwise, three in P3DFFT mode) are
/// permanent construction-time checkouts of a workspace lane.
class parallel_fft {
 public:
  /// Standalone kernel: leases its own lane from block_pool::global().
  parallel_fft(const grid& g, vmpi::cart2d& cart, kernel_config cfg);
  /// Kernel on a caller's lane — the simulation's field_workspace arena
  /// sizes it once via transform_workspace_bytes(). The lane must outlive
  /// this instance.
  parallel_fft(const grid& g, vmpi::cart2d& cart, kernel_config cfg,
               workspace_lane& transform_ws);
  ~parallel_fft();
  parallel_fft(const parallel_fft&) = delete;
  parallel_fft& operator=(const parallel_fft&) = delete;

  [[nodiscard]] const decomp& dec() const;
  [[nodiscard]] const kernel_config& config() const;

  /// Spectral (y-pencil, y_pencil_elems complex) -> physical (x-pencil,
  /// x_pencil_real_elems doubles).
  void to_physical(const cplx* spec, double* phys);

  /// Physical -> spectral, normalized so that a to_physical/to_spectral
  /// round trip is the identity.
  void to_spectral(const double* phys, cplx* spec);

  /// Batched transforms: move `nfields` independent fields through the
  /// pipeline together so every transpose stage runs ONE aggregated
  /// exchange carrying all fields (field-strided sub-blocks inside each
  /// per-rank segment) instead of one exchange per field. Fields beyond
  /// config().max_batch are processed in chunks of max_batch. With
  /// pipeline_depth > 1 the chunk is further split into field groups whose
  /// exchanges overlap neighbouring groups' FFT/reorder work. Results are
  /// bit-identical to nfields single-field calls in every mode.
  void to_physical_batch(const cplx* const* specs, double* const* phys,
                         std::size_t nfields);
  void to_spectral_batch(const double* const* phys, cplx* const* specs,
                         std::size_t nfields);

  /// Counters for the batched path (exchange aggregation, batch widths).
  [[nodiscard]] batch_stats batching() const;

  /// Internal workspace allocated (for the paper's 1x-vs-3x buffer claim).
  [[nodiscard]] std::size_t workspace_bytes() const;

  /// Re-check the exchange buffers out of the construction-time lane
  /// after its slab was released and reacquired (the simulation's
  /// suspend/resume cycle — the lane may sit on different pool blocks
  /// now). The lane must be freshly reacquired with this kernel as its
  /// first checkout, which reproduces the construction-time offsets.
  /// Plans and counts are untouched, so a rebind costs one bump
  /// allocation per buffer.
  void rebind_workspace();

  /// Wall time per fused stage, one phase_timer row each, accumulated
  /// across calls. Rows [0, kStageRows) are the inverse transform's in
  /// schedule order (pack_y, exchange_yz, fft_z_inverse, exchange_zx,
  /// fft_c2r), the next kStageRows the forward one's (fft_r2c,
  /// exchange_xz, fft_z_forward, exchange_zy, unpack_y). A stage that does
  /// not run on this split keeps calls == 0. With pipeline_depth > 1 the
  /// exchange rows run on the comm thread, overlapping their siblings.
  static constexpr std::size_t kStageRows = 5;
  [[nodiscard]] const std::vector<phase_stats>& stage_phases() const;

  /// Sums over the stage rows: the four exchanges, the y-pencil pack and
  /// unpack, the four FFT stages.
  [[nodiscard]] double comm_seconds() const;
  [[nodiscard]] double reorder_seconds() const;
  [[nodiscard]] double fft_seconds() const;
  void reset_timers();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace pcf::pencil
