// Performance predictor for the channel DNS on the modelled machines.
//
// Combines the DNS algorithm's exact operation counts (transpose bytes,
// FFT flops, time-advance flops — the same quantities our instrumented
// kernels count) with the machine models to predict the per-section times
// of Tables 5, 6, 9, 10 and 11. Absolute seconds are approximate; the
// reproduced claims are the *shapes*: who wins, where efficiency falls
// off, which communicator split is fastest, and when hybrid beats MPI.
#pragma once

#include <cstddef>

#include "netsim/machine.hpp"

namespace pcf::netsim {

/// How the code is launched (paper Section 5: "MPI" = one rank per core,
/// "Hybrid" = one rank per node with threads).
struct job_config {
  std::size_t nx = 0, ny = 0, nz = 0;  // spectral grid
  long cores = 0;
  int ranks_per_node = 0;  // 0 = one rank per core
  long pa = 0, pb = 0;     // 0 = auto (CommB localized to the node)
  bool dealias = true;     // 3/2-rule padding carried in z/x lines
  bool drop_nyquist = true;
  bool threaded = true;    // on-node threading of FFT + reorder (custom
                           // kernel); false reproduces P3DFFT's behavior
  double buffer_factor = 1.0;  // extra reorder traffic (P3DFFT: 3x buffers)
  // Per-peer software overhead in each alltoall. The customized kernel
  // aggregates its exchanges (default ~0); P3DFFT's unaggregated per-rank
  // messaging pays a visible per-peer cost at large task counts (the
  // Table 6 collapse on Lonestar/Stampede).
  double per_peer_overhead = 0.0;
};

struct section_times {
  double comm = 0.0;     // alltoall exchanges
  double reorder = 0.0;  // on-node pack/unpack
  double fft = 0.0;
  double advance = 0.0;  // N-S time advance (implicit solves)
  [[nodiscard]] double transpose() const { return comm + reorder; }
  [[nodiscard]] double total() const { return comm + reorder + fft + advance; }
};

/// Layouts the predictor can cost. The pencil kernel knows only process
/// splits (pencil/decomp.hpp: slab = 1 x R, 2.5D = c x R/c); the modelled
/// scan keeps its own kind so it can resolve each layout's split per rank
/// count (netsim links only pcf_util, so it cannot include pencil).
enum class decomp_kind { pencil2d, slab, hybrid_25d };

[[nodiscard]] const char* to_string(decomp_kind k);

/// Per-timestep prediction of one decomposition at one rank count.
struct decomp_times {
  decomp_kind kind = decomp_kind::pencil2d;
  long pa = 0, pb = 0;  // resolved process grid (pa = replica count c
                        // for the 2.5D layout)
  bool valid = false;   // false: the layout cannot run at this rank count
  section_times t;
};

class predictor {
 public:
  explicit predictor(machine m) : m_(std::move(m)) {}

  [[nodiscard]] const machine& mach() const { return m_; }

  /// Resolve the process grid: ranks, pa, pb (CommB local to a node where
  /// possible, following Table 5's conclusion).
  void resolve(const job_config& j, long& ranks, long& pa, long& pb) const;

  /// Time of one alltoall over a sub-communicator.
  /// @param p                communicator size (ranks)
  /// @param bytes            total bytes exchanged across ONE communicator
  /// @param ranks_per_node   ranks of this communicator sharing a node
  /// @param total_tasks      MPI tasks in the whole job (contention)
  /// @param concurrent_groups how many such sub-communicators exchange at
  ///                          once (they share the network)
  /// @param total_nodes      nodes of the whole job (bandwidth decay)
  /// @param per_peer_overhead software cost per peer per exchange
  [[nodiscard]] double alltoall_time(long p, double bytes,
                                     double ranks_per_node, long total_tasks,
                                     long concurrent_groups,
                                     double total_nodes,
                                     double per_peer_overhead = 0.0) const;

  /// Full RK3 timestep (3 substeps, 8 field passes each) — Tables 9/10.
  [[nodiscard]] section_times timestep(const job_config& j) const;

  /// Per-timestep sections under an explicit decomposition. The slab
  /// layout (pa = 1) runs one global y<->z exchange and elides the z<->x
  /// one entirely; the 2.5D hybrid (pa = c replica groups) trades the big
  /// dealiased z<->x network exchange for a radix-c exchange that lands on
  /// the NVLink island when c <= machine::island_size. Sub-communicator
  /// fan-out pays the machine's per-dimension link contention. replica_c
  /// picks the 2.5D c (0 = the c with the lowest predicted comm time);
  /// ignored for the other kinds. `valid` is false when the layout cannot
  /// run: slab needs ranks <= min(ny, nz), 2.5D needs a divisor c with
  /// ranks / c <= min(ny, nz).
  [[nodiscard]] decomp_times timestep_decomp(const job_config& j,
                                             decomp_kind k,
                                             long replica_c = 0) const;

  /// The fastest valid decomposition for this job (ties go to the earlier
  /// enum value, i.e. pencil).
  [[nodiscard]] decomp_times fastest_decomp(const job_config& j) const;

  /// One transpose cycle (x->z->y then y->z->x) for three velocity fields,
  /// communication only — Table 5.
  [[nodiscard]] double transpose_cycle(const job_config& j) const;

  /// One parallel-FFT benchmark cycle as in Table 6: four transposes and
  /// four 1-D transform sets (the FFT after the last transpose skipped),
  /// no dealiasing.
  [[nodiscard]] double pfft_cycle(const job_config& j) const;

  /// Effective per-node memory bandwidth when `threads` threads stream
  /// (the Table 4 saturation curve).
  [[nodiscard]] double reorder_bandwidth(int threads) const;

 private:
  struct workload;  // internal derived sizes

  /// Section times of a timestep on an explicit pa x pb grid. island_a:
  /// the CommA (radix-pa) exchange is island-placed (2.5D replica groups).
  [[nodiscard]] section_times decomp_sections(const job_config& j, long pa,
                                              long pb, bool island_a) const;

  machine m_;
};

}  // namespace pcf::netsim
