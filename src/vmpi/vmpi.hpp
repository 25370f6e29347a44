// Virtual MPI: an in-process message-passing runtime.
//
// The paper's machines (Mira, Stampede, Lonestar, Blue Waters) are not
// available here, so the pencil-transpose communication runs on this
// runtime instead: ranks are threads in one process, and the collectives
// exchange data through shared memory. What it preserves from real MPI is
// exactly what the DNS code depends on — communicator/sub-communicator
// topology (MPI_Cart_create / MPI_Cart_sub) and alltoall(v) semantics — so
// the transpose code paths are the genuine ones and are testable at 4-64
// ranks. Every transpose is one alltoallv: two rendezvous and one memcpy
// per peer, where p-1 MPI_Sendrecv rounds would need 2(p-1) rendezvous for
// the same copies (DESIGN.md §10).
//
// Simplification relative to MPI: every operation is *bulk-synchronous* —
// all ranks of a communicator must call the same operation together (the
// natural structure of a spectral DNS timestep). There is no tag matching
// or unexpected-message queue.
//
// Per-communicator byte/call statistics are recorded so benchmarks can
// report communication volumes, and so the netsim machine models can be
// applied to measured traffic.
#pragma once

#include <atomic>
#include <complex>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pcf::vmpi {

/// Aggregate communication statistics for one communicator (shared across
/// its ranks; byte counts are totals over all ranks).
struct comm_stats {
  std::uint64_t alltoall_calls = 0;
  std::uint64_t reduce_calls = 0;
  std::uint64_t bytes_sent = 0;
};

namespace detail {
struct group_state;
}

/// One rank's handle to a communicator. Copyable; all copies refer to the
/// same shared group.
class communicator {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Synchronize all ranks of this communicator.
  void barrier();

  /// MPI_Alltoall: send block r (count elements) to rank r; receive block r
  /// from rank r.
  template <class T>
  void alltoall(const T* send, T* recv, std::size_t count) {
    alltoall_bytes(send, recv, count * sizeof(T));
  }

  /// MPI_Alltoallv with std::size_t counts/displacements in *elements*.
  template <class T>
  void alltoallv(const T* send, const std::size_t* scounts,
                 const std::size_t* sdispls, T* recv,
                 const std::size_t* rcounts, const std::size_t* rdispls) {
    alltoallv_bytes(send, scounts, sdispls, recv, rcounts, rdispls, sizeof(T));
  }

  /// Element-wise reductions over all ranks; every rank gets the result.
  void allreduce_sum(const double* send, double* recv, std::size_t count);
  void allreduce_sum(const std::complex<double>* send,
                     std::complex<double>* recv, std::size_t count);
  void allreduce_max(const double* send, double* recv, std::size_t count);
  void allreduce_min(const double* send, double* recv, std::size_t count);
  /// Bitwise-OR reduction (MPI_BOR). The exact gather for single-owner
  /// data: non-owners contribute all-zero words, so the owner's bit
  /// pattern survives verbatim. A floating-point sum is NOT equivalent —
  /// IEEE 754 gives (-0.0) + (+0.0) = +0.0, so summing would flip the
  /// sign of negative zeros depending on how many ranks participate.
  void allreduce_bor(const std::uint64_t* send, std::uint64_t* recv,
                     std::size_t count);

  /// Broadcast count*sizeof(T) bytes from root.
  template <class T>
  void bcast(T* data, std::size_t count, int root) {
    bcast_bytes(data, count * sizeof(T), root);
  }

  /// Gather equal-size blocks to every rank.
  template <class T>
  void allgather(const T* send, T* recv, std::size_t count) {
    allgather_bytes(send, recv, count * sizeof(T));
  }

  /// MPI_Comm_split: ranks with equal color form a new communicator,
  /// ordered by (key, rank). Collective.
  communicator split(int color, int key);

  /// Shared statistics for this communicator.
  [[nodiscard]] comm_stats stats() const;

 private:
  friend void run_world(int, const std::function<void(communicator&)>&);
  communicator(std::shared_ptr<detail::group_state> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  /// Stale-communicator guard for split children: a collective can only
  /// complete if every rank of the group still holds a handle, so a group
  /// whose live handle count dropped below its size has been (partially)
  /// released and the call would deadlock. Detected via the shared-state
  /// use count — a cheap necessary condition, checked on entry to every
  /// collective. World communicators are exempt (run_world staggers
  /// thread construction, so early ranks legitimately run ahead of the
  /// handle count).
  void check_liveness() const;

  void alltoall_bytes(const void* send, void* recv, std::size_t bytes);
  void alltoallv_bytes(const void* send, const std::size_t* scounts,
                       const std::size_t* sdispls, void* recv,
                       const std::size_t* rcounts, const std::size_t* rdispls,
                       std::size_t elem_size);
  void bcast_bytes(void* data, std::size_t bytes, int root);
  void allgather_bytes(const void* send, void* recv, std::size_t bytes);

  std::shared_ptr<detail::group_state> state_;
  int rank_ = 0;
};

/// Launch `nranks` threads each running fn with its world communicator.
/// Exceptions thrown by any rank are rethrown (first one wins) after all
/// ranks have been joined.
void run_world(int nranks, const std::function<void(communicator&)>& fn);

/// Asynchronous-collective shim: the stand-in for MPI_Ialltoallv +
/// MPI_Wait on this thread-per-rank runtime. start() hands a blocking
/// collective (bound to this rank's communicators) to a dedicated progress
/// thread and returns immediately; wait() blocks until it has finished.
///
/// Each rank owns at most one proxy and the proxy runs ONE progress
/// thread, so submitted operations start *and complete* in submission
/// order (FIFO). That ordering is the correctness contract: as long as
/// every rank submits the same sequence of collectives, the bulk-
/// synchronous rendezvous inside vmpi matches up across ranks with no tag
/// matching — exactly how the pencil kernel pipelines its exchanges.
///
/// Exceptions thrown by an operation (e.g. a world abort unwinding a
/// barrier) are captured and rethrown by the next wait()/wait_all().
class async_proxy {
 public:
  using ticket = thread_pool::ticket;

  async_proxy() : pool_(2) {}  // caller + one progress thread

  /// Begin `op` on the progress thread; the returned ticket orders it.
  ticket start(std::function<void()> op) { return pool_.submit(std::move(op)); }

  /// Block until the operation behind `t` has completed.
  void wait(ticket t) { pool_.wait_submitted(t); }

  /// Block until every started operation has completed.
  void wait_all() { pool_.wait_submitted(); }

 private:
  thread_pool pool_;
};

/// The two sub-communicators of a row-major P_A x P_B Cartesian split of
/// `world` (rank = a * P_B + b), plus this rank's grid coordinates.
struct cart_split {
  int coord_a = 0;
  int coord_b = 0;
  communicator comm_a;  // ranks sharing this B coordinate (size P_A)
  communicator comm_b;  // ranks sharing this A coordinate (size P_B)
};

/// MPI_Cart_create + two MPI_Cart_sub calls in one collective step:
/// validates pa * pb == world.size() *before* any split (an invalid grid
/// must fail on every rank without touching the split rendezvous), then
/// splits CommA and CommB in a fixed order on all ranks. Used by cart2d
/// and by the 2.5D replica groups; the returned communicators carry
/// stale-handle liveness asserts (see communicator::check_liveness).
[[nodiscard]] cart_split split_cartesian(communicator& world, int pa, int pb);

/// 2-D Cartesian process grid P_A x P_B with row-major rank placement
/// (rank = a * P_B + b), mirroring the paper's MPI_Cart_create usage:
/// CommB groups ranks that are *contiguous* (node-local when P_B divides
/// the cores per node — the layout Table 5 shows is fastest), CommA groups
/// strided ranks.
class cart2d {
 public:
  cart2d(communicator& world, int pa, int pb);

  [[nodiscard]] int coord_a() const { return a_; }
  [[nodiscard]] int coord_b() const { return b_; }
  [[nodiscard]] int pa() const { return pa_; }
  [[nodiscard]] int pb() const { return pb_; }
  /// Sub-communicator over ranks with the same B coordinate (size P_A).
  communicator& comm_a() { return comm_a_; }
  /// Sub-communicator over ranks with the same A coordinate (size P_B).
  communicator& comm_b() { return comm_b_; }

 private:
  cart2d(cart_split s, int pa, int pb);

  int pa_, pb_, a_, b_;
  communicator comm_a_, comm_b_;
};

}  // namespace pcf::vmpi
