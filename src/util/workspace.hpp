// Preallocated scratch arena for the DNS hot loop.
//
// The RK3 substage must run without touching the heap (the paper's
// production runs spend days inside it; an allocator call per mode per
// substep is both a latency and a jitter hazard at 786K cores). All
// per-substage scratch therefore comes from a `field_workspace`: a set of
// bump-allocated lanes sized ONCE at construction. A lane hands out
// 64-byte-aligned blocks; a `workspace_lane::scope` releases everything
// allocated after it in LIFO order when it leaves scope.
//
// Every slab is a lease of fixed-size blocks from a pcf::block_pool
// (block_pool::global() in production, a private pool in tests).
// release_slab() hands the blocks back (a suspended simulation's
// footprint drops to its evolved state) and reacquire_slab() leases again
// — possibly DIFFERENT blocks, so every pointer previously handed out is
// dead and permanent checkouts must be re-established in their original
// order (same offsets, new base).
//
// Lifetime rules:
//   * Permanent blocks (alive for the simulation's lifetime) are allocated
//     during construction, before any scope is opened.
//   * Transient blocks are allocated under a `scope`; nesting is LIFO.
//   * A lane is single-threaded: concurrent stages use distinct lanes
//     (one shared lane for serial sections, one lane per pool thread).
//   * Capacity is fixed; exceeding it throws (precondition_error) rather
//     than growing, so sizing bugs surface immediately instead of as a
//     silent mid-run allocation.
// Debug builds (!NDEBUG) poison released regions with 0xAB so use-after-
// release / overlapping-scope bugs read as NaN-like garbage instead of
// stale-but-plausible data — including across a release/reacquire cycle
// (the pool poisons released blocks, the lane poisons fresh slabs).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/aligned.hpp"
#include "util/block_pool.hpp"
#include "util/check.hpp"

namespace pcf {

/// One bump-allocated scratch lane over a fixed 64-byte-aligned slab
/// leased from a block_pool.
class workspace_lane {
 public:
  workspace_lane() = default;
  ~workspace_lane() { drop_backing_(); }
  workspace_lane(const workspace_lane&) = delete;
  workspace_lane& operator=(const workspace_lane&) = delete;
  // Explicit moves: the source must come back empty (no stale slab
  // pointer, no doubly released lease) and stay reusable — lease it again
  // before the next checkout.
  workspace_lane(workspace_lane&& o) noexcept { move_from_(o); }
  workspace_lane& operator=(workspace_lane&& o) noexcept {
    if (this != &o) {
      drop_backing_();
      move_from_(o);
    }
    return *this;
  }

  /// Back the slab by a block-pool lease: capacity is `bytes` rounded up
  /// to whole pool blocks. Only legal while nothing is checked out
  /// (construction time); existing contents are discarded. The pool must
  /// outlive the lane.
  void lease_bytes(block_pool& pool, std::size_t bytes) {
    PCF_REQUIRE(top_ == 0 && live_scopes_ == 0,
                "workspace lane re-leased while blocks are checked out");
    drop_backing_();
    pool_ = &pool;
    wanted_ = bytes;
    lease_ = pool.acquire(bytes);
    data_ = lease_.data();
    size_ = lease_.bytes();
    peak_ = 0;
    released_ = false;
    poison_fresh_();
  }

  /// Give the slab's blocks back to the pool (suspend). Requires every
  /// scope closed; permanent checkouts die with the slab and must be
  /// re-established after reacquire_slab(). Idempotent.
  void release_slab() {
    PCF_REQUIRE(live_scopes_ == 0,
                "workspace lane released while scopes are open");
    PCF_REQUIRE(pool_ != nullptr, "workspace lane released before a lease");
    if (released_) return;
    pool_->release(lease_);
    data_ = nullptr;
    size_ = 0;
    top_ = 0;
    released_ = true;
  }

  /// Re-establish the slab after release_slab() (resume): leases possibly
  /// different blocks of the same byte capacity. The bump pointer
  /// restarts at zero — permanent checkouts repeated in construction
  /// order land on their original offsets. peak_bytes() survives the
  /// cycle (it sizes future lanes).
  void reacquire_slab() {
    PCF_REQUIRE(released_, "reacquire_slab on a lane that was not released");
    lease_ = pool_->acquire(wanted_);
    data_ = lease_.data();
    size_ = lease_.bytes();
    released_ = false;
    poison_fresh_();
  }

  /// Check out `count` objects of T (64-byte aligned, uninitialized).
  /// The block stays valid until the enclosing scope (if any) is released;
  /// blocks allocated outside any scope are permanent.
  template <class T>
  [[nodiscard]] T* alloc(std::size_t count) {
    assert(!released_ && "workspace lane used while its slab is released");
    const std::size_t at = (top_ + kAlignment - 1) / kAlignment * kAlignment;
    // Overflow-safe capacity check: `at + count * sizeof(T)` can wrap for
    // a huge count and pass a direct comparison vacuously, so compare in
    // units of T against the space actually left.
    PCF_REQUIRE(at <= size_ && count <= (size_ - at) / sizeof(T),
                "workspace lane overflow: lanes are sized once at "
                "construction; grow the capacity estimate");
    top_ = at + count * sizeof(T);
    peak_ = std::max(peak_, top_);
    return reinterpret_cast<T*>(data_ + at);
  }

  /// RAII release point: restores the bump pointer to where it was at
  /// construction, freeing every block allocated since — including during
  /// stack unwinding, so a throwing stage leaves the lane exactly as it
  /// found it and the post-recovery step starts from a clean arena. Must
  /// be destroyed in LIFO order relative to other scopes on the same lane
  /// (asserted in debug builds).
  class scope {
   public:
    explicit scope(workspace_lane& lane)
        : lane_(&lane), saved_(lane.top_), depth_(++lane.live_scopes_) {}
    ~scope() {
      assert(lane_->live_scopes_ == depth_ &&
             "workspace scopes released out of LIFO order");
      --lane_->live_scopes_;
#ifndef NDEBUG
      // Poison the released region: a stage holding a pointer past its
      // scope now reads 0xAB garbage instead of plausible stale data.
      if (lane_->top_ > saved_)
        std::memset(lane_->data_ + saved_, 0xAB, lane_->top_ - saved_);
#endif
      lane_->top_ = saved_;
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    workspace_lane* lane_;
    std::size_t saved_;
    int depth_;
  };

  [[nodiscard]] std::size_t capacity_bytes() const { return size_; }
  [[nodiscard]] std::size_t used_bytes() const { return top_; }
  /// High-water mark since the lease — for sizing reports; preserved
  /// across release/reacquire cycles.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_; }
  /// Scopes currently open on this lane (zero at step boundaries).
  [[nodiscard]] int live_scopes() const { return live_scopes_; }
  /// True between release_slab() and reacquire_slab().
  [[nodiscard]] bool released() const { return released_; }

 private:
  void drop_backing_() {
    if (pool_ != nullptr) pool_->release(lease_);
    data_ = nullptr;
    size_ = 0;
  }

  void move_from_(workspace_lane& o) {
    pool_ = o.pool_;
    lease_ = o.lease_;
    data_ = o.data_;
    size_ = o.size_;
    top_ = o.top_;
    peak_ = o.peak_;
    wanted_ = o.wanted_;
    live_scopes_ = o.live_scopes_;
    released_ = o.released_;
    // Leave the source empty and reusable: its lease now belongs here.
    o.pool_ = nullptr;
    o.lease_ = {};
    o.data_ = nullptr;
    o.size_ = 0;
    o.top_ = 0;
    o.peak_ = 0;
    o.wanted_ = 0;
    o.live_scopes_ = 0;
    o.released_ = false;
  }

  void poison_fresh_() {
#ifndef NDEBUG
    if (size_ > 0) std::memset(data_, 0xAB, size_);
#endif
  }

  block_pool* pool_ = nullptr;
  block_pool::lease lease_;
  unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t top_ = 0;
  std::size_t peak_ = 0;
  std::size_t wanted_ = 0;  // requested capacity (reacquire re-leases this)
  int live_scopes_ = 0;
  bool released_ = false;
};

/// The unified scratch arena shared by every stage of the simulation:
///   * shared()     — serial-section scratch (observables, mean flow,
///                    substep-lifetime fields like hU/hW);
///   * thread(tid)  — per-advance-pool-thread scratch (mode-loop lines);
///   * transform()  — the pencil kernel's transpose/FFT exchange buffers.
/// Capacities are fixed at construction and every lane's slab is leased
/// from `pool`; see workspace_lane for the checkout rules.
/// release()/reacquire() cycle the whole arena through the pool (the
/// simulation's suspend/resume path).
class field_workspace {
 public:
  struct sizes {
    std::size_t shared_bytes = 0;
    std::size_t thread_bytes = 0;  // per thread lane
    std::size_t transform_bytes = 0;
    int num_threads = 1;
  };

  /// Capacity and high-water usage of one lane — the sizing-headroom
  /// report surfaced per stage in step_timings.
  struct lane_usage {
    std::string name;
    std::size_t capacity_bytes = 0;
    std::size_t peak_bytes = 0;
  };

  /// Lease every lane from `pool`, which must outlive the workspace.
  field_workspace(const sizes& s, block_pool& pool)
      : threads_(static_cast<std::size_t>(s.num_threads > 0 ? s.num_threads
                                                            : 1)) {
    shared_.lease_bytes(pool, s.shared_bytes);
    transform_.lease_bytes(pool, s.transform_bytes);
    for (auto& t : threads_) t.lease_bytes(pool, s.thread_bytes);
  }

  [[nodiscard]] workspace_lane& shared() { return shared_; }
  [[nodiscard]] workspace_lane& transform() { return transform_; }
  [[nodiscard]] workspace_lane& thread(std::size_t tid) {
    return threads_[tid];
  }
  [[nodiscard]] std::size_t num_thread_lanes() const {
    return threads_.size();
  }

  /// Suspend: every lane returns its blocks to the pool for other owners
  /// to recycle. All scopes must be closed.
  void release() {
    shared_.release_slab();
    transform_.release_slab();
    for (auto& t : threads_) t.release_slab();
  }

  /// Resume: every lane leases a slab again (possibly different blocks).
  /// Permanent checkouts must be repeated in construction order by the
  /// owners holding them.
  void reacquire() {
    shared_.reacquire_slab();
    transform_.reacquire_slab();
    for (auto& t : threads_) t.reacquire_slab();
  }

  [[nodiscard]] bool released() const { return shared_.released(); }

  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t b = shared_.capacity_bytes() + transform_.capacity_bytes();
    for (const auto& t : threads_) b += t.capacity_bytes();
    return b;
  }

  /// Per-lane capacity / high-water report (shared, transform, then one
  /// row per thread lane).
  [[nodiscard]] std::vector<lane_usage> usage() const {
    std::vector<lane_usage> u;
    u.push_back({"shared", shared_.capacity_bytes(), shared_.peak_bytes()});
    u.push_back(
        {"transform", transform_.capacity_bytes(), transform_.peak_bytes()});
    for (std::size_t t = 0; t < threads_.size(); ++t)
      u.push_back({"thread[" + std::to_string(t) + "]",
                   threads_[t].capacity_bytes(), threads_[t].peak_bytes()});
    return u;
  }

 private:
  workspace_lane shared_;
  workspace_lane transform_;
  std::vector<workspace_lane> threads_;
};

namespace core {
using pcf::field_workspace;  // the DNS names it core::field_workspace
using pcf::workspace_lane;
}  // namespace core

}  // namespace pcf
