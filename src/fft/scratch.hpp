// Per-thread scratch arena for FFT plan execution.
//
// Each execute_many call checks out its two block buffers (plus the
// Bluestein work buffer) under one scope. Checkouts may still nest on one
// thread — a caller holding scratch can execute a plan — and a single
// shared thread_local std::vector (an earlier implementation) is unsafe to
// extend under nesting: growing it moves the storage out from under the
// outer checkout's live pointers. This arena makes the nesting explicit
// and safe:
//
//  * Checkouts are grouped under LIFO `scope`s (asserted). A nested scope
//    that outgrows the current chunk gets a NEW chunk; existing chunks
//    never move, so the outer scope's pointers stay valid.
//  * Growth is bounded: when the outermost scope closes, the arena
//    consolidates — if retained capacity exceeds 4x the high-water mark of
//    the epoch just finished, it reallocates down to the high-water mark.
//    A thread that executed one huge plan and then only small ones does
//    not pin the huge footprint forever.
//
// Internal to pcf_fft (and its tests); not installed.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace pcf::fft::detail {

class scratch_arena {
  using cplx = std::complex<double>;

 public:
  /// Smallest chunk the arena keeps (elements): small plans never trigger
  /// reallocation churn.
  static constexpr std::size_t kMinChunk = 1024;

  /// LIFO checkout scope. All allocations made through a scope are
  /// released together when it is destroyed; scopes must nest.
  class scope {
   public:
    explicit scope(scratch_arena& a) : a_(a), base_(a.mark_()) {}
    ~scope() { a_.release_(base_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    /// Checkout `n` elements (stable address until this scope closes).
    [[nodiscard]] cplx* alloc(std::size_t n) { return a_.alloc_(n); }

   private:
    struct mark {
      std::size_t chunk;
      std::size_t off;
      std::size_t live;
    };
    scratch_arena& a_;
    mark base_;
    friend class scratch_arena;
  };

  /// The calling thread's arena.
  static scratch_arena& tls() {
    static thread_local scratch_arena a;
    return a;
  }

  /// Elements currently checked out across all open scopes.
  [[nodiscard]] std::size_t live_elems() const { return live_; }
  /// Elements of backing storage currently retained (the growth bound
  /// under test: <= 4x the previous epoch's peak after consolidation).
  [[nodiscard]] std::size_t retained_elems() const {
    std::size_t c = 0;
    for (const auto& ch : chunks_) c += ch.cap;
    return c;
  }

 private:
  // One stable-address heap slab. The vector of chunks may reallocate;
  // the slabs themselves never move.
  struct chunk {
    std::unique_ptr<cplx[]> p;
    std::size_t cap = 0;
    std::size_t used = 0;
  };

  static chunk make_chunk_(std::size_t cap_elems) {
    return {std::make_unique<cplx[]>(cap_elems), cap_elems, 0};
  }

  scope::mark mark_() const { return {cur_, chunks_.empty() ? 0 : chunks_[cur_].used, live_}; }

  cplx* alloc_(std::size_t n) {
    if (n == 0) return nullptr;
    // Advance past full chunks into any empty ones left over beyond the
    // frontier (all chunks after cur_ have used == 0) before appending.
    while (cur_ + 1 < chunks_.size() &&
           chunks_[cur_].used + n > chunks_[cur_].cap)
      ++cur_;
    if (chunks_.empty() || chunks_[cur_].used + n > chunks_[cur_].cap) {
      // Never resize an existing chunk: outer scopes hold pointers into
      // them. Append a chunk big enough for this checkout (doubling so a
      // sequence of growing checkouts stays O(log) chunks).
      const std::size_t cap = std::max({n, kMinChunk, retained_elems()});
      chunks_.push_back(make_chunk_(cap));
      cur_ = chunks_.size() - 1;
    }
    chunk& c = chunks_[cur_];
    cplx* p = c.p.get() + c.used;
    c.used += n;
    live_ += n;
    high_ = std::max(high_, live_);
    return p;
  }

  void release_(const scope::mark& m) {
    // LIFO discipline: the closing scope must sit at or above the current
    // allocation frontier.
    PCF_ASSERT(m.chunk <= cur_ && m.live <= live_);
    for (std::size_t i = cur_; i > m.chunk; --i) chunks_[i].used = 0;
    if (!chunks_.empty()) {
      PCF_ASSERT(m.off <= chunks_[m.chunk].used);
      chunks_[m.chunk].used = m.off;
    }
    cur_ = m.chunk;
    live_ = m.live;
    if (live_ == 0) consolidate_();
  }

  void consolidate_() {
    // Outermost scope closed: bound the retained footprint to the epoch's
    // actual need. Multiple chunks always merge (so the next epoch's
    // checkouts are contiguous again); a single oversized chunk shrinks
    // only past 4x to avoid thrashing between plans of alternating size.
    const std::size_t want = std::max(high_, kMinChunk);
    const std::size_t have = retained_elems();
    if (chunks_.size() > 1 || have > 4 * want) {
      chunks_.clear();
      chunks_.push_back(make_chunk_(want));
    }
    cur_ = 0;
    high_ = 0;
  }

  std::vector<chunk> chunks_;
  std::size_t cur_ = 0;   // chunk currently allocated from
  std::size_t live_ = 0;  // elements checked out
  std::size_t high_ = 0;  // epoch high-water mark
};

}  // namespace pcf::fft::detail
