// Hierarchical per-stage phase timing, wired into util/counters.
//
// The paper's Tables 9-10 break a step into sections with MPI_Wtime().
// phase_timer is the one accumulating timer: a *tree* — step > nonlinear >
// {velocities, to_physical, ...} — with each phase also attributing the
// flop/byte counts accumulated while it ran. The paper's flat columns
// (transpose, FFT, N-S advance) are sums over its rows.
//
// Phases are registered once (add()) and identified by small integer ids,
// so start()/stop() in the hot loop are allocation-free: start() drains
// the thread-local counter buckets and snapshots the global total; stop()
// drains again and charges the delta to the phase. Parent phases therefore
// include their children in both wall time and operation counts.
//
// Caveat: the counter buckets are process-global, and vmpi ranks are
// threads of one process — in a multi-rank run another rank's pool may be
// mid-kernel while this rank drains, which is both a data race and
// nonsense attribution. Construct with track_ops = false there (the DNS
// does so automatically for world.size() > 1): start()/stop() then touch
// no counters and record wall time only.
//
// Threads: each phase has one owning thread at a time, and distinct phases
// may run on distinct threads at once (the pencil kernel's comm thread);
// a phase's state is its own. add() and reset() are single-threaded.
#pragma once

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "util/counters.hpp"
#include "util/timer.hpp"

namespace pcf {

/// One row of the hierarchical breakdown.
struct phase_stats {
  std::string name;
  int parent = -1;  // index into the phase list, -1 for roots
  int depth = 0;
  double seconds = 0.0;
  long calls = 0;
  op_counts ops;
};

class phase_timer {
 public:
  using id = int;

  /// @param track_ops attribute flop/byte counters to phases (single-rank
  ///                  only; see the file comment).
  explicit phase_timer(bool track_ops = true) : track_ops_(track_ops) {}

  /// Register a phase under `parent` (-1 for a root). Registration is
  /// construction-time only; ids are stable for the timer's lifetime.
  id add(const std::string& name, id parent = -1) {
    phase_stats p;
    p.name = name;
    p.parent = parent;
    p.depth = parent < 0 ? 0 : phases_[static_cast<std::size_t>(parent)].depth + 1;
    phases_.push_back(p);
    live_.push_back(live{});
    return static_cast<id>(phases_.size() - 1);
  }

  /// Begin timing a phase. Allocation-free. Phases may nest (a child
  /// starting inside its parent); one phase must not be started twice
  /// concurrently.
  void start(id p) {
    auto& l = live_[static_cast<std::size_t>(p)];
    assert(!l.running && "phase started twice without an intervening stop");
    l.running = true;
    if (track_ops_) {
      counters::drain();
      l.mark = counters::total();
    }
    l.t.restart();
  }

  /// End timing; charges wall seconds and the counter delta since start().
  void stop(id p) {
    auto& l = live_[static_cast<std::size_t>(p)];
    auto& s = phases_[static_cast<std::size_t>(p)];
    assert(l.running && "phase stopped without a matching start");
    l.running = false;
    s.seconds += l.t.seconds();
    if (track_ops_) {
      counters::drain();
      const op_counts now = counters::total();
      s.ops.flops += now.flops - l.mark.flops;
      s.ops.bytes_read += now.bytes_read - l.mark.bytes_read;
      s.ops.bytes_written += now.bytes_written - l.mark.bytes_written;
    }
    ++s.calls;
  }

  /// RAII start/stop.
  class section {
   public:
    section(phase_timer& t, id p) : t_(&t), p_(p) { t.start(p); }
    ~section() { t_->stop(p_); }
    section(const section&) = delete;
    section& operator=(const section&) = delete;

   private:
    phase_timer* t_;
    id p_;
  };

  [[nodiscard]] const std::vector<phase_stats>& phases() const {
    return phases_;
  }

  /// Number of phases currently between start() and stop(). Zero at every
  /// step boundary; a nonzero value there means an unbalanced start/stop
  /// pair (the debug asserts in start()/stop() catch the usual culprits).
  [[nodiscard]] int open_phases() const {
    return static_cast<int>(std::count_if(
        live_.begin(), live_.end(), [](const live& l) { return l.running; }));
  }

  /// Zero every phase's accumulation; the registered tree is kept. Resets
  /// are step-boundary operations: no phase may still be open.
  void reset() {
    assert(open_phases() == 0 && "phase timer reset with a phase still open");
    for (auto& p : phases_) {
      p.seconds = 0.0;
      p.calls = 0;
      p.ops = op_counts{};
    }
  }

 private:
  struct live {
    wall_timer t;
    op_counts mark;
    bool running = false;
  };
  bool track_ops_ = true;
  std::vector<phase_stats> phases_;
  std::vector<live> live_;
};

}  // namespace pcf
