// Wall-clock timing, the moral equivalent of the paper's MPI_Wtime() use.
// Accumulated per-section timing lives in util/phase_timer.hpp.
#pragma once

#include <chrono>

namespace pcf {

/// Monotonic wall-clock stopwatch.
class wall_timer {
  using clock = std::chrono::steady_clock;

 public:
  wall_timer() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last restart().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  clock::time_point start_;
};

}  // namespace pcf
