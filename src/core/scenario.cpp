// channel_config::validate(): every documented configuration constraint,
// checked at the API boundary with a message naming the offending key.
// Without this, a bad value from a campaign job file fails deep inside the
// pencil/bspline layers ("nx must be divisible by 4" with no idea which of
// 64 jobs said so) or, worse, runs to silent garbage (a negative stretch
// produces non-monotone breakpoints).
#include <cmath>
#include <string>

#include "core/simulation.hpp"
#include "util/check.hpp"

namespace pcf::core {

namespace {

[[noreturn]] void bad(const std::string& key, const std::string& what) {
  throw precondition_error("channel_config: " + key + " " + what);
}

void require_finite(const std::string& key, double v) {
  if (!std::isfinite(v)) bad(key, "must be finite, got " + std::to_string(v));
}

void require_positive(const std::string& key, double v) {
  require_finite(key, v);
  if (!(v > 0.0)) bad(key, "must be positive, got " + std::to_string(v));
}

}  // namespace

void channel_config::validate() const {
  // Grid divisibility: the pencil kernel's dealiased transforms require
  // nx % 4 == 0 and nz % 2 == 0 (pencil::decomp asserts the same, but only
  // after the communicator split).
  if (nx < 4 || nx % 4 != 0)
    bad("nx", "must be a positive multiple of 4, got " + std::to_string(nx));
  if (nz < 2 || nz % 2 != 0)
    bad("nz", "must be a positive even value, got " + std::to_string(nz));

  // Wall-normal basis: degree >= 1 and enough basis functions for the
  // collocation interpolant's banded solver (ny >= 2 * degree + 1, the
  // bspline layer's n >= 2p+1 requirement).
  if (degree < 1) bad("degree", "must be >= 1, got " + std::to_string(degree));
  if (ny < 2 * degree + 1)
    bad("ny", "must be >= 2 * degree + 1 = " + std::to_string(2 * degree + 1) +
                  " for degree " + std::to_string(degree) + ", got " +
                  std::to_string(ny));

  require_positive("stretch", stretch);
  require_positive("lx", lx);
  require_positive("lz", lz);
  require_positive("re_tau", re_tau);
  require_positive("dt", dt);
  require_finite("forcing", forcing);

  if (max_batch < 1)
    bad("max_batch", "must be >= 1, got " + std::to_string(max_batch));
  if (pipeline_depth < 1)
    bad("pipeline_depth",
        "must be >= 1, got " + std::to_string(pipeline_depth));
  if (fft_threads < 1)
    bad("fft_threads", "must be >= 1, got " + std::to_string(fft_threads));
  if (reorder_threads < 1)
    bad("reorder_threads",
        "must be >= 1, got " + std::to_string(reorder_threads));
  if (advance_threads < 1)
    bad("advance_threads",
        "must be >= 1, got " + std::to_string(advance_threads));
  if (pa == 0 && pb == 0) {
    if (!autotune) bad("pa", "= pb = 0 (measure the split) needs autotune");
  } else if (pa < 1 || pb < 1) {
    bad("pa", "and pb must both be >= 1 (or both 0 with autotune), got " +
                  std::to_string(pa) + " x " + std::to_string(pb));
  }

  require_finite("wall_u_lo", scenario.wall_u_lo);
  require_finite("wall_u_hi", scenario.wall_u_hi);
  require_finite("wall_w_lo", scenario.wall_w_lo);
  require_finite("wall_w_hi", scenario.wall_w_hi);
  require_finite("target_bulk", scenario.target_bulk);
  if (scenario.scalars.size() > kMaxScalars)
    bad("scalars", "supports at most " + std::to_string(kMaxScalars) +
                       " passive scalars, got " +
                       std::to_string(scenario.scalars.size()));
  for (std::size_t s = 0; s < scenario.scalars.size(); ++s) {
    const std::string key = "scalar[" + std::to_string(s) + "]";
    const scalar_spec& sp = scenario.scalars[s];
    require_positive(key + ".prandtl", sp.prandtl);
    require_finite(key + ".wall_lo", sp.wall_lo);
    require_finite(key + ".wall_hi", sp.wall_hi);
  }
}

}  // namespace pcf::core
