// Shared helpers of the determinism suite: the quickstart configuration
// every trace is pinned at, scratch-path construction, and sanitizer
// detection (the TSan matrix runs a shortened trace to keep wall time
// bounded; see tests/determinism/CMakeLists.txt).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/determinism.hpp"
#include "core/simulation.hpp"

#if defined(__SANITIZE_THREAD__)
#define PCF_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PCF_UNDER_TSAN 1
#endif
#endif
#ifndef PCF_UNDER_TSAN
#define PCF_UNDER_TSAN 0
#endif

namespace pcf_determinism_test {

/// The quickstart configuration (examples/quickstart.cpp): the grid the
/// committed trace tests/determinism/golden_trace_quickstart.csv and the
/// checkpoint pin 0x27d7bb07 are recorded at. Every matrix axis is a
/// variation of this base.
///
/// When PCF_DETERMINISM_TUNED is set (the `determinism-tuned` CMake test
/// preset), every run additionally goes through the transform autotuner
/// against the tuning cache at that path — the first construction seeds
/// the cache, every later one replays it. Bit-identity of the whole suite
/// under this hook is the proof that tuner decisions never change bits.
inline pcf::core::channel_config quickstart_config() {
  pcf::core::channel_config cfg;
  cfg.nx = 16;
  cfg.nz = 16;
  cfg.ny = 33;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  if (const char* cache = std::getenv("PCF_DETERMINISM_TUNED")) {
    cfg.autotune = true;
    if (*cache) cfg.tuning_cache = cache;
  }
  return cfg;
}

/// record_trace with a full suspend -> release -> re-lease -> resume cycle
/// before every step, so the workspace slabs land on possibly different
/// pool blocks each step. Must reproduce the straight trace bit for bit.
inline pcf::determinism::trace record_cycled_trace(
    pcf::core::channel_dns& dns, int nsteps) {
  pcf::determinism::trace t;
  t.steps.push_back(pcf::determinism::fingerprint(dns));
  for (int s = 0; s < nsteps; ++s) {
    dns.suspend();
    dns.resume();
    dns.step();
    t.steps.push_back(pcf::determinism::fingerprint(dns));
  }
  return t;
}

inline constexpr double kQuickstartPerturbation = 0.1;
inline constexpr std::uint64_t kQuickstartSeed = 1;

/// Per-test scratch file under gtest's temp dir (tests run concurrently
/// under `ctest -j`; the name keys on the running test). Parameterized
/// suite/test names contain '/', which must not become directories.
inline std::string scratch_path(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" +
                     info->name() + "_" + tag;
  for (char& c : name)
    if (c == '/') c = '_';
  return ::testing::TempDir() + "/pcf_det_" + name;
}

}  // namespace pcf_determinism_test
