// Restart-continuation parity: a run interrupted at step k, destroyed,
// restored from a checkpoint and continued must reproduce the
// uninterrupted run's per-step state CRCs exactly, for k in {1, mid, N-1},
// with a fixed dt and with the adaptive-dt controller active. RK3 carries
// no nonlinear history across step boundaries (zeta_1 = 0), and the
// checkpoint carries the dt controller's state, so a checkpoint written
// at a step boundary captures the complete dynamical state — any
// divergence is a bug, and the harness names the step and field where it
// appears.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "determinism_test_util.hpp"
#include "core/runner.hpp"
#include "io/atomic_file.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::core::restore_newest_generation;
using pcf::core::resume_or_initialize;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::divergence;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

constexpr int kSteps = PCF_UNDER_TSAN ? 6 : 12;

/// Adaptive dt: the controller changes dt every step, so dt_bits differ
/// from step to step and a restart that lost the controller state diverges
/// on the first step after it.
void enable_cfl_target(channel_dns& dns) {
  dns.set_cfl_target(0.1, 1e-6, 2e-4);
}

/// The uninterrupted reference trace on one rank (every scenario below
/// compares its continuation against rows k..N of it), with a fixed dt or
/// with the CFL target active.
trace& baseline(bool adaptive = false) {
  static trace t[2];
  trace& b = t[adaptive ? 1 : 0];
  if (b.steps.empty())
    run_world(1, [&](communicator& world) {
      channel_dns dns(quickstart_config(), world);
      dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
      if (adaptive) enable_cfl_target(dns);
      b = record_trace(dns, kSteps);
    });
  return b;
}

trace tail_from(const trace& full, int k) {
  trace t;
  t.steps.assign(full.steps.begin() + k, full.steps.end());
  return t;
}

/// Interrupt at step k, save a checkpoint generation as the runner does,
/// destroy the simulation, restore a fresh instance through
/// resume_or_initialize, continue to step N, and return the restored run's
/// per-step trace (rows k..N). The restored instance is configured only by
/// the checkpoint: it calls neither set_dt nor set_cfl_target.
trace interrupted_run(int k, bool adaptive) {
  const std::string ckpt = scratch_path("k" + std::to_string(k) + ".ckpt");
  const channel_config cfg = quickstart_config();

  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    if (adaptive) enable_cfl_target(dns);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint(pcf::io::generation_path(ckpt, dns.step_count()));
  });  // simulation destroyed here

  trace cont;
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg, world);
    const long g = resume_or_initialize(dns, world, ckpt,
                                        kQuickstartPerturbation,
                                        kQuickstartSeed);
    EXPECT_EQ(g, k);
    EXPECT_EQ(dns.step_count(), k);
    cont = record_trace(dns, kSteps - k);
  });
  std::remove(pcf::io::generation_path(ckpt, k).c_str());
  return cont;
}

void expect_continuations_match(bool adaptive) {
  for (int k : {1, kSteps / 2, kSteps - 1}) {
    const auto divs =
        compare(tail_from(baseline(adaptive), k), interrupted_run(k, adaptive));
    EXPECT_TRUE(divs.empty()) << "checkpoint at step " << k
                              << ": restored run diverged:\n"
                              << describe(divs);
  }
}

// k in {1, mid, N-1}: the restored-and-continued run's trace must equal
// the uninterrupted run's rows k..N bit for bit.
TEST(RestartParity, ContinuationMatchesUninterruptedRun) {
  expect_continuations_match(false);
}

// The same with the adaptive-dt controller active: the checkpoint carries
// dt, the CFL target, its clamps and the last CFL, so the restored run
// steps with the evolved dt and keeps adapting it identically.
TEST(RestartParity, ContinuationWithCflTargetMatchesUninterruptedRun) {
  expect_continuations_match(true);
}

// The decomposition-changing restart: interrupt on one rank, continue on
// 2 x 2 (the checkpoint is decomposition-independent) — same trace.
TEST(RestartParityMultiRank, GlobalRestartOntoDifferentGridMatches) {
  const int k = kSteps / 2;
  const std::string ckpt = scratch_path("regrid.ckpt");

  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint(ckpt);
  });

  trace cont;
  channel_config cfg = quickstart_config();
  cfg.pa = 2;
  cfg.pb = 2;
  run_world(4, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.load_checkpoint(ckpt);
    const trace local = record_trace(dns, kSteps - k);
    if (world.rank() == 0) cont = local;
  });
  std::remove(ckpt.c_str());

  const auto divs = compare(tail_from(baseline(), k), cont);
  EXPECT_TRUE(divs.empty()) << "1-rank -> 2x2 restart diverged:\n"
                            << describe(divs);
}

// Restart parity on a 2-rank split through the runner's generations
// (resume_or_initialize walks the generation list collectively).
TEST(RestartParityMultiRank, GenerationRestartOnTwoRanksMatches) {
  const int k = kSteps / 2;
  channel_config cfg = quickstart_config();
  cfg.pa = 2;

  const std::string ckpt = scratch_path("tworank.ckpt");

  trace uninterrupted;
  run_world(2, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    const trace local = record_trace(dns, kSteps);
    if (world.rank() == 0) uninterrupted = local;
  });
  {
    const auto divs = compare(baseline(), uninterrupted);
    ASSERT_TRUE(divs.empty())
        << "2-rank uninterrupted run diverged from 1-rank baseline:\n"
        << describe(divs);
  }

  run_world(2, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint(pcf::io::generation_path(ckpt, dns.step_count()));
  });

  trace cont;
  run_world(2, [&](communicator& world) {
    channel_dns dns(cfg, world);
    const long g = resume_or_initialize(dns, world, ckpt,
                                        kQuickstartPerturbation,
                                        kQuickstartSeed);
    EXPECT_EQ(g, k);
    const trace local = record_trace(dns, kSteps - k);
    if (world.rank() == 0) cont = local;
  });
  std::remove(pcf::io::generation_path(ckpt, k).c_str());

  const auto divs = compare(tail_from(uninterrupted, k), cont);
  EXPECT_TRUE(divs.empty()) << "2-rank generation restart diverged:\n"
                            << describe(divs);
}

// The blow-up recovery path (runner's reduced-dt retry): blow the run up
// with an absurd dt, restore the newest good generation IN PLACE — the
// solver arenas still hold bands factored for the blow-up dt — reduce dt,
// and continue. The continuation must be bit-identical to a fresh
// instance restored from the same generation with the same reduced dt:
// stale factored bands surviving the restore would diverge at step one.
TEST(RestartRecovery, InPlaceRestoreWithReducedDtMatchesFreshInstance) {
  const int k = 3, m = PCF_UNDER_TSAN ? 3 : 6;
  const double reduced_dt = 5e-5;
  const std::string ckpt = scratch_path("blowup.ckpt");

  trace recovered;
  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint(pcf::io::generation_path(ckpt, dns.step_count()));
    // Provoke the blow-up: a dt four orders of magnitude past stability.
    dns.set_dt(1.0);
    for (int s = 0; s < 8 && std::isfinite(dns.kinetic_energy()); ++s)
      dns.step();
    ASSERT_FALSE(std::isfinite(dns.kinetic_energy()))
        << "blow-up provocation failed; the recovery path was not exercised";
    const long g = restore_newest_generation(dns, world, ckpt);
    ASSERT_EQ(g, k);
    dns.set_dt(reduced_dt);
    recovered = record_trace(dns, m);
  });

  trace fresh;
  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.load_checkpoint(pcf::io::generation_path(ckpt, k));
    dns.set_dt(reduced_dt);
    fresh = record_trace(dns, m);
  });
  std::remove(pcf::io::generation_path(ckpt, k).c_str());

  const auto divs = compare(fresh, recovered);
  EXPECT_TRUE(divs.empty())
      << "in-place blow-up recovery diverged from a fresh restore:\n"
      << describe(divs);
}

// Same-instance reload without any dt change: load_checkpoint must reset
// the run to the saved state exactly even when the instance has already
// stepped past it (the arenas and histories carry no pre-restore state).
TEST(RestartRecovery, InPlaceReloadRewindsExactly) {
  const int k = 2, m = PCF_UNDER_TSAN ? 3 : 5;
  const std::string ckpt = scratch_path("rewind.ckpt");

  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint(ckpt);
    const trace onward = record_trace(dns, m);
    dns.load_checkpoint(ckpt);
    EXPECT_EQ(dns.step_count(), k);
    const trace replay = record_trace(dns, m);
    const auto divs = compare(onward, replay);
    EXPECT_TRUE(divs.empty())
        << "in-place rewind replay diverged:\n"
        << describe(divs);
  });
  std::remove(ckpt.c_str());
}

}  // namespace
