// Adaptive time stepping and the implicit-solver cache.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config cfg_small() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 24;
  cfg.dt = 1e-4;
  return cfg;
}

/// One step. With `uncached`, the run is parked and resumed first: that
/// drops every factored solver arena and mean-flow operator, so the step
/// rebuilds them cold. Those runs are the reference for the warm caches.
void step(channel_dns& dns, bool uncached) {
  if (uncached) {
    dns.suspend();
    dns.resume();
  }
  dns.step();
}

TEST(SolverCache, CachedAndUncachedAreIdentical) {
  std::vector<double> cached, uncached;
  for (bool cache : {true, false}) {
    auto cfg = cfg_small();
    run_world(1, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.1, 11);
      for (int s = 0; s < 3; ++s) step(dns, !cache);
      auto& out = cache ? cached : uncached;
      out = dns.mean_profile();
      out.push_back(dns.kinetic_energy());
    });
  }
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i)
    EXPECT_DOUBLE_EQ(cached[i], uncached[i]);
}

TEST(SolverCache, RepeatedStepsReuseFactorizations) {
  // With the cache on, steps after the first must not get slower; the real
  // check is correctness: energies follow the same trajectory as a fresh
  // instance stepping once more.
  auto cfg = cfg_small();
  run_world(1, [&](communicator& world) {
    channel_dns a(cfg, world), b(cfg, world);
    a.initialize(0.1, 2);
    b.initialize(0.1, 2);
    a.step();
    a.step();
    b.step();
    b.step();
    EXPECT_DOUBLE_EQ(a.kinetic_energy(), b.kinetic_energy());
  });
}

TEST(AdaptiveDt, SetDtTakesEffectAndStaysCorrect) {
  // Mean Stokes decay with a dt change mid-run still matches the analytic
  // solution (the solver cache must be invalidated on the change).
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    cfg.forcing = 0.0;
    cfg.re_tau = 1.0;
    cfg.dt = 5e-4;
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    const auto& ops = dns.operators();
    const double pi = std::numbers::pi;
    std::vector<double> u0(static_cast<std::size_t>(ops.n()));
    for (std::size_t i = 0; i < u0.size(); ++i)
      u0[i] = std::cos(0.5 * pi * ops.points()[i]);
    dns.set_mean_profile(u0);
    for (int s = 0; s < 40; ++s) dns.step();
    dns.set_dt(2.5e-4);
    for (int s = 0; s < 80; ++s) dns.step();
    const double t = 40 * 5e-4 + 80 * 2.5e-4;
    EXPECT_NEAR(dns.time(), t, 1e-12);
    const double decay = std::exp(-0.25 * pi * pi * t);
    const auto prof = dns.mean_profile();
    for (std::size_t i = 0; i < prof.size(); ++i)
      EXPECT_NEAR(prof[i], decay * u0[i], 1e-6);
  });
}

TEST(SolverCache, CachedAndUncachedAgreeAcrossDtChange) {
  // set_dt must invalidate the solver arena AND the factored mean-flow
  // operator cache; a stale mean operator would make the cached run drift
  // from the one that rebuilds every step.
  std::vector<double> cached, uncached;
  for (bool cache : {true, false}) {
    auto cfg = cfg_small();
    run_world(1, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.1, 5);
      for (int s = 0; s < 2; ++s) step(dns, !cache);
      dns.set_dt(7e-5);
      for (int s = 0; s < 2; ++s) step(dns, !cache);
      auto& out = cache ? cached : uncached;
      out = dns.mean_profile();
      out.push_back(dns.kinetic_energy());
    });
  }
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i)
    EXPECT_DOUBLE_EQ(cached[i], uncached[i]);
}

TEST(SolverCache, ResettingTheSameDtEveryStepKeepsTheTrajectory) {
  // bench_ablations times the refactor-every-substep path as set_dt(dt())
  // before each step; the rebuilt factorizations must reproduce the warm
  // cache exactly, or that row would time a different computation.
  std::vector<double> warm, reset;
  for (bool reset_dt : {false, true}) {
    auto cfg = cfg_small();
    run_world(1, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.1, 7);
      for (int s = 0; s < 3; ++s) {
        if (reset_dt) dns.set_dt(dns.dt());
        dns.step();
      }
      auto& out = reset_dt ? reset : warm;
      out = dns.mean_profile();
      out.push_back(dns.kinetic_energy());
    });
  }
  ASSERT_EQ(warm.size(), reset.size());
  for (std::size_t i = 0; i < warm.size(); ++i)
    EXPECT_DOUBLE_EQ(warm[i], reset[i]);
}

TEST(SolverCache, CflControllerRebuildsMatchUncached) {
  // With the CFL controller changing dt mid-run, the cached arenas are
  // rebuilt; the trajectory must match a run that rebuilds every step.
  std::vector<double> cached, uncached;
  for (bool cache : {true, false}) {
    auto cfg = cfg_small();
    cfg.dt = 2e-5;
    run_world(1, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.1, 3);
      dns.set_cfl_target(0.4, 1e-6, 5e-3);
      for (int s = 0; s < 8; ++s) step(dns, !cache);
      auto& out = cache ? cached : uncached;
      out = dns.mean_profile();
      out.push_back(dns.kinetic_energy());
      out.push_back(dns.dt());
    });
  }
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i)
    EXPECT_DOUBLE_EQ(cached[i], uncached[i]);
}

TEST(AdaptiveDt, ControllerDrivesCflTowardTarget) {
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    cfg.dt = 1e-5;  // start far below the target
    channel_dns dns(cfg, world);
    dns.initialize(0.1);
    dns.set_cfl_target(0.5, 1e-6, 1e-2);
    for (int s = 0; s < 40; ++s) dns.step();
    EXPECT_GT(dns.dt(), 1e-5);          // controller increased dt
    EXPECT_NEAR(dns.cfl(), 0.5, 0.25);  // and tracks the target loosely
  });
}

TEST(AdaptiveDt, ControllerRespectsBounds) {
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    cfg.dt = 1e-4;
    channel_dns dns(cfg, world);
    dns.initialize(0.1);
    dns.set_cfl_target(100.0, 1e-5, 2e-4);  // absurd target -> clamp at max
    for (int s = 0; s < 10; ++s) dns.step();
    EXPECT_LE(dns.dt(), 2e-4 + 1e-15);
  });
}

TEST(AdaptiveDt, RejectsBadArguments) {
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    EXPECT_THROW(dns.set_dt(0.0), pcf::precondition_error);
    EXPECT_THROW(dns.set_cfl_target(1.0, 0.0, 1.0), pcf::precondition_error);
    EXPECT_THROW(dns.set_cfl_target(1.0, 1e-3, 1e-4), pcf::precondition_error);
  });
}

}  // namespace
