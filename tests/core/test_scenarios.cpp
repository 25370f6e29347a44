// The scenario family layered on the classical channel: plane Couette
// walls (exact laminar linear profile), constant-flow-rate forcing (bulk
// velocity held exactly by linearity of the mean Helmholtz solve), and
// passive scalars (exact conduction steady state, analytic diffusive
// decay). Plus the config validation boundary and the scenario-state
// checkpoint round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "util/check.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::core::forcing_mode;
using pcf::core::scalar_spec;
using pcf::precondition_error;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config small_config() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 24;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  return cfg;
}

std::string scratch(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/pcf_scen_" +
         std::string(info->test_suite_name()) + "_" + info->name() + "_" + tag;
}

}  // namespace

TEST(Scenarios, LaminarCouetteIsExactSteadyState) {
  // Plane Couette with no pressure gradient: U(y) = U_lo (1-y)/2 +
  // U_hi (1+y)/2 solves nu U'' = 0 with the moving-wall BCs, so the
  // initialized profile must not move.
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.forcing = 0.0;
    cfg.scenario.wall_u_lo = -1.0;
    cfg.scenario.wall_u_hi = 1.0;
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    const auto& pts = dns.operators().points();
    auto expect_linear = [&](double tol) {
      const auto prof = dns.mean_profile();
      for (std::size_t i = 0; i < prof.size(); ++i) {
        const double y = pts[i];
        const double exact = -0.5 * (1.0 - y) + 0.5 * (1.0 + y);
        EXPECT_NEAR(prof[i], exact, tol) << "y = " << y;
      }
    };
    expect_linear(1e-10);
    EXPECT_NEAR(dns.bulk_velocity(), 0.0, 1e-10);
    for (int s = 0; s < 20; ++s) dns.step();
    expect_linear(1e-8);
    // tau_w = nu dU/dy = (U_hi - U_lo) / (2 re_tau) at the lower wall.
    EXPECT_NEAR(dns.wall_shear_stress(), 1.0 / cfg.re_tau, 1e-9);
    EXPECT_LT(dns.max_divergence(), 1e-10);
  });
}

TEST(Scenarios, CouettePoiseuilleSuperpositionIsSteady) {
  // The mean equation is linear: Couette (homogeneous, wall-driven) plus
  // Poiseuille (forced, no-slip relative) superpose to another exact
  // steady state.
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.scenario.wall_u_lo = -2.0;
    cfg.scenario.wall_u_hi = 3.0;
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    const auto before = dns.mean_profile();
    const double ub0 = dns.bulk_velocity();
    // Bulk = Poiseuille bulk + Couette bulk = re_tau/3 + (lo + hi)/2.
    EXPECT_NEAR(ub0, cfg.re_tau / 3.0 + 0.5, 1e-8);
    for (int s = 0; s < 5; ++s) dns.step();
    const auto after = dns.mean_profile();
    for (std::size_t i = 0; i < before.size(); ++i)
      EXPECT_NEAR(after[i], before[i], 1e-8 * cfg.re_tau);
    EXPECT_NEAR(dns.bulk_velocity(), ub0, 1e-8 * cfg.re_tau);
  });
}

TEST(Scenarios, SpanwiseWallMotionRunsStably) {
  // Spanwise wall motion (W walls) rides the same mean machinery; a
  // perturbed run must stay finite and divergence-free.
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.scenario.wall_w_lo = -0.5;
    cfg.scenario.wall_w_hi = 0.5;
    channel_dns dns(cfg, world);
    dns.initialize(0.05);
    for (int s = 0; s < 3; ++s) dns.step();
    EXPECT_TRUE(std::isfinite(dns.kinetic_energy()));
    EXPECT_LT(dns.max_divergence(), 1e-8);
  });
}

TEST(Scenarios, LaminarScalarConductionIsExactSteadyState) {
  // With zero fluctuations the scalar equation reduces to pure wall-normal
  // conduction; the linear profile between the wall values is its exact
  // steady state, and the wall flux is kappa (hi - lo) / 2.
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.scenario.scalars.push_back(scalar_spec{0.71, 0.0, 1.0});
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    ASSERT_EQ(dns.num_scalars(), 1u);
    const auto& pts = dns.operators().points();
    auto expect_linear = [&](double tol) {
      const auto prof = dns.scalar_profile(0);
      for (std::size_t i = 0; i < prof.size(); ++i)
        EXPECT_NEAR(prof[i], 0.5 * (1.0 + pts[i]), tol) << "y = " << pts[i];
    };
    expect_linear(1e-10);
    for (int s = 0; s < 20; ++s) dns.step();
    expect_linear(1e-8);
    const double kappa = 1.0 / (cfg.re_tau * 0.71);
    EXPECT_NEAR(dns.scalar_wall_flux(0), kappa * 0.5, 1e-9);
  });
}

TEST(Scenarios, ScalarStokesDecayMatchesAnalyticRate) {
  // theta(y, t) = e^{-kappa (pi/2)^2 t} cos(pi y / 2) exactly when the
  // velocity carries no wall-normal motion. Two Prandtl numbers check that
  // each scalar advances with its own diffusivity (the grouped implicit
  // solves must not mix kappas).
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.forcing = 0.0;
    cfg.re_tau = 1.0;  // nu = 1
    cfg.dt = 5e-4;
    cfg.scenario.scalars.push_back(scalar_spec{1.0, 0.0, 0.0});  // kappa 1
    cfg.scenario.scalars.push_back(scalar_spec{4.0, 0.0, 0.0});  // kappa 1/4
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    const auto& ops = dns.operators();
    const double pi = std::numbers::pi;
    std::vector<double> th0(static_cast<std::size_t>(ops.n()));
    for (std::size_t i = 0; i < th0.size(); ++i)
      th0[i] = std::cos(0.5 * pi * ops.points()[i]);
    dns.set_scalar_profile(0, th0);
    dns.set_scalar_profile(1, th0);
    const int steps = 100;
    for (int s = 0; s < steps; ++s) dns.step();
    const double t = steps * cfg.dt;
    for (std::size_t sc = 0; sc < 2; ++sc) {
      const double kappa = 1.0 / cfg.scenario.scalars[sc].prandtl;
      const double decay = std::exp(-0.25 * pi * pi * kappa * t);
      const auto prof = dns.scalar_profile(sc);
      for (std::size_t i = 0; i < prof.size(); ++i)
        EXPECT_NEAR(prof[i], decay * th0[i], 1e-6)
            << "scalar " << sc << " at y = " << ops.points()[i];
    }
  });
}

TEST(Scenarios, ConstantFlowRateHoldsBulkVelocity) {
  // The quickstart grid under flow-rate forcing: the auto-captured target
  // is the initial bulk, and every later step holds it to roundoff — the
  // substep constraint is exact by linearity, not a controller.
  run_world(1, [&](communicator& world) {
    channel_config cfg;
    cfg.nx = 16;
    cfg.nz = 16;
    cfg.ny = 33;
    cfg.re_tau = 180.0;
    cfg.dt = 1e-4;
    cfg.scenario.forcing = forcing_mode::flow_rate;
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 1);
    const double ub0 = dns.bulk_velocity();
    EXPECT_DOUBLE_EQ(dns.flow_rate_target(), 0.0) << "target not yet captured";
    for (int s = 0; s < 25; ++s) {
      dns.step();
      EXPECT_NEAR(dns.bulk_velocity(), ub0, 1e-12 * std::abs(ub0))
          << "step " << s + 1;
    }
    // The capture reads the same integrate(c_U)/2 the observable does, so
    // the resolved target equals the pre-step bulk bit-for-bit.
    EXPECT_DOUBLE_EQ(dns.flow_rate_target(), ub0);
    EXPECT_TRUE(std::isfinite(dns.current_forcing()));
  });
}

TEST(Scenarios, ExplicitFlowRateTargetIsReachedImmediately) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.scenario.forcing = forcing_mode::flow_rate;
    cfg.scenario.target_bulk = 50.0;  // below the laminar re_tau/3 = 60
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    EXPECT_DOUBLE_EQ(dns.flow_rate_target(), 50.0);
    dns.step();
    // The constraint is enforced per substep, so one step suffices.
    EXPECT_NEAR(dns.bulk_velocity(), 50.0, 1e-10);
    // Decelerating toward a lower bulk needs a negative (adverse) forcing.
    EXPECT_LT(dns.current_forcing(), 0.0);
  });
}

TEST(Scenarios, ValidateRejectsBadConfigsNamingTheKey) {
  struct bad_case {
    const char* needle;
    void (*mutate)(channel_config&);
  };
  const bad_case cases[] = {
      {"nx", [](channel_config& c) { c.nx = 6; }},
      {"nz", [](channel_config& c) { c.nz = 7; }},
      {"degree", [](channel_config& c) { c.degree = 0; }},
      {"ny", [](channel_config& c) { c.ny = 10; }},  // < 2*7 + 1
      {"stretch", [](channel_config& c) { c.stretch = -1.0; }},
      {"lx", [](channel_config& c) { c.lx = 0.0; }},
      {"lz", [](channel_config& c) { c.lz = -2.0; }},
      {"re_tau", [](channel_config& c) { c.re_tau = 0.0; }},
      {"dt", [](channel_config& c) { c.dt = 0.0; }},
      {"forcing", [](channel_config& c) { c.forcing = std::nan(""); }},
      {"max_batch", [](channel_config& c) { c.max_batch = 0; }},
      {"pipeline_depth", [](channel_config& c) { c.pipeline_depth = 0; }},
      {"fft_threads", [](channel_config& c) { c.fft_threads = 0; }},
      {"reorder_threads", [](channel_config& c) { c.reorder_threads = -1; }},
      {"advance_threads", [](channel_config& c) { c.advance_threads = 0; }},
      {"replica_c", [](channel_config& c) { c.replica_c = -1; }},
      {"wall_u_lo",
       [](channel_config& c) { c.scenario.wall_u_lo = std::nan(""); }},
      {"wall_w_hi",
       [](channel_config& c) {
         c.scenario.wall_w_hi = std::numeric_limits<double>::infinity();
       }},
      {"target_bulk",
       [](channel_config& c) { c.scenario.target_bulk = std::nan(""); }},
      {"scalars",
       [](channel_config& c) { c.scenario.scalars.resize(9); }},
      {"prandtl",
       [](channel_config& c) {
         c.scenario.scalars.push_back(scalar_spec{0.0, 0.0, 0.0});
       }},
      {"wall_lo",
       [](channel_config& c) {
         c.scenario.scalars.push_back(scalar_spec{1.0, std::nan(""), 0.0});
       }},
  };
  for (const auto& bc : cases) {
    channel_config cfg = small_config();
    bc.mutate(cfg);
    try {
      cfg.validate();
      FAIL() << "expected validate() to reject the '" << bc.needle
             << "' mutation";
    } catch (const precondition_error& ex) {
      EXPECT_NE(std::string(ex.what()).find(bc.needle), std::string::npos)
          << ex.what();
    }
  }
}

TEST(Scenarios, ConstructorValidatesBeforeBuildingAnything) {
  // The channel_dns constructor runs validate() first, so a bad config
  // fails with the named key instead of deep in the spline layer.
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.ny = 10;  // < 2 * degree + 1
    try {
      channel_dns dns(cfg, world);
      FAIL() << "expected the constructor to reject ny = 10";
    } catch (const precondition_error& ex) {
      EXPECT_NE(std::string(ex.what()).find("ny"), std::string::npos)
          << ex.what();
    }
  });
}

namespace {

/// Save `a`, load into a freshly initialized `b`, and require
/// bit-identical observables — then one more step on both to prove the
/// restored run continues exactly (RK3 carries no nonlinear history across
/// step boundaries).
void roundtrip_and_compare(const channel_config& cfg) {
  const std::string path = scratch("ckpt");
  run_world(1, [&](communicator& world) {
    channel_dns a(cfg, world);
    a.initialize(0.1, 2);
    for (int s = 0; s < 3; ++s) a.step();
    a.save_checkpoint(path);

    channel_dns b(cfg, world);
    b.initialize(0.0);
    b.load_checkpoint(path);
    EXPECT_EQ(b.step_count(), a.step_count());
    EXPECT_DOUBLE_EQ(b.time(), a.time());
    EXPECT_DOUBLE_EQ(b.flow_rate_target(), a.flow_rate_target());
    EXPECT_DOUBLE_EQ(b.current_forcing(), a.current_forcing());

    auto expect_identical = [&](channel_dns& x, channel_dns& y) {
      EXPECT_DOUBLE_EQ(y.bulk_velocity(), x.bulk_velocity());
      const auto mx = x.mean_profile(), my = y.mean_profile();
      ASSERT_EQ(my.size(), mx.size());
      for (std::size_t i = 0; i < mx.size(); ++i)
        EXPECT_DOUBLE_EQ(my[i], mx[i]) << "mean[" << i << "]";
      for (std::size_t sc = 0; sc < x.num_scalars(); ++sc) {
        const auto tx = x.scalar_profile(sc), ty = y.scalar_profile(sc);
        ASSERT_EQ(ty.size(), tx.size());
        for (std::size_t i = 0; i < tx.size(); ++i)
          EXPECT_DOUBLE_EQ(ty[i], tx[i]) << "scalar " << sc << "[" << i << "]";
        const auto vx = x.mode_scalar(sc, 1, 1), vy = y.mode_scalar(sc, 1, 1);
        ASSERT_EQ(vy.size(), vx.size());
        for (std::size_t i = 0; i < vx.size(); ++i) {
          EXPECT_DOUBLE_EQ(vy[i].real(), vx[i].real());
          EXPECT_DOUBLE_EQ(vy[i].imag(), vx[i].imag());
        }
      }
    };
    expect_identical(a, b);
    a.step();
    b.step();
    expect_identical(a, b);
  });
  std::remove(path.c_str());
}

channel_config scenario_checkpoint_config() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 24;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  cfg.scenario.wall_u_lo = -0.5;
  cfg.scenario.wall_u_hi = 0.5;
  cfg.scenario.forcing = forcing_mode::flow_rate;
  cfg.scenario.scalars.push_back(scalar_spec{0.71, 0.0, 1.0});
  cfg.scenario.scalars.push_back(scalar_spec{7.0, -1.0, 1.0});
  return cfg;
}

}  // namespace

TEST(Scenarios, ParallelCheckpointRoundTripsScenarioState) {
  roundtrip_and_compare(scenario_checkpoint_config());
}
