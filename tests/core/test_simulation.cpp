// Integration tests of the full channel DNS: exact steady states, analytic
// viscous decay, divergence-free evolution, symmetry preservation, and
// decomposition independence.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <numbers>
#include <set>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
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

TEST(Dns, LaminarPoiseuilleIsExactSteadyState) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    const auto before = dns.mean_profile();
    const double ub0 = dns.bulk_velocity();
    EXPECT_NEAR(ub0, cfg.re_tau / 3.0, 1e-8);
    EXPECT_NEAR(dns.wall_shear_stress(), 1.0, 1e-9);
    for (int s = 0; s < 5; ++s) dns.step();
    const auto after = dns.mean_profile();
    for (std::size_t i = 0; i < before.size(); ++i)
      EXPECT_NEAR(after[i], before[i], 1e-8 * cfg.re_tau);
    EXPECT_NEAR(dns.bulk_velocity(), ub0, 1e-8 * cfg.re_tau);
    EXPECT_NEAR(dns.wall_shear_stress(), 1.0, 1e-8);
    EXPECT_LT(dns.max_divergence(), 1e-10);
  });
}

TEST(Dns, MeanStokesDecayMatchesAnalyticRate) {
  // With no forcing and no fluctuations, U(y, t) = e^{-nu (pi/2)^2 t}
  // cos(pi y / 2) exactly; checks the IMEX viscous integrator and the RK3
  // coefficient sums.
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.forcing = 0.0;
    cfg.re_tau = 1.0;  // nu = 1
    cfg.dt = 5e-4;
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    const auto& ops = dns.operators();
    const double pi = std::numbers::pi;
    std::vector<double> u0(static_cast<std::size_t>(ops.n()));
    for (std::size_t i = 0; i < u0.size(); ++i)
      u0[i] = std::cos(0.5 * pi * ops.points()[i]);
    dns.set_mean_profile(u0);
    const int steps = 100;
    for (int s = 0; s < steps; ++s) dns.step();
    const double t = steps * cfg.dt;
    const double decay = std::exp(-0.25 * pi * pi * t);
    const auto prof = dns.mean_profile();
    for (std::size_t i = 0; i < prof.size(); ++i)
      EXPECT_NEAR(prof[i], decay * u0[i], 1e-6);
  });
}

TEST(Dns, PerturbedFieldStaysDivergenceFree) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    channel_dns dns(cfg, world);
    dns.initialize(0.05);
    for (int s = 0; s < 3; ++s) dns.step();
    EXPECT_LT(dns.max_divergence(), 1e-8);
  });
}

TEST(Dns, FluctuationsDecayInOverdampedRegime) {
  // At very low Reynolds number with no forcing, all energy must decay.
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.forcing = 0.0;
    cfg.re_tau = 1.0;
    cfg.dt = 1e-3;
    channel_dns dns(cfg, world);
    dns.initialize(0.5);
    double prev = dns.kinetic_energy();
    EXPECT_GT(prev, 0.0);
    for (int s = 0; s < 5; ++s) {
      dns.step();
      const double e = dns.kinetic_energy();
      EXPECT_LT(e, prev);
      prev = e;
    }
  });
}

TEST(Dns, HermitianSymmetryOfKxZeroPlanePreserved) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    channel_dns dns(cfg, world);
    dns.initialize(0.05);
    for (int s = 0; s < 3; ++s) dns.step();
    for (std::size_t jz = 1; jz < cfg.nz / 2; ++jz) {
      auto a = dns.mode_v(0, jz);
      auto b = dns.mode_v(0, cfg.nz - jz);
      ASSERT_FALSE(a.empty());
      ASSERT_FALSE(b.empty());
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(a[i] - std::conj(b[i])), 1e-10);
    }
  });
}

TEST(Dns, TurbulentStepRunsStablyAtRe180) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    cfg.dt = 5e-5;
    channel_dns dns(cfg, world);
    dns.initialize(0.2);
    const double e0 = dns.kinetic_energy();
    for (int s = 0; s < 4; ++s) dns.step();
    const double e1 = dns.kinetic_energy();
    EXPECT_TRUE(std::isfinite(e1));
    EXPECT_GT(e1, 0.0);
    EXPECT_LT(e1, 50.0 * e0);  // no blow-up
    EXPECT_TRUE(std::isfinite(dns.cfl()));
    EXPECT_LT(dns.max_divergence(), 1e-7);
  });
}

TEST(Dns, ResultsIndependentOfDecomposition) {
  auto cfg = small_config();
  cfg.dt = 1e-4;
  struct result {
    double bulk, ke, shear;
    std::vector<double> prof;
  };
  auto run_case = [&](int pa, int pb) {
    result r;
    std::mutex m;
    cfg.pa = pa;
    cfg.pb = pb;
    run_world(pa * pb, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.1, 7);
      for (int s = 0; s < 2; ++s) dns.step();
      const double bulk = dns.bulk_velocity();
      const double ke = dns.kinetic_energy();
      const double shear = dns.wall_shear_stress();
      auto prof = dns.mean_profile();
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lk(m);
        r = {bulk, ke, shear, prof};
      }
    });
    return r;
  };
  const auto serial = run_case(1, 1);
  for (auto [pa, pb] : {std::pair{2, 2}, std::pair{1, 4}, std::pair{4, 1}}) {
    const auto par = run_case(pa, pb);
    EXPECT_NEAR(par.bulk, serial.bulk, 1e-9 * std::abs(serial.bulk))
        << pa << "x" << pb;
    EXPECT_NEAR(par.ke, serial.ke, 1e-8 * serial.ke) << pa << "x" << pb;
    EXPECT_NEAR(par.shear, serial.shear, 1e-9) << pa << "x" << pb;
    for (std::size_t i = 0; i < serial.prof.size(); ++i)
      EXPECT_NEAR(par.prof[i], serial.prof[i], 1e-9 * cfg.re_tau);
  }
}

TEST(Dns, ThreadedAdvanceMatchesSerial) {
  auto cfg = small_config();
  std::vector<double> serial, threaded;
  for (int threads : {1, 3}) {
    cfg.advance_threads = threads;
    cfg.fft_threads = threads;
    run_world(1, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.1, 3);
      for (int s = 0; s < 2; ++s) dns.step();
      auto prof = dns.mean_profile();
      auto& out = threads == 1 ? serial : threaded;
      out = prof;
    });
  }
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_NEAR(serial[i], threaded[i], 1e-12);
}

TEST(Dns, StatisticsProfilesAreSane) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    channel_dns dns(cfg, world);
    dns.initialize(0.1);
    dns.step();
    dns.accumulate_stats();
    dns.step();
    dns.accumulate_stats();
    auto p = dns.stats();
    EXPECT_EQ(p.samples, 2);
    ASSERT_EQ(p.u.size(), static_cast<std::size_t>(cfg.ny));
    // No-slip: mean velocity vanishes at both walls.
    EXPECT_NEAR(p.u.front(), 0.0, 1e-8);
    EXPECT_NEAR(p.u.back(), 0.0, 1e-8);
    // Variances are nonnegative everywhere.
    for (std::size_t i = 0; i < p.u.size(); ++i) {
      EXPECT_GE(p.uu[i], -1e-12);
      EXPECT_GE(p.vv[i], -1e-12);
      EXPECT_GE(p.ww[i], -1e-12);
    }
    // Centerline mean close to laminar-ish magnitude (sanity band).
    EXPECT_GT(p.u[p.u.size() / 2], 1.0);
  });
}

TEST(Dns, TimingsBreakdownAccumulates) {
  run_world(1, [&](communicator& world) {
    auto cfg = small_config();
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    dns.step();
    const auto t = dns.timings();
    EXPECT_GT(t.seconds("step"), 0.0);
    EXPECT_GT(t.seconds("fft_c2r"), 0.0);
    EXPECT_GT(t.seconds("implicit"), 0.0);
    dns.reset_timings();
    for (const auto& p : dns.timings().phases) {
      EXPECT_EQ(p.seconds, 0.0) << p.name;
      EXPECT_EQ(p.calls, 0) << p.name;
    }
  });
}

// The pencil kernel's stage rows are children of the transform phases
// that call them, and at pipeline depth 1 every parent encloses its
// children. The exchanges run only where a communicator spans ranks.
TEST(Dns, PencilStageRowsNestUnderTransforms) {
  const char* const kids[2][5] = {
      {"pack_y", "exchange_yz", "fft_z_inverse", "exchange_zx", "fft_c2r"},
      {"fft_r2c", "exchange_xz", "fft_z_forward", "exchange_zy", "unpack_y"}};
  for (const int p : {1, 2}) {
    auto cfg = small_config();
    cfg.pa = cfg.pb = p;
    cfg.pipeline_depth = 1;
    pcf::core::step_timings t;
    run_world(p * p, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.1, 7);
      dns.reset_timings();  // a window of steps only
      for (int s = 0; s < 2; ++s) dns.step();
      if (world.rank() == 0) t = dns.timings();
    });
    // Rows are in tree order: a row's parent is the last row before it one
    // level up.
    const auto& rows = t.phases;
    std::vector<double> kids_s(rows.size(), 0.0);
    std::vector<std::size_t> open;
    std::set<std::string> names;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(names.insert(rows[i].name).second) << rows[i].name;
      while (!open.empty() && rows[open.back()].depth >= rows[i].depth)
        open.pop_back();
      if (!open.empty()) kids_s[open.back()] += rows[i].seconds;
      open.push_back(i);
      const int dir = rows[i].name == "to_physical"   ? 0
                      : rows[i].name == "to_spectral" ? 1
                                                      : -1;
      if (dir < 0) continue;
      ASSERT_LE(i + 6, rows.size());
      for (std::size_t k = 0; k < 5; ++k) {
        const auto& r = rows[i + 1 + k];
        EXPECT_EQ(r.name, kids[dir][k]);
        EXPECT_EQ(r.depth, rows[i].depth + 1) << r.name;
        if (r.name.rfind("exchange_", 0) == 0) {
          EXPECT_EQ(r.calls > 0, p == 2) << r.name << " on " << p << "x" << p;
        }
      }
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
      EXPECT_GE(rows[i].seconds, kids_s[i] - 1e-12)
          << rows[i].name << " on " << p << "x" << p;
  }
}

}  // namespace
