// Scenario axis of the determinism matrix: the bit-identity contract
// (DESIGN.md) extends to every scenario — Couette walls, constant
// flow-rate forcing, passive scalars. Each scenario pins ONE per-step CRC
// trace across thread counts and rank decompositions, and the scenario
// checkpoint sections join the fingerprint through crc_scalars (nonzero
// exactly when scenario state exists, so default-channel golden traces
// stay frozen).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "determinism_test_util.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::core::forcing_mode;
using pcf::core::scalar_spec;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::read_trace_csv;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::determinism::write_trace_csv;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

constexpr int kSteps = PCF_UNDER_TSAN ? 4 : 8;

/// The three scenario variants of the quickstart configuration. Every
/// variation below (threads, decomposition) must reproduce the variant's
/// own single-rank single-thread trace.
channel_config couette_config() {
  channel_config cfg = quickstart_config();
  cfg.scenario.wall_u_lo = -1.0;
  cfg.scenario.wall_u_hi = 1.0;
  cfg.scenario.wall_w_lo = -0.25;
  cfg.scenario.wall_w_hi = 0.25;
  return cfg;
}

channel_config flow_rate_config() {
  channel_config cfg = quickstart_config();
  cfg.scenario.forcing = forcing_mode::flow_rate;
  return cfg;
}

channel_config scalar_config() {
  channel_config cfg = quickstart_config();
  // Two scalars sharing one Prandtl number plus a distinct one: the
  // implicit stage groups equal-kappa scalars into one blocked band
  // solve, and the grouping must not change bits or ordering.
  cfg.scenario.scalars.push_back(scalar_spec{0.71, 0.0, 1.0});
  cfg.scenario.scalars.push_back(scalar_spec{0.71, -1.0, 1.0});
  cfg.scenario.scalars.push_back(scalar_spec{7.0, 0.0, 0.0});
  return cfg;
}

/// `cycle` suspends and resumes the simulation before every step.
trace run_config(const channel_config& cfg, bool cycle = false) {
  trace t;
  run_world(cfg.pa * cfg.pb, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    const trace local = cycle ? record_cycled_trace(dns, kSteps)
                              : record_trace(dns, kSteps);
    if (world.rank() == 0) t = local;
  });
  return t;
}

/// One trace per data-movement variation: single-rank baseline, threaded
/// (advance + FFT + reorder), and two rank splits with the pipelined
/// exchange path.
void expect_one_trace(channel_config base, const std::string& name) {
  const trace baseline = run_config(base);

  channel_config threaded = base;
  threaded.advance_threads = 2;
  threaded.fft_threads = 2;
  threaded.reorder_threads = 2;
  channel_config split_a = base;
  split_a.pa = 2;
  split_a.pb = 1;
  channel_config split_b = base;
  split_b.pa = 2;
  split_b.pb = 2;
  split_b.pipeline_depth = 2;
  const std::pair<channel_config, std::string> variants[] = {
      {threaded, name + "_t2"},
      {split_a, name + "_p2x1"},
      {split_b, name + "_p2x2_d2"},
  };
  for (const auto& [cfg, tag] : variants) {
    const trace t = run_config(cfg);
    const auto divs = compare(baseline, t);
    EXPECT_TRUE(divs.empty()) << "config '" << tag
                              << "' diverged from the scenario baseline:\n"
                              << describe(divs);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace

TEST(DeterminismScenarios, CouetteWallsProduceOneTrace) {
  expect_one_trace(couette_config(), "couette");
}

TEST(DeterminismScenarios, ConstantFlowRateProducesOneTrace) {
  expect_one_trace(flow_rate_config(), "flowrate");
}

TEST(DeterminismScenarios, PassiveScalarsProduceOneTrace) {
  expect_one_trace(scalar_config(), "scalars");
}

TEST(DeterminismScenarios, PooledWorkspaceReproducesScalarTrace) {
  // Scenario state lives in the same leasable arenas as the velocity
  // fields; suspend/release/re-lease cycles must not move a bit.
  const trace straight = run_config(scalar_config());
  const trace cycled = run_config(scalar_config(), /*cycle=*/true);
  const auto divs = compare(straight, cycled);
  EXPECT_TRUE(divs.empty()) << describe(divs);
}

TEST(DeterminismScenarios, ScenarioSectionsJoinTheFingerprint) {
  // Scalars and flow-rate state write checkpoint sections, so their
  // fingerprints must carry a nonzero crc_scalars; Couette state lives
  // entirely in the frozen mean section and must NOT grow the format.
  const trace sc = run_config(scalar_config());
  for (const auto& fp : sc.steps) EXPECT_NE(fp.crc_scalars, 0u);
  const trace fr = run_config(flow_rate_config());
  for (const auto& fp : fr.steps) EXPECT_NE(fp.crc_scalars, 0u);
  const trace co = run_config(couette_config());
  for (const auto& fp : co.steps) EXPECT_EQ(fp.crc_scalars, 0u);
}

TEST(DeterminismScenarios, ExtendedTraceCsvRoundTrips) {
  // A scenario trace serializes with the extended header (crc_scalars
  // column); the reader must accept it and reproduce the rows exactly.
  // The legacy 8-column header keeps working for default-channel traces
  // (covered by the golden suite).
  const trace t = run_config(scalar_config());
  const std::string path = scratch_path("csv_file");
  write_trace_csv(path, t);
  const trace back = read_trace_csv(path);
  std::remove(path.c_str());
  const auto divs = compare(t, back);
  EXPECT_TRUE(divs.empty()) << describe(divs);
}
