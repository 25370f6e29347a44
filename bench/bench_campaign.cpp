// Campaign throughput and residency bench (ISSUE: multi-tenant campaign
// server): a sweep of identical-grid runs time-sliced over one shared
// pool, against the same sweep's solo cost. Reports runs/s, the
// block-pool (and process RSS) peak relative to a single run, eviction
// churn and the shared-cache hit rates. Full runs emit
// BENCH_campaign.json; `--fast` is the ctest perf smoke.
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "core/simulation.hpp"
#include "util/block_pool.hpp"
#include "util/timer.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using namespace pcf;

long max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

campaign::job_spec sweep_job(int i, long steps, const std::string& cache) {
  campaign::job_spec j;
  j.name = "run" + std::to_string(i);
  j.config.nx = 16;
  j.config.nz = 16;
  j.config.ny = 33;
  j.config.re_tau = (i % 2 != 0) ? 360.0 : 180.0;
  j.config.dt = 1e-4;
  j.config.autotune = true;  // the shared memo serves every run past the
  j.config.tuning_cache = cache;  // first measurement
  j.seed = 1 + static_cast<std::uint64_t>(i);
  j.steps = steps;
  j.priority = i % 2;
  return j;
}

/// One run executed alone with the campaign's per-tenant overrides:
/// the baseline both the throughput and the residency ratios divide by.
double solo_seconds(const campaign::job_spec& j) {
  core::channel_config cc = j.config;
  cc.pa = 1;
  cc.pb = 1;
  double s = 0.0;
  vmpi::run_world(1, [&](vmpi::communicator& world) {
    // A run costs construction + initialize + stepping — the campaign
    // pays all three per tenant, so the baseline must too.
    wall_timer t;
    core::channel_dns dns(cc, world);
    dns.initialize(j.perturbation, j.seed);
    for (long k = 0; k < j.steps; ++k) dns.step();
    s = t.seconds();
  });
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = argc > 1 && std::strcmp(argv[1], "--fast") == 0;
  const int runs = fast ? 8 : static_cast<int>(bench::env_long("PCF_BENCH_RUNS", 64));
  const long steps = fast ? 6 : bench::env_long("PCF_BENCH_STEPS", 12);

  const std::string scratch =
      std::filesystem::temp_directory_path().string() + "/pcf_bench_campaign";
  std::filesystem::create_directories(scratch);
  const std::string cache = scratch + "/tuning_cache.tsv";
  std::remove(cache.c_str());

  bench::print_header(
      "campaign", "multi-tenant sweep over one shared pool vs solo runs");

  // Solo baseline: one run's wall time and block footprint.
  const campaign::job_spec probe = sweep_job(0, steps, cache);
  const double solo_s = solo_seconds(probe);
  const std::uint64_t solo_peak_blocks = block_pool::global().stats().blocks_peak;
  const long solo_rss_kb = max_rss_kb();
  std::printf("solo:     %ld steps in %.3fs (%.1f steps/s), peak %llu blk\n",
              steps, solo_s, static_cast<double>(steps) / solo_s,
              static_cast<unsigned long long>(solo_peak_blocks));

  // The campaign: tenant count far above the residency cap.
  campaign::campaign_config cfg;
  cfg.workers = static_cast<int>(bench::env_long("PCF_BENCH_WORKERS", 4));
  cfg.slice_steps = 4;
  cfg.max_resident = 6;
  cfg.spill_dir = scratch;
  cfg.tuning_cache = cache;
  campaign::campaign_server server(cfg);
  for (int i = 0; i < runs; ++i)
    (void)server.enqueue(sweep_job(i, steps, cache));

  const campaign::campaign_report rep = server.run();
  const std::uint64_t campaign_peak_blocks =
      block_pool::global().stats().blocks_peak;
  const long campaign_rss_kb = max_rss_kb();

  long done = 0;
  for (const auto& j : rep.jobs)
    if (j.state == campaign::job_state::done) ++done;
  const double runs_per_s = done / rep.elapsed_s;
  const double speedup = (solo_s * done) / rep.elapsed_s;
  const double peak_ratio =
      static_cast<double>(campaign_peak_blocks) /
      static_cast<double>(solo_peak_blocks > 0 ? solo_peak_blocks : 1);
  const double plan_rate =
      rep.plan_cache_hits + rep.plan_cache_misses > 0
          ? static_cast<double>(rep.plan_cache_hits) /
                static_cast<double>(rep.plan_cache_hits + rep.plan_cache_misses)
          : 0.0;
  const double memo_rate =
      rep.tuning_memo_hits + rep.tuning_memo_misses > 0
          ? static_cast<double>(rep.tuning_memo_hits) /
                static_cast<double>(rep.tuning_memo_hits +
                                    rep.tuning_memo_misses)
          : 0.0;

  std::printf(
      "campaign: %d runs x %ld steps on %d workers in %.3fs — %.2f runs/s "
      "(%.2fx solo-serial)\n",
      runs, steps, cfg.workers, rep.elapsed_s, runs_per_s, speedup);
  std::printf(
      "          evictions %llu readmissions %llu | peak %llu blk = %.2fx "
      "single run (bound 8x) | rss %.1f MiB\n",
      static_cast<unsigned long long>(rep.evictions),
      static_cast<unsigned long long>(rep.readmissions),
      static_cast<unsigned long long>(campaign_peak_blocks), peak_ratio,
      campaign_rss_kb / 1024.0);
  std::printf(
      "          plan cache %.0f%% hit (%llu/%llu) | tuning memo %.0f%% hit "
      "(%llu/%llu) | stranded %llu\n",
      100.0 * plan_rate,
      static_cast<unsigned long long>(rep.plan_cache_hits),
      static_cast<unsigned long long>(rep.plan_cache_hits +
                                      rep.plan_cache_misses),
      100.0 * memo_rate,
      static_cast<unsigned long long>(rep.tuning_memo_hits),
      static_cast<unsigned long long>(rep.tuning_memo_hits +
                                      rep.tuning_memo_misses),
      static_cast<unsigned long long>(rep.stranded_blocks));

  const bool ok = done == runs && peak_ratio < 8.0 && plan_rate > 0.0 &&
                  rep.stranded_blocks == 0;

  if (!fast) {
    std::FILE* f = std::fopen("BENCH_campaign.json", "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"campaign\",\n"
                   "  \"grid\": [16, 33, 16],\n"
                   "  \"runs\": %d,\n"
                   "  \"steps_per_run\": %ld,\n"
                   "  \"workers\": %d,\n"
                   "  \"slice_steps\": %d,\n"
                   "  \"max_resident\": %d,\n",
                   runs, steps, cfg.workers, cfg.slice_steps,
                   cfg.max_resident);
      std::fprintf(f,
                   "  \"single_run\": {\"seconds\": %.4f, \"peak_blocks\": "
                   "%llu, \"rss_mb\": %.1f},\n",
                   solo_s, static_cast<unsigned long long>(solo_peak_blocks),
                   solo_rss_kb / 1024.0);
      std::fprintf(
          f,
          "  \"campaign\": {\n"
          "    \"elapsed_s\": %.4f,\n"
          "    \"runs_per_s\": %.3f,\n"
          "    \"speedup_over_solo_serial\": %.3f,\n"
          "    \"total_steps\": %ld,\n"
          "    \"evictions\": %llu,\n"
          "    \"readmissions\": %llu,\n"
          "    \"peak_blocks\": %llu,\n"
          "    \"peak_over_single_run\": %.3f,\n"
          "    \"peak_bound\": 8,\n"
          "    \"within_bound\": %s,\n"
          "    \"rss_mb\": %.1f,\n"
          "    \"plan_cache\": {\"hits\": %llu, \"misses\": %llu, "
          "\"hit_rate\": %.3f},\n"
          "    \"tuning_memo\": {\"hits\": %llu, \"misses\": %llu, "
          "\"hit_rate\": %.3f},\n"
          "    \"stranded_blocks\": %llu\n"
          "  }\n"
          "}\n",
          rep.elapsed_s, runs_per_s, speedup, rep.total_steps,
          static_cast<unsigned long long>(rep.evictions),
          static_cast<unsigned long long>(rep.readmissions),
          static_cast<unsigned long long>(campaign_peak_blocks), peak_ratio,
          peak_ratio < 8.0 ? "true" : "false", campaign_rss_kb / 1024.0,
          static_cast<unsigned long long>(rep.plan_cache_hits),
          static_cast<unsigned long long>(rep.plan_cache_misses), plan_rate,
          static_cast<unsigned long long>(rep.tuning_memo_hits),
          static_cast<unsigned long long>(rep.tuning_memo_misses), memo_rate,
          static_cast<unsigned long long>(rep.stranded_blocks));
      std::fclose(f);
      std::printf("wrote BENCH_campaign.json\n");
    }
  }

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
