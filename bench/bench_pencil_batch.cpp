// Batched/pipelined/autotuned pencil-transform benchmark: per-field vs
// batched vs pipelined vs the autotuner's pick, on the Table-5 measured
// grid plus a smaller dealiased split, emitting BENCH_pencil.json so later
// changes have a perf trajectory to compare against.
//
// The workload is one RK3 substage's worth of transforms (3 fields
// spectral -> physical, 5 fields physical -> spectral), the pattern
// simulation.cpp runs three times per step. Per-field issues 16 transpose
// exchanges per substage; batched aggregates them into 4; pipelined
// additionally overlaps each exchange with the neighbouring field group's
// FFT/reorder work on a comm thread. The autotuned mode first runs the
// measured tuner (storing its decision in an on-disk cache), then reloads
// the cache — exercising both the tune and replay paths production uses —
// and runs whatever {F, depth} the tuner chose.
//
// Usage: bench_pencil_batch [--fast]
//   --fast: small grid / few ranks / few reps — the ctest `perf`-label
//   smoke variant. Env: PCF_BENCH_REPS overrides the repeat count.
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pencil/autotune.hpp"
#include "pencil/pencil.hpp"
#include "util/aligned.hpp"

using namespace pcf::pencil;

namespace {

struct bench_config {
  std::string label;
  grid g;
  int pa = 1, pb = 1;
  bool dealias = false;
};

struct mode_result {
  std::string name;
  // All four times are seconds per substage cycle: total is the best-of
  // -trials wall time, the sections are max-over-ranks accumulated timers
  // normalized by the cycle count (so comm + reorder + fft ~ total, and
  // the JSON's sections share total_s's basis).
  double total = 0.0;
  double comm = 0.0;
  double reorder = 0.0;
  double fft = 0.0;
  std::uint64_t exchanges = 0;       // aggregated exchanges per substage
  std::uint64_t alltoall_calls = 0;  // vmpi calls per substage (both comms)
};

mode_result run_mode(const std::string& name, const bench_config& bc,
                     int trials, int reps, const kernel_config& cfg,
                     bool batched) {
  mode_result out;
  out.name = name;
  std::mutex m;
  pcf::vmpi::run_world(bc.pa * bc.pb, [&](pcf::vmpi::communicator& world) {
    pcf::vmpi::cart2d cart(world, bc.pa, bc.pb);
    parallel_fft pf(bc.g, cart, cfg);
    const auto& d = pf.dec();

    std::vector<pcf::aligned_buffer<cplx>> spec(5);
    std::vector<pcf::aligned_buffer<double>> phys(5);
    const cplx* sp3[3];
    double* ph3[3];
    const double* pc5[5];
    cplx* bk5[5];
    for (std::size_t f = 0; f < 5; ++f) {
      spec[f].reset(d.y_pencil_elems());
      spec[f].fill(cplx{1.0 / static_cast<double>(f + 1), 0.0});
      phys[f].reset(d.x_pencil_real_elems());
      phys[f].fill(0.25 * static_cast<double>(f));
      pc5[f] = phys[f].data();
      bk5[f] = spec[f].data();
    }
    for (std::size_t f = 0; f < 3; ++f) {
      sp3[f] = spec[f].data();
      ph3[f] = phys[f].data();
    }

    auto substage = [&] {
      if (batched) {
        pf.to_physical_batch(sp3, ph3, 3);
        pf.to_spectral_batch(pc5, bk5, 5);
      } else {
        for (std::size_t f = 0; f < 3; ++f)
          pf.to_physical(sp3[f], ph3[f]);
        for (std::size_t f = 0; f < 5; ++f)
          pf.to_spectral(pc5[f], bk5[f]);
      }
    };

    substage();  // warm-up (first-touch, FFT twiddle caches)
    pf.reset_timers();
    const auto bs0 = pf.batching();
    const auto a0 = cart.comm_a().stats();
    const auto b0 = cart.comm_b().stats();

    // Virtual ranks oversubscribe the host's cores, so scheduler noise can
    // only ever add time; the minimum over trials is the robust estimate.
    double wall = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      world.barrier();
      pcf::wall_timer t;
      for (int r = 0; r < reps; ++r) substage();
      world.barrier();
      const double w = t.seconds() / reps;
      if (trial == 0 || w < wall) wall = w;
    }

    double local[3] = {pf.comm_seconds(), pf.reorder_seconds(),
                       pf.fft_seconds()};
    double agreed[3];
    world.allreduce_max(local, agreed, 3);

    if (world.rank() == 0) {
      const auto bs1 = pf.batching();
      const auto a1 = cart.comm_a().stats();
      const auto b1 = cart.comm_b().stats();
      std::lock_guard<std::mutex> lk(m);
      const auto cycles = static_cast<std::uint64_t>(trials) *
                          static_cast<std::uint64_t>(reps);
      out.total = wall;
      // The section timers accumulated over every trial x rep; divide by
      // the cycle count so they share `wall`'s per-substage basis.
      out.comm = agreed[0] / static_cast<double>(cycles);
      out.reorder = agreed[1] / static_cast<double>(cycles);
      out.fft = agreed[2] / static_cast<double>(cycles);
      out.exchanges = (bs1.exchanges - bs0.exchanges) / cycles;
      out.alltoall_calls = (a1.alltoall_calls - a0.alltoall_calls +
                            b1.alltoall_calls - b0.alltoall_calls) /
                           cycles;
    }
  });
  return out;
}

/// Run the measured autotuner for `bc`, persist its decision in `cache`,
/// then reload the cache from disk and return the stored choice — the
/// exact tune -> store -> reload round trip production restarts take.
tune_choice tune_and_reload(const bench_config& bc,
                            const kernel_config& base,
                            const std::string& cache, int reps) {
  std::mutex m;
  tune_choice tuned;
  pcf::vmpi::run_world(bc.pa * bc.pb, [&](pcf::vmpi::communicator& world) {
    tune_options opt;
    opt.cache_path = cache;
    opt.reps = reps;
    opt.force_retune = true;  // a bench must measure, not replay old runs
    const tune_report rep =
        autotune_transforms(bc.g, world, bc.pa, bc.pb, base, opt);
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lk(m);
      tuned = rep.choice;
    }
  });
  // Prove the persisted entry replays: the stored choice must round trip.
  const auto entries = load_tuning_cache(cache);
  const auto* hit =
      find_tuning_entry(entries, make_tune_key(bc.g, base, bc.pa * bc.pb,
                                               bc.pa, bc.pb));
  if (hit != nullptr) tuned = hit->choice;
  return tuned;
}

struct config_report {
  bench_config bc;
  tune_choice tuned;
  std::vector<mode_result> rs;  // per_field, batched, pipelined, autotuned
};

void write_json(const char* path, int reps,
                const std::vector<config_report>& reports) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror("BENCH_pencil.json");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"pencil_batch\",\n");
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"substage\": \"3x to_physical + 5x to_spectral\",\n");
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t c = 0; c < reports.size(); ++c) {
    const auto& rep = reports[c];
    const auto& rs = rep.rs;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"label\": \"%s\",\n", rep.bc.label.c_str());
    std::fprintf(f, "      \"grid\": [%zu, %zu, %zu],\n", rep.bc.g.nx,
                 rep.bc.g.ny, rep.bc.g.nz);
    std::fprintf(f, "      \"ranks\": %d, \"pa\": %d, \"pb\": %d,\n",
                 rep.bc.pa * rep.bc.pb, rep.bc.pa, rep.bc.pb);
    std::fprintf(f, "      \"dealias\": %s,\n",
                 rep.bc.dealias ? "true" : "false");
    std::fprintf(f,
                 "      \"tuned_choice\": {\"batch\": %d, "
                 "\"pipeline_depth\": %d},\n",
                 rep.tuned.batch, rep.tuned.pipeline_depth);
    std::fprintf(f, "      \"modes\": [\n");
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const auto& r = rs[i];
      std::fprintf(
          f,
          "        {\"name\": \"%s\", \"total_s\": %.6e, \"comm_s\": %.6e, "
          "\"reorder_s\": %.6e, \"fft_s\": %.6e, \"exchanges\": %llu, "
          "\"alltoall_calls\": %llu}%s\n",
          r.name.c_str(), r.total, r.comm, r.reorder, r.fft,
          static_cast<unsigned long long>(r.exchanges),
          static_cast<unsigned long long>(r.alltoall_calls),
          i + 1 < rs.size() ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    std::fprintf(f, "      \"speedup_batched\": %.4f,\n",
                 rs[0].total / rs[1].total);
    std::fprintf(f, "      \"speedup_pipelined\": %.4f,\n",
                 rs[0].total / rs[2].total);
    std::fprintf(f, "      \"speedup_autotuned\": %.4f\n",
                 rs[0].total / rs[3].total);
    std::fprintf(f, "    }%s\n", c + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;

  pcf::bench::print_header(
      "pencil batch",
      "per-field vs batched vs pipelined vs autotuned transforms");

  std::vector<bench_config> configs;
  if (fast) {
    configs.push_back({"fast_2x2", grid{16, 8, 16}, 2, 2, false});
  } else {
    // The Table-5 comm-benchmark split, plus a shallower split with
    // dealiasing on — the shape a small production campaign runs.
    configs.push_back({"table5_8x4", grid{32, 16, 32}, 8, 4, false});
    configs.push_back({"dealias_2x2", grid{32, 16, 32}, 2, 2, true});
  }
  const int reps = static_cast<int>(
      pcf::bench::env_long("PCF_BENCH_REPS", fast ? 3 : 8));
  const int trials = static_cast<int>(
      pcf::bench::env_long("PCF_BENCH_TRIALS", fast ? 2 : 5));

  std::vector<config_report> reports;
  for (const auto& bc : configs) {
    std::printf("config %s: grid %zu x %zu x %zu, %d ranks (%d x %d), "
                "dealias %s, best of %d trials x %d reps\n",
                bc.label.c_str(), bc.g.nx, bc.g.ny, bc.g.nz, bc.pa * bc.pb,
                bc.pa, bc.pb, bc.dealias ? "on" : "off", trials, reps);

    kernel_config base;
    base.dealias = bc.dealias;
    base.max_batch = 5;

    const std::string cache = "BENCH_pencil_tuning_" + bc.label + ".bin";
    std::remove(cache.c_str());
    const tune_choice tuned =
        tune_and_reload(bc, base, cache, fast ? 1 : 2);
    std::remove(cache.c_str());
    std::printf("  tuner chose: F=%d depth=%d\n", tuned.batch,
                tuned.pipeline_depth);

    config_report rep;
    rep.bc = bc;
    rep.tuned = tuned;
    kernel_config per_field = base;
    per_field.max_batch = 1;
    kernel_config batched = base;
    kernel_config pipelined = base;
    pipelined.pipeline_depth = 2;
    rep.rs.push_back(
        run_mode("per_field", bc, trials, reps, per_field, false));
    rep.rs.push_back(run_mode("batched", bc, trials, reps, batched, true));
    rep.rs.push_back(
        run_mode("pipelined", bc, trials, reps, pipelined, true));
    rep.rs.push_back(run_mode("autotuned", bc, trials, reps,
                              apply_tuning(base, tuned),
                              tuned.batch > 1));

    pcf::text_table t({"Mode", "Substage", "Comm", "Reorder", "FFT",
                       "Exch/substage", "vs per-field"});
    for (const auto& r : rep.rs)
      t.add_row({r.name, pcf::text_table::fmt_time(r.total),
                 pcf::text_table::fmt_time(r.comm),
                 pcf::text_table::fmt_time(r.reorder),
                 pcf::text_table::fmt_time(r.fft),
                 std::to_string(r.exchanges),
                 pcf::text_table::fmt(rep.rs[0].total / r.total, 2) + "x"});
    std::fputs(t.str().c_str(), stdout);
    std::printf("\n");
    reports.push_back(std::move(rep));
  }

  write_json("BENCH_pencil.json", reps, reports);
  std::printf("wrote BENCH_pencil.json (%zu configs x 4 modes)\n",
              reports.size());
  return 0;
}
