// Decomposition crossover study: where do the comm-avoiding splits
// (1-D slab 1 x R, 2.5D hybrid c x R/c) beat the 2-D pencil, and out to
// how many ranks?
//
// Two parts, mirroring bench_table5_comm's structure:
//   (1) *measured* — the real transform kernel on the virtual-MPI runtime,
//       one run per pencil::split_candidates entry at a small rank count.
//       This demonstrates the structural claim (the comm-avoiding splits run
//       half the counted exchange stages) and records real substage
//       times; on the shared-memory virtual runtime every "exchange" is a
//       memcpy, so wall-clock ordering there is bandwidth-dominated and
//       the network win is the model's to show;
//   (2) *modelled* — the netsim predictor on the 2026 GPU fat-tree
//       machine (NVLink-island nodes), scanning rank counts out to 10^6
//       and naming the predicted crossover rank counts where the fastest
//       layout changes.
//
// Emits BENCH_decomp_crossover.json so later changes have a trajectory.
//
// Usage: bench_decomp_crossover [--fast]
//   --fast: few ranks / few scan points — the ctest `perf`-label smoke.
//   Env: PCF_BENCH_REPS overrides the measured repeat count.
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "netsim/predictor.hpp"
#include "pencil/decomp.hpp"
#include "pencil/pencil.hpp"
#include "util/aligned.hpp"

namespace {

using pcf::netsim::decomp_kind;
using pcf::netsim::decomp_times;
using pcf::netsim::job_config;
using pcf::netsim::machine;
using pcf::netsim::predictor;
using pcf::pencil::cplx;
using pcf::pencil::process_split;
using pcf::pencil::grid;
using pcf::pencil::kernel_config;
using pcf::pencil::parallel_fft;

// --- measured: one RK3 substage (3 down + 5 up) per split ----------------

/// Row label derived from the split: a 1 x R grid is the slab, anything
/// else a 2-D pencil grid (the 2.5D hybrid is the pencil c x R/c).
std::string split_label(const process_split& s) {
  return std::string(s.pa == 1 ? "slab " : "pencil ") + std::to_string(s.pa) +
         " x " + std::to_string(s.pb);
}

struct measured_row {
  process_split split;
  double seconds = 0.0;
  std::uint64_t exchanges = 0;  // counted global exchange stages/substage
};

measured_row run_split(const process_split& p, const grid& g, int trials,
                       int reps) {
  measured_row out;
  out.split = p;
  std::mutex m;
  pcf::vmpi::run_world(p.pa * p.pb, [&](pcf::vmpi::communicator& world) {
    pcf::vmpi::cart2d cart(world, p.pa, p.pb);
    kernel_config cfg;
    cfg.max_batch = 5;
    parallel_fft pf(g, cart, cfg);
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
      pc5[f] = phys[f].data();
      bk5[f] = spec[f].data();
    }
    for (std::size_t f = 0; f < 3; ++f) {
      sp3[f] = spec[f].data();
      ph3[f] = phys[f].data();
    }
    auto substage = [&] {
      pf.to_physical_batch(sp3, ph3, 3);
      pf.to_spectral_batch(pc5, bk5, 5);
    };

    substage();  // warm-up
    const auto bs0 = pf.batching();
    double wall = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      world.barrier();
      pcf::wall_timer t;
      for (int r = 0; r < reps; ++r) substage();
      world.barrier();
      const double w = t.seconds() / reps;
      if (trial == 0 || w < wall) wall = w;
    }
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lk(m);
      out.seconds = wall;
      const auto cycles = static_cast<std::uint64_t>(trials) *
                          static_cast<std::uint64_t>(reps);
      out.exchanges = (pf.batching().exchanges - bs0.exchanges) / cycles;
    }
  });
  return out;
}

// --- modelled: rank-count scan on the 2026 GPU machine -------------------

struct scan_row {
  long ranks = 0;
  decomp_times by_kind[3];  // pencil2d, slab, hybrid_25d
  decomp_kind fastest = decomp_kind::pencil2d;
};

struct crossover {
  long ranks = 0;  // first scanned rank count where `to` leads
  decomp_kind from = decomp_kind::pencil2d;
  decomp_kind to = decomp_kind::pencil2d;
};

const char* kind_name(decomp_kind k) { return pcf::netsim::to_string(k); }

void write_json(const char* path, const job_config& jbase,
                const std::vector<scan_row>& scan,
                const std::vector<crossover>& crossings,
                const std::vector<measured_row>& measured) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"decomp_crossover\",\n");
  std::fprintf(f, "  \"machine\": \"gpu_fattree_2026\",\n");
  std::fprintf(f, "  \"grid\": [%zu, %zu, %zu],\n", jbase.nx, jbase.ny,
               jbase.nz);
  std::fprintf(f, "  \"scan\": [\n");
  for (std::size_t i = 0; i < scan.size(); ++i) {
    const auto& r = scan[i];
    std::fprintf(f, "    {\"ranks\": %ld, \"fastest\": \"%s\"", r.ranks,
                 kind_name(r.fastest));
    for (const auto& d : r.by_kind) {
      if (!d.valid) continue;
      std::fprintf(f, ", \"%s_s\": %.6e", kind_name(d.kind), d.t.total());
    }
    std::fprintf(f, "}%s\n", i + 1 < scan.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"crossovers\": [\n");
  for (std::size_t i = 0; i < crossings.size(); ++i)
    std::fprintf(f, "    {\"ranks\": %ld, \"from\": \"%s\", \"to\": \"%s\"}%s\n",
                 crossings[i].ranks, kind_name(crossings[i].from),
                 kind_name(crossings[i].to),
                 i + 1 < crossings.size() ? "," : "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"measured\": [\n");
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const auto& r = measured[i];
    std::fprintf(f,
                 "    {\"split\": \"%s\", \"pa\": %d, \"pb\": %d, "
                 "\"seconds\": %.6e, \"exchanges\": %llu}%s\n",
                 split_label(r.split).c_str(), r.split.pa, r.split.pb,
                 r.seconds, static_cast<unsigned long long>(r.exchanges),
                 i + 1 < measured.size() ? "," : "");
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
      "decomp crossover",
      "slab / 2.5D / pencil: measured ordering + modelled crossovers");

  // --- measured on the virtual-MPI runtime --------------------------------
  const int ranks = fast ? 8 : 16;
  const grid g{32, 16, 32};
  const int reps = static_cast<int>(
      pcf::bench::env_long("PCF_BENCH_REPS", fast ? 3 : 6));
  const int trials = fast ? 2 : 4;
  std::printf("measured (virtual-MPI, %d ranks, grid %zu x %zu x %zu, RK3 "
              "substage = 3 down + 5 up, best of %d x %d):\n",
              ranks, g.nx, g.ny, g.nz, trials, reps);

  std::vector<measured_row> measured;
  for (const auto& p :
       pcf::pencil::split_candidates(g, ranks, ranks / 2, 2))
    measured.push_back(run_split(p, g, trials, reps));

  pcf::text_table mt({"Split", "Exch/substage", "Substage", "vs first"});
  for (const auto& r : measured)
    mt.add_row({split_label(r.split), std::to_string(r.exchanges),
                pcf::text_table::fmt_time(r.seconds),
                pcf::text_table::fmt(measured[0].seconds / r.seconds, 2) +
                    "x"});
  std::fputs(mt.str().c_str(), stdout);

  // --- modelled out to 10^6 ranks ------------------------------------------
  const machine m = machine::gpu_fattree_2026();
  const predictor pred(m);
  job_config j;
  j.nx = 36864;
  j.ny = 4096;
  j.nz = 24576;

  std::printf("\nmodelled %s, grid %zu x %zu x %zu (one GPU = one rank):\n",
              m.name.c_str(), j.nx, j.ny, j.nz);
  pcf::text_table st({"Ranks", "pencil2d", "slab", "hybrid_25d (c)",
                      "Fastest"});
  std::vector<scan_row> scan;
  const long lo = fast ? 4096 : 1024;
  const long hi = 1048576;  // 2^20: the 10^6-rank target
  for (long r = lo; r <= hi; r *= fast ? 16 : 2) {
    scan_row row;
    row.ranks = r;
    j.cores = r;
    double best = 0.0;
    bool first = true;
    int i = 0;
    for (auto k : {decomp_kind::pencil2d, decomp_kind::slab,
                   decomp_kind::hybrid_25d}) {
      const auto d = pred.timestep_decomp(j, k);
      row.by_kind[i++] = d;
      if (!d.valid) continue;
      if (first || d.t.total() < best) {
        best = d.t.total();
        row.fastest = k;
        first = false;
      }
    }
    const auto& h = row.by_kind[2];
    st.add_row(
        {std::to_string(r),
         pcf::text_table::fmt_time(row.by_kind[0].t.total()),
         row.by_kind[1].valid
             ? pcf::text_table::fmt_time(row.by_kind[1].t.total())
             : std::string("--"),
         h.valid ? pcf::text_table::fmt_time(h.t.total()) + " (" +
                       std::to_string(h.pa) + ")"
                 : std::string("--"),
         kind_name(row.fastest)});
    scan.push_back(row);
  }
  std::fputs(st.str().c_str(), stdout);

  std::vector<crossover> crossings;
  for (std::size_t i = 1; i < scan.size(); ++i)
    if (scan[i].fastest != scan[i - 1].fastest)
      crossings.push_back(
          {scan[i].ranks, scan[i - 1].fastest, scan[i].fastest});
  if (crossings.empty()) {
    std::printf("\npredicted: %s stays fastest across the scanned range "
                "(%ld .. %ld ranks)\n",
                kind_name(scan.front().fastest), lo, hi);
  } else {
    for (const auto& c : crossings)
      std::printf("\npredicted crossover: %s -> %s at %ld ranks",
                  kind_name(c.from), kind_name(c.to), c.ranks);
    std::printf("\n");
  }
  std::printf("slab validity limit on this grid: %ld ranks "
              "(min(ny, nz)); the 2.5D hybrid carries the comm-avoiding "
              "advantage beyond it.\n",
              static_cast<long>(std::min(j.ny, j.nz)));

  write_json("BENCH_decomp_crossover.json", j, scan, crossings, measured);
  std::printf("wrote BENCH_decomp_crossover.json (%zu scan points, %zu "
              "measured splits)\n",
              scan.size(), measured.size());
  return 0;
}
