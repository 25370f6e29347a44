// Ablation studies of the paper's design choices, measured on this host:
//
//  A. Implicit-solver caching: refactoring the banded Helmholtz systems
//     every substep (set_dt before each step, as when dt varies) vs
//     reusing the cached factorizations per (mode, substep) at fixed dt.
//  B. Nyquist-mode dropping (Section 4.4): transpose volume and time with
//     the streamwise Nyquist mode carried vs dropped.
//  C. 3/2-rule dealiasing (Section 2.1): cost of the fused pad/truncate
//     relative to an aliased (unpadded) transform pass.
#include <mutex>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "pencil/decomp.hpp"
#include "pencil/pencil.hpp"
#include "util/aligned.hpp"

using namespace pcf::pencil;

namespace {

double dns_step_time(bool cache, int steps) {
  pcf::core::channel_config cfg;
  cfg.nx = 24;
  cfg.nz = 24;
  cfg.ny = 33;
  cfg.dt = 1e-4;
  double out = 0;
  std::mutex m;
  pcf::vmpi::run_world(1, [&](pcf::vmpi::communicator& world) {
    pcf::core::channel_dns dns(cfg, world);
    dns.initialize(0.1);
    dns.step();  // warm up / populate cache
    pcf::wall_timer t;
    for (int s = 0; s < steps; ++s) {
      // set_dt drops every factorization, so each substep rebuilds its
      // solver arena: the refactor-per-substep cost of a varying dt.
      if (!cache) dns.set_dt(dns.dt());
      dns.step();
    }
    std::lock_guard<std::mutex> lk(m);
    out = t.seconds() / steps;
  });
  return out;
}

struct pfft_result {
  double seconds;
  std::size_t workspace;
};

pfft_result pfft_time(const kernel_config& cfg, const grid& g, int reps) {
  pfft_result out{};
  std::mutex m;
  pcf::vmpi::run_world(1, [&](pcf::vmpi::communicator& world) {
    pcf::vmpi::cart2d cart(world, 1, 1);
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();
    pcf::aligned_buffer<cplx> spec(d.y_pencil_elems(), cplx{0.1, 0.2});
    pcf::aligned_buffer<double> phys(d.x_pencil_real_elems());
    pf.to_physical(spec.data(), phys.data());
    pcf::wall_timer t;
    for (int r = 0; r < reps; ++r) {
      pf.to_physical(spec.data(), phys.data());
      pf.to_spectral(phys.data(), spec.data());
    }
    std::lock_guard<std::mutex> lk(m);
    out = {t.seconds() / reps, pf.workspace_bytes()};
  });
  return out;
}

}  // namespace

int main() {
  pcf::bench::print_header("Ablations", "design-choice studies (measured)");
  const int steps = static_cast<int>(pcf::bench::env_long("PCF_BENCH_STEPS", 10));
  const int reps = static_cast<int>(pcf::bench::env_long("PCF_BENCH_REPS", 10));

  // A. Solver caching.
  const double t_cache = dns_step_time(true, steps);
  const double t_fresh = dns_step_time(false, steps);
  std::printf("A. implicit-solver caching (24x33x24 DNS step):\n");
  pcf::text_table ta({"Variant", "Time/step", "Speedup"});
  ta.add_row({"refactor every substep", pcf::text_table::fmt_time(t_fresh),
              "1.00x"});
  ta.add_row({"cached factorizations", pcf::text_table::fmt_time(t_cache),
              pcf::text_table::fmt(t_fresh / t_cache, 2) + "x"});
  std::fputs(ta.str().c_str(), stdout);

  // B. Nyquist dropping (no dealiasing, as in the Table 6 protocol).
  grid g{64, 48, 64};
  kernel_config keep;
  keep.dealias = false;
  keep.drop_nyquist = false;
  kernel_config drop = keep;
  drop.drop_nyquist = true;
  const auto rk = pfft_time(keep, g, reps);
  const auto rd = pfft_time(drop, g, reps);
  std::printf("\nB. streamwise Nyquist mode (grid %zu x %zu x %zu):\n", g.nx,
              g.ny, g.nz);
  pcf::text_table tb({"Variant", "Round trip", "Workspace", "Modes carried"});
  tb.add_row({"carried (P3DFFT behavior)", pcf::text_table::fmt_time(rk.seconds),
              pcf::text_table::fmt(rk.workspace / 1024.0, 1) + " KiB",
              std::to_string(g.nx / 2 + 1)});
  tb.add_row({"dropped (customized)", pcf::text_table::fmt_time(rd.seconds),
              pcf::text_table::fmt(rd.workspace / 1024.0, 1) + " KiB",
              std::to_string(g.nx / 2)});
  std::fputs(tb.str().c_str(), stdout);

  // C. Dealiasing cost.
  kernel_config alias;
  alias.dealias = false;
  kernel_config dealias;  // default: 3/2 rule on
  const auto ra = pfft_time(alias, g, reps);
  const auto rda = pfft_time(dealias, g, reps);
  std::printf("\nC. 3/2-rule dealiasing (fused pad/truncate):\n");
  pcf::text_table tc({"Variant", "Round trip", "Physical grid"});
  tc.add_row({"aliased (no padding)", pcf::text_table::fmt_time(ra.seconds),
              std::to_string(g.nx) + " x " + std::to_string(g.nz)});
  tc.add_row({"dealiased (3/2 rule)", pcf::text_table::fmt_time(rda.seconds),
              std::to_string(3 * g.nx / 2) + " x " +
                  std::to_string(3 * g.nz / 2)});
  std::fputs(tc.str().c_str(), stdout);
  std::printf("\nthe 2.25x larger dealiased grid costs ~2-3x per pass — the "
              "price of alias-free nonlinear terms\n(paper Section 2.1: "
              "spectral accuracy is worth it).\n");

  // D. Pencil vs slab decomposition (paper Section 2.2): a slab (1-D)
  // decomposition is the degenerate process grid; its rank count is capped
  // by a single grid dimension, while the pencil grid keeps every rank
  // busy. Measure the per-rank load imbalance of the tuner's candidate
  // splits, plus the x-only slab split_valid keeps out of that set.
  {
    grid gd{16, 17, 16};  // nxh = 8 spectral modes in x
    const int ranks = 16;
    auto imbalance = [&](int pa, int pb) {
      double mx = 0, avg = 0;
      for (int a = 0; a < pa; ++a)
        for (int b = 0; b < pb; ++b) {
          decomp d(gd, kernel_config{}, pa, pb, a, b);
          const double elems = static_cast<double>(d.y_pencil_elems());
          mx = std::max(mx, elems);
          avg += elems;
        }
      avg /= (pa * pb);
      return mx / avg;
    };
    std::printf("\nD. pencil vs slab decomposition (grid %zu x %zu x %zu, "
                "%d ranks):\n", gd.nx, gd.ny, gd.nz, ranks);
    pcf::text_table td({"Decomposition", "Grid", "Max/avg rank load"});
    auto row = [&](const process_split& s, const std::string& note) {
      const char* kind = s.pa == 1   ? "slab (z only)"
                         : s.pb == 1 ? "slab (x only)"
                                     : "pencil";
      td.add_row({kind, std::to_string(s.pa) + " x " + std::to_string(s.pb),
                  pcf::text_table::fmt(imbalance(s.pa, s.pb), 2) + "x" +
                      note});
    };
    for (const process_split& s : split_candidates(gd, ranks, 4, 4))
      row(s, "");
    row({ranks, 1}, "  (8 modes over 16 ranks: half idle; not a candidate)");
    std::fputs(td.str().c_str(), stdout);
    std::printf("paper Section 2.2: the pencil decomposition is chosen for "
                "its flexibility in rank counts —\na slab decomposition "
                "cannot exceed one grid dimension's worth of ranks.\n");
  }
  return 0;
}
