// Paper Table 1: elapsed time for solving one bordered-banded linear
// system (N = 1024) as a function of bandwidth, for
//   - the reference complex banded solver (ZGBTRF/ZGBTRS equivalent) —
//     the normalizer, as in the paper;
//   - the reference real banded solver applied to the complex RHS as two
//     real solves (the MKL^R / DGBTRF+DGBTRS approach);
//   - the customized compact solver (real matrix, complex RHS directly).
//
// The reference solvers must store the bordered rows by widening the band
// to kl = ku = 2h (Figure 3 center) and pay pivoting storage and zero-work;
// the custom format (Figure 3 right) stores exactly 2h+1 entries per row.
//
// A second table profiles the blocked multi-RHS substitution: per-RHS solve
// time for h in {1..7} and R in {1, 2, 4, 8} complex right-hand sides,
// comparing the scalar one-pass-per-RHS path, the blocked runtime-lane
// kernel, and the blocked fixed-lane (vectorized) kernel, with the pivoted
// LAPACK-style solver as baseline. Each cell is the median of 5 timed
// runs, printed with half its interquartile range; both go to
// BENCH_banded.json.
//
// Between the two, a blocked-apply row: the per-line A x product against
// apply_many over a panel of 8 interleaved complex lines, at n = 33 and 49;
// and a mode-interleaved row: 8 separate 2-RHS solves of 8 bands against
// one solve_interleaved pass over the same bands (each timing includes the
// panel restore, a copy of the same size on both sides).
//
// Usage: bench_table1_banded [--fast]
//   --fast: smaller system / shorter timing floor — the ctest `perf`-label
//   smoke configuration.
#include <algorithm>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "banded/compact.hpp"
#include "banded/gb.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using pcf::banded::compact_banded;
using pcf::banded::cplx;
using pcf::banded::gb_matrix;

namespace {

/// Build the Figure-3 matrix pattern: band of half-width h plus dense
/// corner rows, diagonally dominant.
void fill(compact_banded& C, gb_matrix<double>& Gr, gb_matrix<cplx>& Gc,
          std::uint64_t seed) {
  pcf::rng r(seed);
  const int n = C.n();
  for (int i = 0; i < n; ++i) {
    const int s = C.row_start(i);
    double rowsum = 0.0;
    for (int j = s; j <= s + 2 * C.half_bandwidth(); ++j) {
      if (j < 0 || j >= n || j == i) continue;
      const double v = r.uniform(-1, 1);
      C.at(i, j) = v;
      Gr.at(i, j) = v;
      Gc.at(i, j) = v;
      rowsum += std::abs(v);
    }
    C.at(i, i) = rowsum + 1.0;
    Gr.at(i, i) = rowsum + 1.0;
    Gc.at(i, i) = rowsum + 1.0;
  }
}

struct rhs_case {
  int h, r;
  // Seconds per RHS, solve only: medians and interquartile ranges.
  pcf::bench::timing scalar, blocked, vec, gb;
};

/// "median ns ±half-IQR" for one table cell.
std::string cell(const pcf::bench::timing& t) {
  return pcf::text_table::fmt(t.median * 1e9, 1) + " ns +/-" +
         pcf::text_table::fmt(0.5 * t.iqr * 1e9, 1);
}

void write_json(const char* path, int n, bool fast,
                const std::vector<rhs_case>& cases) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"banded_multi_rhs\",\n");
  std::fprintf(f, "  \"n\": %d,\n  \"fast\": %s,\n  \"cases\": [\n", n,
               fast ? "true" : "false");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const rhs_case& c = cases[i];
    std::fprintf(f,
                 "    {\"h\": %d, \"nrhs\": %d, \"scalar_per_rhs\": %.3e, "
                 "\"blocked_per_rhs\": %.3e, \"vector_per_rhs\": %.3e, "
                 "\"gb_per_rhs\": %.3e, \"scalar_iqr\": %.3e, "
                 "\"blocked_iqr\": %.3e, \"vector_iqr\": %.3e, "
                 "\"gb_iqr\": %.3e}%s\n",
                 c.h, c.r, c.scalar.median, c.blocked.median, c.vec.median,
                 c.gb.median, c.scalar.iqr, c.blocked.iqr, c.vec.iqr,
                 c.gb.iqr, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  pcf::bench::print_header(
      "Table 1", "elapsed time for solving a linear system (normalized by "
                 "the reference complex banded solver)");
  const int n = static_cast<int>(
      pcf::bench::env_long("PCF_BENCH_N", fast ? 256 : 1024));
  pcf::text_table t({"Bandwidth", "Ref^R (2 real)", "Ref^C (complex)",
                     "Custom", "Custom speedup", "Custom storage",
                     "Ref storage"});

  for (int h = 1; h <= 7; ++h) {
    compact_banded C(n, h);
    gb_matrix<double> Gr(n, 2 * h, 2 * h);
    gb_matrix<cplx> Gc(n, 2 * h, 2 * h);
    fill(C, Gr, Gc, 1000 + static_cast<std::uint64_t>(h));

    pcf::rng r(7);
    std::vector<cplx> rhs(static_cast<std::size_t>(n));
    for (auto& v : rhs) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    std::vector<double> re(static_cast<std::size_t>(n)),
        im(static_cast<std::size_t>(n));

    // Each timed call includes factorization and solve, as in production
    // where the operator changes with the wavenumber.
    const double t_c = pcf::bench::time_call([&] {
      auto M = Gc;
      M.factorize();
      auto b = rhs;
      M.solve(b.data());
    });
    const double t_r = pcf::bench::time_call([&] {
      auto M = Gr;
      M.factorize();
      for (int i = 0; i < n; ++i) {
        re[static_cast<std::size_t>(i)] = rhs[static_cast<std::size_t>(i)].real();
        im[static_cast<std::size_t>(i)] = rhs[static_cast<std::size_t>(i)].imag();
      }
      M.solve(re.data());
      M.solve(im.data());
    });
    const double t_k = pcf::bench::time_call([&] {
      auto M = C;
      M.factorize();
      auto b = rhs;
      M.solve(b.data());
    });

    t.add_row({std::to_string(2 * h + 1), pcf::text_table::fmt(t_r / t_c, 3),
               pcf::text_table::fmt(t_c / t_c, 3),
               pcf::text_table::fmt(t_k / t_c, 3),
               pcf::text_table::fmt(t_c / t_k, 2) + "x",
               std::to_string(C.storage_bytes() / 1024) + " KiB",
               std::to_string(Gc.storage_bytes() / 1024) + " KiB"});
  }
  std::fputs(t.str().c_str(), stdout);
  std::printf("\npaper: custom ~4x faster than vendor banded solvers, "
              "storage halved.\n");

  // --- Blocked apply -------------------------------------------------------
  // The nonlinear stage's A0/A1/A2 products: one line at a time against one
  // apply_many over a panel of 8 interleaved complex lines (a mode block),
  // at the wall-normal sizes of the quickstart and large grids.
  pcf::bench::print_header(
      "Blocked apply", "y = A x per complex line, h = 7: per-line apply vs "
                       "apply_many over 8 interleaved lines");
  pcf::text_table at({"n", "Lines", "apply/line", "apply_many/line",
                      "Speedup"});
  for (int na : {33, 49}) {
    constexpr int kLines = 8;
    const int h = 7;
    compact_banded A(na, h);
    gb_matrix<double> Gr(na, 2 * h, 2 * h);
    gb_matrix<cplx> Gc(na, 2 * h, 2 * h);
    fill(A, Gr, Gc, 3000 + static_cast<std::uint64_t>(na));
    pcf::rng r(13);
    std::vector<cplx> x(static_cast<std::size_t>(na) * kLines);
    for (auto& v : x) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    std::vector<cplx> y(x.size());
    const double floor = fast ? 0.005 : 0.05;
    const double t_line = pcf::bench::time_call(
        [&] {
          for (int l = 0; l < kLines; ++l)
            A.apply(x.data() + static_cast<std::size_t>(l) * na,
                    y.data() + static_cast<std::size_t>(l) * na);
        },
        floor) / kLines;
    const double t_many = pcf::bench::time_call(
        [&] { A.apply_many(x.data(), y.data(), kLines); }, floor) / kLines;
    at.add_row({std::to_string(na), std::to_string(kLines),
                pcf::text_table::fmt(t_line * 1e9, 1) + " ns",
                pcf::text_table::fmt(t_many * 1e9, 1) + " ns",
                pcf::text_table::fmt(t_line / t_many, 2) + "x"});
  }
  std::fputs(at.str().c_str(), stdout);

  // --- Mode-interleaved solve ----------------------------------------------
  // The implicit stage's Helmholtz pass: 8 modes, each with its own
  // factored band and 2 complex right-hand sides (omega, phi), as 8
  // separate 2-RHS solve_many calls against one solve_interleaved pass over
  // the 8 bands stored lane-innermost.
  pcf::bench::print_header(
      "Mode-interleaved solve",
      "8 bands x 2 complex RHS, h = 7: 8 solve_many calls vs one "
      "interleaved pass (median of 5 runs +/- half the IQR)");
  pcf::text_table it({"n", "8 x solve_many", "interleaved", "Speedup"});
  for (int na : {33, 49}) {
    constexpr int kBands = pcf::banded::kBlockBands, kRhs = 2;
    const int h = 7;
    const auto un = static_cast<std::size_t>(na);
    std::vector<compact_banded> bands;
    std::vector<double> block(un * (2 * h + 1) * kBands);
    for (int r = 0; r < kBands; ++r) {
      compact_banded A(na, h);
      gb_matrix<double> Gr(na, 2 * h, 2 * h);
      gb_matrix<cplx> Gc(na, 2 * h, 2 * h);
      fill(A, Gr, Gc, 4000 + static_cast<std::uint64_t>(na * 10 + r));
      A.factorize();
      pcf::banded::interleave_band(A.data(), na, h, r, block.data());
      bands.push_back(std::move(A));
    }
    pcf::rng r(17);
    std::vector<cplx> x0(un * kRhs * kBands), x(x0.size());
    for (auto& v : x0) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    std::vector<double> p0(x0.size() * 2), p(p0.size());
    for (auto& v : p0) v = r.uniform(-1, 1);
    const double floor = fast ? 0.005 : 0.05;
    const pcf::bench::timing t_sep = pcf::bench::time_median(
        [&] {
          x = x0;
          for (int b = 0; b < kBands; ++b)
            bands[static_cast<std::size_t>(b)].solve_many(
                x.data() + static_cast<std::size_t>(b) * kRhs * un, kRhs, un);
        },
        floor);
    const pcf::bench::timing t_int = pcf::bench::time_median(
        [&] {
          p = p0;
          pcf::banded::solve_interleaved<cplx>(block.data(), na, h, p.data(),
                                               kRhs, kBands);
        },
        floor);
    it.add_row({std::to_string(na), cell(t_sep), cell(t_int),
                pcf::text_table::fmt(t_sep.median / t_int.median, 2) + "x"});
  }
  std::fputs(it.str().c_str(), stdout);

  // --- Blocked multi-RHS substitution profile ------------------------------
  pcf::bench::print_header(
      "Multi-RHS", "per-RHS solve time: scalar vs blocked vs vectorized "
                   "(complex RHS, factorization excluded; median of 5 runs "
                   "+/- half the interquartile range)");
  const double floor_s = fast ? 0.005 : 0.05;
  pcf::text_table mt({"Bandwidth", "R", "scalar/RHS", "blocked/RHS",
                      "vector/RHS", "vec speedup", "Ref^R/RHS"});
  std::vector<rhs_case> cases;
  const int rs[4] = {1, 2, 4, 8};
  for (int h = 1; h <= 7; ++h) {
    compact_banded C(n, h);
    gb_matrix<double> Gr(n, 2 * h, 2 * h);
    gb_matrix<cplx> Gc(n, 2 * h, 2 * h);
    fill(C, Gr, Gc, 2000 + static_cast<std::uint64_t>(h));
    C.factorize();
    Gr.factorize();

    pcf::rng r(11);
    std::vector<cplx> rhs0(static_cast<std::size_t>(8 * n));
    for (auto& v : rhs0) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    std::vector<cplx> work(rhs0.size());
    const auto stride = static_cast<std::size_t>(n);
    double scalar1 = 0.0;  // scalar per-RHS time at R = 1 (the normalizer)

    for (int R : rs) {
      // Each timed call restores the panel then solves; the restore cost
      // is measured separately and subtracted so the numbers are
      // substitution-only.
      auto restore = [&] {
        std::memcpy(work.data(), rhs0.data(),
                    static_cast<std::size_t>(R) * stride * sizeof(cplx));
      };
      const double t_copy = pcf::bench::time_median(restore, floor_s).median;
      auto timed = [&](auto&& solve) {
        const pcf::bench::timing tt = pcf::bench::time_median(
            [&] {
              restore();
              solve();
            },
            floor_s);
        return pcf::bench::timing{std::max(tt.median - t_copy, 0.0) / R,
                                  tt.iqr / R};
      };
      rhs_case c{h, R, {}, {}, {}, {}};
      c.scalar = timed([&] { C.solve_many_scalar(work.data(), R, stride); });
      c.blocked =
          timed([&] { C.solve_many_blocked_generic(work.data(), R, stride); });
      c.vec = timed([&] { C.solve_many(work.data(), R, stride); });
      c.gb = timed([&] { Gr.solve_many(work.data(), R, stride); });
      if (R == 1) scalar1 = c.scalar.median;
      cases.push_back(c);
      mt.add_row({std::to_string(2 * h + 1), std::to_string(R), cell(c.scalar),
                  cell(c.blocked), cell(c.vec),
                  pcf::text_table::fmt(scalar1 / c.vec.median, 2) + "x",
                  cell(c.gb)});
    }
  }
  std::fputs(mt.str().c_str(), stdout);

  // Acceptance figure: blocked multi-RHS per-RHS speedup over the scalar
  // single-RHS path at the production bandwidth (h = 7) and R = 4.
  double s1 = 0.0, v4 = 0.0;
  for (const rhs_case& c : cases) {
    if (c.h == 7 && c.r == 1) s1 = c.scalar.median;
    if (c.h == 7 && c.r == 4) v4 = c.vec.median;
  }
  if (v4 > 0.0)
    std::printf("\nh=7: blocked 4-RHS per-RHS speedup over scalar 1-RHS: "
                "%.2fx\n",
                s1 / v4);
  write_json("BENCH_banded.json", n, fast, cases);
  std::printf("wrote BENCH_banded.json (%zu cases)\n", cases.size());
  return 0;
}
