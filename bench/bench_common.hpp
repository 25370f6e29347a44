// Shared helpers for the table-reproduction benchmark harness.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/table.hpp"
#include "util/timer.hpp"

namespace pcf::bench {

/// Environment-tunable workload size (PCF_BENCH_REPS, PCF_BENCH_NX, ...):
/// `fallback` when the variable is unset, otherwise its value, which must
/// be a positive integer spelled as plain digits. Anything else (empty,
/// zero, a sign, trailing text, overflow) exits 2 naming the variable, so
/// a typo never turns into a zero-rep `inf s` table or an empty grid.
inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  long x = 0;
  const auto [ptr, ec] = std::from_chars(v, end, x);
  if (ec != std::errc{} || ptr != end || x <= 0) {
    std::fprintf(stderr, "%s must be a positive integer, got '%s'\n", name,
                 v);
    std::exit(2);
  }
  return x;
}

/// Time `fn` by repeating it until ~min_seconds has elapsed; returns
/// seconds per call.
template <class F>
double time_call(F&& fn, double min_seconds = 0.05, int min_reps = 3) {
  // Warm up.
  fn();
  int reps = min_reps;
  for (;;) {
    wall_timer t;
    for (int i = 0; i < reps; ++i) fn();
    const double s = t.seconds();
    if (s >= min_seconds || reps > (1 << 22)) return s / reps;
    reps *= 4;
  }
}

/// Median and interquartile range of `k` time_call() samples, seconds per
/// call. One sample can land on a preemption or a clock step; the median
/// of several resolves a kernel change, and the IQR says how far to trust
/// it.
struct timing {
  double median = 0.0;
  double iqr = 0.0;
};

template <class F>
timing time_median(F&& fn, double min_seconds = 0.05, int k = 5) {
  std::vector<double> s(static_cast<std::size_t>(std::max(k, 1)));
  for (double& v : s) v = time_call(fn, min_seconds);
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return {s[n / 2], s[(3 * n) / 4] - s[n / 4]};
}

inline void print_header(const char* table, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", table, description);
  std::printf("==============================================================\n");
}

}  // namespace pcf::bench
