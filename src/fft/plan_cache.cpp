#include "fft/plan_cache.hpp"

#include <mutex>
#include <vector>

namespace pcf::fft {

namespace {

// One linear table per plan kind. Lookups are rare (kernel construction,
// not transforms), the entry count is small (distinct line lengths across
// a campaign), and a vector keeps iteration for trim()/stats() trivial.
template <class Plan>
struct cache {
  struct entry {
    std::size_t n;
    int variant;  // c2c: direction; r2c/c2r: 0
    std::shared_ptr<const Plan> plan;
  };
  std::vector<entry> entries;

  template <class Make>
  std::shared_ptr<const Plan> get(std::size_t n, int variant, Make&& make,
                                  std::uint64_t& hits, std::uint64_t& misses) {
    for (const entry& e : entries)
      if (e.n == n && e.variant == variant) {
        ++hits;
        return e.plan;
      }
    // Construct first: a length the plan rejects throws here and leaves
    // the counters and the table as they were.
    std::shared_ptr<const Plan> plan = make();
    ++misses;
    entries.push_back({n, variant, std::move(plan)});
    return entries.back().plan;
  }

  std::size_t trim() {
    std::size_t dropped = 0;
    for (auto it = entries.begin(); it != entries.end();) {
      if (it->plan.use_count() == 1) {
        it = entries.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }
};

struct registry {
  std::mutex mu;
  cache<c2c_plan> c2c;
  cache<r2c_plan> r2c;
  cache<c2r_plan> c2r;
  std::uint64_t hits = 0, misses = 0;
};

registry& reg() {
  static registry r;
  return r;
}

}  // namespace

std::shared_ptr<const c2c_plan> shared_c2c(std::size_t n, direction d) {
  auto& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.c2c.get(
      n, d == direction::forward ? 0 : 1,
      [&] { return std::make_shared<const c2c_plan>(n, d); }, r.hits,
      r.misses);
}

std::shared_ptr<const r2c_plan> shared_r2c(std::size_t n) {
  auto& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.r2c.get(
      n, 0, [&] { return std::make_shared<const r2c_plan>(n); }, r.hits,
      r.misses);
}

std::shared_ptr<const c2r_plan> shared_c2r(std::size_t n) {
  auto& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.c2r.get(
      n, 0, [&] { return std::make_shared<const c2r_plan>(n); }, r.hits,
      r.misses);
}

plan_cache_stats plan_cache_statistics() {
  auto& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  plan_cache_stats s;
  s.hits = r.hits;
  s.misses = r.misses;
  s.live = r.c2c.entries.size() + r.r2c.entries.size() + r.c2r.entries.size();
  auto count_shared = [&s](const auto& c) {
    for (const auto& e : c.entries)
      if (e.plan.use_count() > 1) ++s.shared;
  };
  count_shared(r.c2c);
  count_shared(r.r2c);
  count_shared(r.c2r);
  return s;
}

std::size_t plan_cache_trim() {
  auto& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.c2c.trim() + r.r2c.trim() + r.c2r.trim();
}

}  // namespace pcf::fft
