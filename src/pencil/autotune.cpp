#include "pencil/autotune.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>

#include "io/atomic_file.hpp"
#include "util/crc.hpp"
#include "util/timer.hpp"

namespace pcf::pencil {

namespace {

// On-disk layout: header {magic, version, entry count} then fixed-size
// entries, each 18 payload words (11 key + 7 choice) followed by a CRC-32
// of those payload bytes. All words are native u32 — the cache is a local
// per-machine artifact, not an interchange format.
//
// v2 (the decomposition layer): key grew {decomp_kind, replica_c}, choice
// grew {decomp, pa, pb}. v1 files fail the version check and fall back to
// re-measurement — exactly the invalidation the format bump is for.
constexpr std::uint32_t kMagic = 0x50465443;  // "PFTC"
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kPayloadWords = 18;
constexpr std::size_t kEntryBytes = (kPayloadWords + 1) * sizeof(std::uint32_t);
constexpr std::size_t kHeaderBytes = 3 * sizeof(std::uint32_t);

std::uint32_t encode_strategy(exchange_strategy s) {
  return s == exchange_strategy::pairwise ? 1u : 0u;
}

bool decode_strategy(std::uint32_t v, exchange_strategy& out) {
  if (v == 0) out = exchange_strategy::alltoall;
  else if (v == 1) out = exchange_strategy::pairwise;
  else return false;
  return true;
}

std::uint32_t encode_decomp(decomposition d) {
  switch (d) {
    case decomposition::pencil2d: return 0;
    case decomposition::slab: return 1;
    case decomposition::hybrid_25d: return 2;
    case decomposition::tuned: return 3;
  }
  return 0;
}

bool decode_decomp(std::uint32_t v, decomposition& out) {
  if (v == 0) out = decomposition::pencil2d;
  else if (v == 1) out = decomposition::slab;
  else if (v == 2) out = decomposition::hybrid_25d;
  else if (v == 3) out = decomposition::tuned;
  else return false;
  return true;
}

void pack_entry(const tune_entry& e, std::uint32_t w[kPayloadWords + 1]) {
  w[0] = e.key.nx;
  w[1] = e.key.ny;
  w[2] = e.key.nz;
  w[3] = e.key.pa;
  w[4] = e.key.pb;
  w[5] = e.key.fft_threads;
  w[6] = e.key.reorder_threads;
  w[7] = e.key.max_batch;
  w[8] = e.key.flags;
  w[9] = e.key.decomp_kind;
  w[10] = e.key.replica_c;
  w[11] = encode_strategy(e.choice.strat_a);
  w[12] = encode_strategy(e.choice.strat_b);
  w[13] = static_cast<std::uint32_t>(e.choice.batch);
  w[14] = static_cast<std::uint32_t>(e.choice.pipeline_depth);
  w[15] = encode_decomp(e.choice.decomp);
  w[16] = static_cast<std::uint32_t>(e.choice.pa);
  w[17] = static_cast<std::uint32_t>(e.choice.pb);
  w[kPayloadWords] = crc32(w, kPayloadWords * sizeof(std::uint32_t));
}

bool unpack_entry(const std::uint32_t w[kPayloadWords + 1], tune_entry& e,
                  std::string& why) {
  if (crc32(w, kPayloadWords * sizeof(std::uint32_t)) != w[kPayloadWords]) {
    why = "entry CRC mismatch";
    return false;
  }
  e.key = tune_key{w[0], w[1], w[2], w[3], w[4], w[5],
                   w[6], w[7], w[8], w[9], w[10]};
  if (!decode_strategy(w[11], e.choice.strat_a) ||
      !decode_strategy(w[12], e.choice.strat_b)) {
    why = "unknown exchange strategy code";
    return false;
  }
  e.choice.batch = static_cast<int>(w[13]);
  e.choice.pipeline_depth = static_cast<int>(w[14]);
  if (e.choice.batch < 1 || e.choice.batch > 1024 ||
      e.choice.pipeline_depth < 1 ||
      e.choice.pipeline_depth > e.choice.batch) {
    why = "implausible tuning choice";
    return false;
  }
  if (!decode_decomp(w[15], e.choice.decomp) ||
      e.choice.decomp == decomposition::tuned) {
    why = "unknown or unresolved decomposition code";
    return false;
  }
  e.choice.pa = static_cast<int>(w[16]);
  e.choice.pb = static_cast<int>(w[17]);
  if (w[16] > (1u << 20) || w[17] > (1u << 20)) {
    why = "implausible decomposition grid";
    return false;
  }
  return true;
}

void warn(std::vector<std::string>* sink, std::string msg) {
  std::cerr << "pcf autotune: " << msg << "\n";
  if (sink != nullptr) sink->push_back(std::move(msg));
}

// --- in-process memo (see the header's section comment) --------------------

struct memo_entry {
  std::string path;
  tune_key key;
  tune_choice choice;
  bool ready = false;  // false: an owner is measuring
};

struct memo_state {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<memo_entry> entries;
  std::uint64_t hits = 0, misses = 0;
};

memo_state& memo() {
  static memo_state m;
  return m;
}

memo_entry* memo_find_locked(memo_state& m, const std::string& path,
                             const tune_key& key) {
  for (memo_entry& e : m.entries)
    if (e.path == path && e.key == key) return &e;
  return nullptr;
}

// True on a published hit (`out` filled). False when the caller became the
// owner and must measure, then publish (or abandon, so a waiter can take
// over). With `force` set the caller always ends up owning — it waits out
// any in-flight measurement first, then re-measures over the stale choice.
bool memo_lookup_or_begin(const std::string& path, const tune_key& key,
                          bool force, tune_choice& out) {
  memo_state& m = memo();
  std::unique_lock<std::mutex> lk(m.mu);
  for (;;) {
    memo_entry* e = memo_find_locked(m, path, key);
    if (e == nullptr) {
      m.entries.push_back({path, key, tune_choice{}, false});
      ++m.misses;
      return false;
    }
    if (!e->ready) {
      m.cv.wait(lk);
      continue;
    }
    if (force) {
      e->ready = false;
      ++m.misses;
      return false;
    }
    ++m.hits;
    out = e->choice;
    return true;
  }
}

void memo_publish(const std::string& path, const tune_key& key,
                  const tune_choice& choice) {
  memo_state& m = memo();
  {
    std::lock_guard<std::mutex> lk(m.mu);
    memo_entry* e = memo_find_locked(m, path, key);
    if (e != nullptr) {
      e->choice = choice;
      e->ready = true;
    }
  }
  m.cv.notify_all();
}

void memo_abandon(const std::string& path, const tune_key& key) {
  memo_state& m = memo();
  {
    std::lock_guard<std::mutex> lk(m.mu);
    auto& v = m.entries;
    for (auto it = v.begin(); it != v.end(); ++it)
      if (it->path == path && it->key == key && !it->ready) {
        v.erase(it);
        break;
      }
  }
  m.cv.notify_all();
}

// RAII over an owned (measuring) memo slot: abandons on scope exit unless
// published, so an exception mid-measurement wakes a waiter to take over
// instead of deadlocking every later caller of the key.
struct memo_ownership {
  std::string path;
  tune_key key;
  bool armed = false;

  memo_ownership() = default;
  memo_ownership(const memo_ownership&) = delete;
  memo_ownership& operator=(const memo_ownership&) = delete;
  ~memo_ownership() {
    if (armed) memo_abandon(path, key);
  }
  void arm(const std::string& p, const tune_key& k) {
    path = p;
    key = k;
    armed = true;
  }
  void publish(const tune_choice& c) {
    memo_publish(path, key, c);
    armed = false;
  }
};

// Serializes load-merge-store cycles on one cache file across threads; the
// memo covers same-key racing, this covers distinct keys merging into the
// same file. Mutexes are never reclaimed — the table holds one entry per
// distinct cache path the process ever tunes against.
std::mutex& cache_file_mutex(const std::string& path) {
  static std::mutex table_mu;
  static std::vector<std::pair<std::string, std::unique_ptr<std::mutex>>>
      table;
  std::lock_guard<std::mutex> lk(table_mu);
  for (auto& [p, mu] : table)
    if (p == path) return *mu;
  table.emplace_back(path, std::make_unique<std::mutex>());
  return *table.back().second;
}

// The workload every tuner decision is measured on: one RK3 nonlinear
// substage's transforms, 3 fields down to physical space and 5 products
// back up. Best of `reps` timed runs after an untimed warm-up, then
// max-reduced over `world`, so every rank compares identical numbers and
// takes the same argmin.
double time_substage(parallel_fft& pf, vmpi::communicator& world, int reps) {
  constexpr std::size_t kDown = 3, kUp = 5;
  const decomp& d = pf.dec();
  std::vector<std::vector<cplx>> spec(kUp);
  std::vector<std::vector<double>> phys(kUp);
  for (std::size_t f = 0; f < kUp; ++f) {
    spec[f].assign(d.y_pencil_elems(), cplx{0.0, 0.0});
    phys[f].assign(d.x_pencil_real_elems(), 0.0);
  }
  const cplx* sdown[kDown];
  double* pdown[kDown];
  const double* pup[kUp];
  cplx* sup[kUp];
  for (std::size_t f = 0; f < kDown; ++f) {
    sdown[f] = spec[f].data();
    pdown[f] = phys[f].data();
  }
  for (std::size_t f = 0; f < kUp; ++f) {
    pup[f] = phys[f].data();
    sup[f] = spec[f].data();
  }
  auto substage = [&] {
    pf.to_physical_batch(sdown, pdown, kDown);
    pf.to_spectral_batch(pup, sup, kUp);
  };
  substage();  // warm-up, untimed
  double local = std::numeric_limits<double>::infinity();
  for (int r = 0; r < std::max(1, reps); ++r) {
    wall_timer t;
    substage();
    local = std::min(local, t.seconds());
  }
  double agreed = 0.0;
  world.allreduce_max(&local, &agreed, 1);
  return agreed;
}

// Strategies worth timing on a communicator of `size` ranks: a size-1
// communicator exchanges nothing, so only the default applies there.
std::vector<exchange_strategy> strategy_candidates(int size) {
  if (size == 1) return {exchange_strategy::alltoall};
  return {exchange_strategy::alltoall, exchange_strategy::pairwise};
}

}  // namespace

tuning_memo_stats tuning_memo_statistics() {
  memo_state& m = memo();
  std::lock_guard<std::mutex> lk(m.mu);
  tuning_memo_stats s;
  s.hits = m.hits;
  s.misses = m.misses;
  for (const memo_entry& e : m.entries)
    if (e.ready) ++s.entries;
  return s;
}

void tuning_memo_reset() {
  memo_state& m = memo();
  std::lock_guard<std::mutex> lk(m.mu);
  m.entries.clear();
  m.hits = 0;
  m.misses = 0;
}

tune_key make_tune_key(const grid& g, const kernel_config& base, int pa,
                       int pb, decomposition dk, int replica_c) {
  tune_key k;
  k.decomp_kind = encode_decomp(dk);
  k.replica_c = static_cast<std::uint32_t>(std::max(0, replica_c));
  k.nx = static_cast<std::uint32_t>(g.nx);
  k.ny = static_cast<std::uint32_t>(g.ny);
  k.nz = static_cast<std::uint32_t>(g.nz);
  k.pa = static_cast<std::uint32_t>(pa);
  k.pb = static_cast<std::uint32_t>(pb);
  k.fft_threads = static_cast<std::uint32_t>(std::max(1, base.fft_threads));
  k.reorder_threads =
      static_cast<std::uint32_t>(std::max(1, base.reorder_threads));
  k.max_batch = static_cast<std::uint32_t>(std::max(1, base.max_batch));
  k.flags = (base.drop_nyquist ? 1u : 0u) | (base.dealias ? 2u : 0u);
  return k;
}

kernel_config apply_tuning(kernel_config base, const tune_choice& choice) {
  base.strategy_a = choice.strat_a;
  base.strategy_b = choice.strat_b;
  base.max_batch = choice.batch;
  base.pipeline_depth = choice.pipeline_depth;
  return base;
}

std::vector<tune_entry> load_tuning_cache(const std::string& path,
                                          std::vector<std::string>* warnings) {
  std::vector<tune_entry> entries;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return entries;  // no cache yet: a silent miss
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() < kHeaderBytes) {
    warn(warnings, "tuning cache '" + path + "' truncated header; ignoring");
    return entries;
  }
  std::uint32_t hdr[3];
  std::memcpy(hdr, bytes.data(), kHeaderBytes);
  if (hdr[0] != kMagic) {
    warn(warnings, "tuning cache '" + path + "' has bad magic; ignoring");
    return entries;
  }
  if (hdr[1] != kVersion) {
    warn(warnings, "tuning cache '" + path + "' has version " +
                       std::to_string(hdr[1]) + " (expected " +
                       std::to_string(kVersion) + "); ignoring");
    return entries;
  }
  const std::size_t count = hdr[2];
  const std::size_t body = bytes.size() - kHeaderBytes;
  if (body != count * kEntryBytes) {
    warn(warnings, "tuning cache '" + path +
                       "' body size does not match its entry count; "
                       "keeping the valid prefix");
  }
  const std::size_t have = std::min(count, body / kEntryBytes);
  for (std::size_t i = 0; i < have; ++i) {
    std::uint32_t w[kPayloadWords + 1];
    std::memcpy(w, bytes.data() + kHeaderBytes + i * kEntryBytes, kEntryBytes);
    tune_entry e;
    std::string why;
    if (unpack_entry(w, e, why)) {
      entries.push_back(e);
    } else {
      warn(warnings, "tuning cache '" + path + "' entry " +
                         std::to_string(i) + ": " + why + "; skipping it");
    }
  }
  return entries;
}

void save_tuning_cache(const std::string& path,
                       const std::vector<tune_entry>& entries) {
  io::atomic_file_writer w(path);
  const std::uint32_t hdr[3] = {kMagic, kVersion,
                                static_cast<std::uint32_t>(entries.size())};
  w.write(hdr, sizeof(hdr));
  for (const tune_entry& e : entries) {
    std::uint32_t words[kPayloadWords + 1];
    pack_entry(e, words);
    w.write(words, sizeof(words));
  }
  w.commit();
}

const tune_entry* find_tuning_entry(const std::vector<tune_entry>& entries,
                                    const tune_key& key) {
  for (const tune_entry& e : entries)
    if (e.key == key) return &e;
  return nullptr;
}

tune_report autotune_transforms(const grid& g, vmpi::communicator& world,
                                vmpi::cart2d& cart, const kernel_config& base,
                                const tune_options& opt) {
  tune_report rep;
  rep.key = make_tune_key(g, base, cart.pa(), cart.pb());
  const bool root = world.rank() == 0;

  // Consult the caches on rank 0 and broadcast the verdict so every rank
  // takes the same branch (measurement is collective). Memo first — a
  // published hit costs no file I/O, and a miss makes this call the key's
  // owner (concurrent callers of the same key block until we publish).
  std::uint32_t hit[5] = {0, 0, 0, 0, 0};  // hit[0]: 0 miss, 1 file, 2 memo
  std::vector<tune_entry> entries;
  memo_ownership own;
  if (!opt.cache_path.empty()) {
    if (root) {
      tune_choice mc;
      if (memo_lookup_or_begin(opt.cache_path, rep.key, opt.force_retune,
                               mc)) {
        hit[0] = 2;
        hit[1] = encode_strategy(mc.strat_a);
        hit[2] = encode_strategy(mc.strat_b);
        hit[3] = static_cast<std::uint32_t>(mc.batch);
        hit[4] = static_cast<std::uint32_t>(mc.pipeline_depth);
      } else {
        own.arm(opt.cache_path, rep.key);
        std::lock_guard<std::mutex> flk(cache_file_mutex(opt.cache_path));
        entries = load_tuning_cache(opt.cache_path, &rep.warnings);
        const tune_entry* e = find_tuning_entry(entries, rep.key);
        if (e != nullptr && !opt.force_retune) {
          hit[0] = 1;
          hit[1] = encode_strategy(e->choice.strat_a);
          hit[2] = encode_strategy(e->choice.strat_b);
          hit[3] = static_cast<std::uint32_t>(e->choice.batch);
          hit[4] = static_cast<std::uint32_t>(e->choice.pipeline_depth);
        }
      }
    }
    world.bcast(hit, 5, 0);
  }
  if (hit[0] != 0) {
    rep.from_cache = true;
    rep.from_memo = hit[0] == 2;
    decode_strategy(hit[1], rep.choice.strat_a);
    decode_strategy(hit[2], rep.choice.strat_b);
    rep.choice.batch = static_cast<int>(hit[3]);
    rep.choice.pipeline_depth = static_cast<int>(hit[4]);
    if (root && own.armed) own.publish(rep.choice);  // seed memo from file
    return rep;
  }

  // The exchange-strategy pair first, on the widest batch without
  // pipelining; ties keep the earlier candidate (alltoall), and a lone
  // candidate pair (every communicator of size 1) is not timed. The batch
  // and depth sweep then runs with the winning pair.
  tune_choice chosen;
  const std::vector<exchange_strategy> cand_a =
      strategy_candidates(cart.pa());
  const std::vector<exchange_strategy> cand_b =
      strategy_candidates(cart.pb());
  double best_time = std::numeric_limits<double>::infinity();
  if (cand_a.size() * cand_b.size() > 1) {
    for (exchange_strategy sa : cand_a) {
      for (exchange_strategy sb : cand_b) {
        parallel_fft pf(g, cart,
                        apply_tuning(base, {sa, sb,
                                            std::max(1, base.max_batch), 1}));
        const double agreed = time_substage(pf, world, opt.reps);
        if (agreed < best_time) {
          best_time = agreed;
          chosen.strat_a = sa;
          chosen.strat_b = sb;
        }
      }
    }
  }

  best_time = std::numeric_limits<double>::infinity();
  const int fcand[3] = {1, 3, 5};
  for (int F : fcand) {
    if (F > std::max(1, base.max_batch)) continue;
    for (int depth = 1; depth <= 2; ++depth) {
      if (depth > F) continue;  // a group per field at most
      parallel_fft pf(g, cart,
                      apply_tuning(base, {chosen.strat_a, chosen.strat_b, F,
                                          depth}));
      const double agreed = time_substage(pf, world, opt.reps);
      rep.measured.push_back({F, depth, agreed});
      if (F == 1 && depth == 1) rep.per_field_s = agreed;
      // Strict < with the ascending (F, depth) sweep: ties go to the
      // smaller batch, then the shallower pipeline — deterministic, and
      // identical on every rank because `agreed` is.
      if (agreed < best_time) {
        best_time = agreed;
        chosen.batch = F;
        chosen.pipeline_depth = depth;
      }
    }
  }
  rep.choice = chosen;
  rep.chosen_s = best_time;

  if (!opt.cache_path.empty()) {
    if (root) {
      // Load-merge-store so concurrent keys (other grids/splits) survive;
      // the per-path mutex keeps a concurrent merger from dropping ours.
      std::lock_guard<std::mutex> flk(cache_file_mutex(opt.cache_path));
      entries = load_tuning_cache(opt.cache_path, nullptr);
      bool replaced = false;
      for (tune_entry& e : entries)
        if (e.key == rep.key) {
          e.choice = chosen;
          replaced = true;
        }
      if (!replaced) entries.push_back({rep.key, chosen});
      try {
        save_tuning_cache(opt.cache_path, entries);
        rep.stored = true;
      } catch (const std::exception& ex) {
        warn(&rep.warnings, std::string("failed to store tuning cache '") +
                                opt.cache_path + "': " + ex.what());
      }
    }
    // The cache write (or its failure) is settled before anyone returns
    // and possibly re-reads the file.
    world.barrier();
    // Publish after the file settles: waiters blocked on this key resume
    // with the measured choice (a failed store still publishes — the
    // choice is valid either way).
    if (root && own.armed) own.publish(chosen);
  }
  return rep;
}

decomp_tune_report autotune_decomposition(const grid& g,
                                          vmpi::communicator& world,
                                          decomposition requested, int pa,
                                          int pb, int replica_c,
                                          const kernel_config& base,
                                          const tune_options& opt) {
  decomp_tune_report rep;
  const int ranks = world.size();
  if (requested != decomposition::tuned) {
    rep.plan = plan_decomposition(requested, g, ranks, pa, pb, replica_c);
    return rep;
  }
  // Tuned runs need no configured pencil grid (the config default is
  // 1 x 1): normalize to the near-square split so the candidate set and
  // the cache key agree across launches.
  if (pa < 1 || pb < 1 || pa * pb != ranks)
    default_pencil_grid(ranks, pa, pb);
  rep.key = make_tune_key(g, base, pa, pb, decomposition::tuned, replica_c);
  const bool root = world.rank() == 0;

  // Cache consult on rank 0 (memo tier first, exactly as in
  // autotune_transforms), verdict broadcast (measurement is collective).
  std::uint32_t hit[4] = {0, 0, 0, 0};  // hit[0]: 0 miss, 1 file, 2 memo
  std::vector<tune_entry> entries;
  memo_ownership own;
  if (!opt.cache_path.empty()) {
    if (root) {
      tune_choice mc;
      if (memo_lookup_or_begin(opt.cache_path, rep.key, opt.force_retune,
                               mc)) {
        hit[0] = 2;
        hit[1] = encode_decomp(mc.decomp);
        hit[2] = static_cast<std::uint32_t>(mc.pa);
        hit[3] = static_cast<std::uint32_t>(mc.pb);
      } else {
        own.arm(opt.cache_path, rep.key);
        std::lock_guard<std::mutex> flk(cache_file_mutex(opt.cache_path));
        entries = load_tuning_cache(opt.cache_path, &rep.warnings);
        const tune_entry* e = find_tuning_entry(entries, rep.key);
        if (e != nullptr && !opt.force_retune) {
          hit[0] = 1;
          hit[1] = encode_decomp(e->choice.decomp);
          hit[2] = static_cast<std::uint32_t>(e->choice.pa);
          hit[3] = static_cast<std::uint32_t>(e->choice.pb);
        }
      }
    }
    world.bcast(hit, 4, 0);
  }
  if (hit[0] != 0) {
    decomposition dk = decomposition::pencil2d;
    decode_decomp(hit[1], dk);
    const int cpa = static_cast<int>(hit[2]);
    const int cpb = static_cast<int>(hit[3]);
    if (cpa >= 1 && cpb >= 1 && cpa * cpb == ranks) {
      rep.from_cache = true;
      rep.from_memo = hit[0] == 2;
      rep.plan = {dk, cpa, cpb,
                  dk == decomposition::hybrid_25d ? cpa : 1};
      if (root && own.armed) {
        tune_choice c;
        c.decomp = dk;
        c.pa = cpa;
        c.pb = cpb;
        own.publish(c);  // seed the memo from the validated file hit
      }
      return rep;
    }
    if (root)
      warn(&rep.warnings,
           "cached decomposition does not cover this rank count; "
           "re-measuring");
  }

  // Measure each runnable layout on its own temporary Cartesian split,
  // running the 3-down + 5-up RK3 substage workload. pencil2d (with the
  // configured pa x pb) is always candidate 0 and ties break toward it,
  // so the tuned choice is never slower than pencil as measured.
  const std::vector<decomp_plan> cands =
      decomposition_candidates(g, ranks, pa, pb);
  double best_time = std::numeric_limits<double>::infinity();
  for (const decomp_plan& p : cands) {
    vmpi::cart2d cart(world, p.pa, p.pb);
    parallel_fft pf(g, cart, base);
    const double agreed = time_substage(pf, world, opt.reps);
    rep.measured.push_back({p, agreed});
    if (agreed < best_time) {
      best_time = agreed;
      rep.plan = p;
    }
  }

  if (!opt.cache_path.empty()) {
    tune_choice choice;
    choice.decomp = rep.plan.kind;
    choice.pa = rep.plan.pa;
    choice.pb = rep.plan.pb;
    if (root) {
      std::lock_guard<std::mutex> flk(cache_file_mutex(opt.cache_path));
      entries = load_tuning_cache(opt.cache_path, nullptr);
      bool replaced = false;
      for (tune_entry& e : entries)
        if (e.key == rep.key) {
          e.choice = choice;
          replaced = true;
        }
      if (!replaced) entries.push_back({rep.key, choice});
      try {
        save_tuning_cache(opt.cache_path, entries);
        rep.stored = true;
      } catch (const std::exception& ex) {
        warn(&rep.warnings,
             std::string("failed to store tuning cache '") + opt.cache_path +
                 "': " + ex.what());
      }
    }
    world.barrier();
    if (root && own.armed) own.publish(choice);
  }
  return rep;
}

}  // namespace pcf::pencil
