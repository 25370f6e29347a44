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
#include "pencil/decomp.hpp"
#include "util/check.hpp"
#include "util/crc.hpp"
#include "util/timer.hpp"

namespace pcf::pencil {

namespace {

// On-disk layout: header {magic, version, entry count} then fixed-size
// entries, each 14 payload words (10 key + 4 choice) followed by a CRC-32
// of those payload bytes. All words are native u32 — the cache is a local
// per-machine artifact, not an interchange format.
//
// v4 (one exchange): the key is {grid, ranks, requested split, threads,
// batch ceiling, flags} and the choice {pa, pb, batch, depth}. v3 files
// (which also carried a per-communicator exchange strategy) and v2 files
// (separate decomposition entries) fail the version check and fall back to
// re-measurement.
constexpr std::uint32_t kMagic = 0x50465443;  // "PFTC"
constexpr std::uint32_t kVersion = 4;
constexpr std::size_t kKeyWords = 10;
constexpr std::size_t kChoiceWords = 4;
constexpr std::size_t kPayloadWords = kKeyWords + kChoiceWords;
constexpr std::size_t kEntryBytes = (kPayloadWords + 1) * sizeof(std::uint32_t);
constexpr std::size_t kHeaderBytes = 3 * sizeof(std::uint32_t);

// The choice words, shared by the file entry and the rank-0 broadcast.
void pack_choice(const tune_choice& c, std::uint32_t w[kChoiceWords]) {
  w[0] = static_cast<std::uint32_t>(c.pa);
  w[1] = static_cast<std::uint32_t>(c.pb);
  w[2] = static_cast<std::uint32_t>(c.batch);
  w[3] = static_cast<std::uint32_t>(c.pipeline_depth);
}

// Decode the choice words and check them against the key they were stored
// under: a choice the key's own measurement could never have produced is
// rejected, so a hostile entry cannot size a run past its configured
// batch ceiling or onto a split that does not cover its ranks.
bool unpack_choice(const std::uint32_t w[kChoiceWords], const tune_key& key,
                   tune_choice& c, std::string& why) {
  if (w[2] < 1 || w[2] > key.max_batch || w[3] < 1 || w[3] > w[2]) {
    why = "batch/depth outside the key's ceiling";
    return false;
  }
  const bool measured = key.pa == 0 && key.pb == 0;
  if (std::uint64_t{w[0]} * w[1] != key.ranks ||
      (!measured && (w[0] != key.pa || w[1] != key.pb))) {
    why = "split does not match the key's ranks";
    return false;
  }
  c.pa = static_cast<int>(w[0]);
  c.pb = static_cast<int>(w[1]);
  c.batch = static_cast<int>(w[2]);
  c.pipeline_depth = static_cast<int>(w[3]);
  return true;
}

void pack_entry(const tune_entry& e, std::uint32_t w[kPayloadWords + 1]) {
  const tune_key& k = e.key;
  const std::uint32_t key[kKeyWords] = {
      k.nx, k.ny, k.nz, k.ranks, k.pa, k.pb, k.fft_threads,
      k.reorder_threads, k.max_batch, k.flags};
  std::memcpy(w, key, sizeof(key));
  pack_choice(e.choice, w + kKeyWords);
  w[kPayloadWords] = crc32(w, kPayloadWords * sizeof(std::uint32_t));
}

bool unpack_entry(const std::uint32_t w[kPayloadWords + 1], tune_entry& e,
                  std::string& why) {
  if (crc32(w, kPayloadWords * sizeof(std::uint32_t)) != w[kPayloadWords]) {
    why = "entry CRC mismatch";
    return false;
  }
  e.key = tune_key{w[0], w[1], w[2], w[3], w[4],
                   w[5], w[6], w[7], w[8], w[9]};
  return unpack_choice(w + kKeyWords, e.key, e.choice, why);
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

// The measurement behind a cache miss (collective over `world`): the split
// first when it was not given, then the batch/depth sweep on the winning
// split. Every argmin is strict < over a fixed candidate order, so ties
// keep the earlier candidate and every rank (comparing identical agreed
// times) picks the same one. One rank runs no exchange, so batch width and
// depth only re-chunk the same FFT lines there: base's values are kept and
// nothing is timed.
tune_choice measure(const grid& g, vmpi::communicator& world, int pa, int pb,
                    const kernel_config& base, const tune_options& opt,
                    tune_report& rep) {
  const int max_batch = std::max(1, base.max_batch);
  tune_choice chosen;
  chosen.pa = pa;
  chosen.pb = pb;
  if (world.size() == 1) {
    chosen.pa = chosen.pb = 1;
    chosen.batch = max_batch;
    chosen.pipeline_depth = std::clamp(base.pipeline_depth, 1, max_batch);
    return chosen;
  }
  if (pa == 0 && pb == 0) {
    const std::vector<process_split> splits =
        split_candidates(g, world.size(), 0, 0);
    chosen.pa = splits[0].pa;
    chosen.pb = splits[0].pb;
    double best = std::numeric_limits<double>::infinity();
    if (splits.size() > 1) {
      for (const process_split& s : splits) {
        vmpi::cart2d cart(world, s.pa, s.pb);
        parallel_fft pf(g, cart, base);
        const double agreed = time_substage(pf, world, opt.reps);
        rep.measured.push_back(
            {s.pa, s.pb, base.max_batch, base.pipeline_depth, agreed});
        if (agreed < best) {
          best = agreed;
          chosen.pa = s.pa;
          chosen.pb = s.pb;
        }
      }
    }
  }
  vmpi::cart2d cart(world, chosen.pa, chosen.pb);

  // The batch/depth sweep, ascending (F, depth): ties go to the smaller
  // batch, then the shallower pipeline.
  double best = std::numeric_limits<double>::infinity();
  for (int F : {1, 3, 5}) {
    if (F > max_batch) continue;
    for (int depth = 1; depth <= 2 && depth <= F; ++depth) {
      tune_choice c = chosen;
      c.batch = F;
      c.pipeline_depth = depth;
      parallel_fft pf(g, cart, apply_tuning(base, c));
      const double agreed = time_substage(pf, world, opt.reps);
      rep.measured.push_back({chosen.pa, chosen.pb, F, depth, agreed});
      if (F == 1 && depth == 1) rep.per_field_s = agreed;
      if (agreed < best) {
        best = agreed;
        chosen.batch = F;
        chosen.pipeline_depth = depth;
      }
    }
  }
  rep.chosen_s = best;
  return chosen;
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

tune_key make_tune_key(const grid& g, const kernel_config& base, int ranks,
                       int pa, int pb) {
  tune_key k;
  k.nx = static_cast<std::uint32_t>(g.nx);
  k.ny = static_cast<std::uint32_t>(g.ny);
  k.nz = static_cast<std::uint32_t>(g.nz);
  k.ranks = static_cast<std::uint32_t>(ranks);
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
                                int pa, int pb, const kernel_config& base,
                                const tune_options& opt) {
  PCF_REQUIRE((pa == 0 && pb == 0) ||
                  (pa >= 1 && pb >= 1 && pa * pb == world.size()),
              "autotune split must cover the ranks, or be 0 x 0 to measure");
  tune_report rep;
  rep.key = make_tune_key(g, base, world.size(), pa, pb);
  const bool root = world.rank() == 0;

  // Consult the caches on rank 0 and broadcast the verdict so every rank
  // takes the same branch (measurement is collective). Memo first — a
  // published hit costs no file I/O, and a miss makes this call the key's
  // owner (concurrent callers of the same key block until we publish).
  // hit[0]: 0 miss, 1 file, 2 memo; then the choice words.
  std::uint32_t hit[1 + kChoiceWords] = {};
  memo_ownership own;
  if (!opt.cache_path.empty()) {
    if (root) {
      tune_choice mc;
      if (memo_lookup_or_begin(opt.cache_path, rep.key, opt.force_retune,
                               mc)) {
        hit[0] = 2;
        pack_choice(mc, hit + 1);
      } else {
        own.arm(opt.cache_path, rep.key);
        std::lock_guard<std::mutex> flk(cache_file_mutex(opt.cache_path));
        const std::vector<tune_entry> entries =
            load_tuning_cache(opt.cache_path, &rep.warnings);
        const tune_entry* e = find_tuning_entry(entries, rep.key);
        if (e != nullptr && !opt.force_retune) {
          hit[0] = 1;
          pack_choice(e->choice, hit + 1);
        }
      }
    }
    world.bcast(hit, 1 + kChoiceWords, 0);
  }
  if (hit[0] != 0) {
    std::string why;
    (void)unpack_choice(hit + 1, rep.key, rep.choice, why);  // checked
    rep.from_cache = true;
    rep.from_memo = hit[0] == 2;
    if (root && own.armed) own.publish(rep.choice);  // seed memo from file
    return rep;
  }

  rep.choice = measure(g, world, pa, pb, base, opt, rep);

  if (!opt.cache_path.empty()) {
    if (root) {
      // Load-merge-store so concurrent keys (other grids/splits) survive;
      // the per-path mutex keeps a concurrent merger from dropping ours.
      std::lock_guard<std::mutex> flk(cache_file_mutex(opt.cache_path));
      std::vector<tune_entry> entries =
          load_tuning_cache(opt.cache_path, nullptr);
      bool replaced = false;
      for (tune_entry& e : entries)
        if (e.key == rep.key) {
          e.choice = rep.choice;
          replaced = true;
        }
      if (!replaced) entries.push_back({rep.key, rep.choice});
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
    if (root && own.armed) own.publish(rep.choice);
  }
  return rep;
}

}  // namespace pcf::pencil
