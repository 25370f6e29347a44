#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <iomanip>
#include <mutex>
#include <optional>
#include <sstream>

#include "fft/plan_cache.hpp"
#include "pencil/autotune.hpp"
#include "util/block_pool.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "vmpi/vmpi.hpp"

namespace pcf::campaign {

const char* to_string(job_state s) {
  switch (s) {
    case job_state::queued: return "queued";
    case job_state::running: return "running";
    case job_state::suspended: return "suspended";
    case job_state::evicted: return "evicted";
    case job_state::done: return "done";
    case job_state::cancelled: return "cancelled";
    case job_state::failed: return "failed";
  }
  return "?";
}

namespace {

bool settled(job_state s) {
  return s == job_state::done || s == job_state::cancelled ||
         s == job_state::failed;
}

/// One scheduled run. The scalar bookkeeping is guarded by the server
/// mutex; `dns` is touched only by the single worker inside this tenant's
/// slice (the scheduler never queues two slices of one tenant at once) or
/// by an evictor that first took ownership under the mutex.
struct tenant {
  std::uint64_t id = 0;
  job_spec spec;
  job_state state = job_state::queued;
  std::optional<vmpi::communicator> world;  // size-1, minted at enqueue
  std::unique_ptr<core::channel_dns> dns;
  long steps_done = 0;
  double sim_time = 0.0;
  int evictions = 0;
  std::uint64_t last_ran = 0;  // service stamp; smallest = coldest
  bool initialized = false;    // initialize() has seeded the state
  bool spilled = false;        // a spill checkpoint awaits readmission
  bool evicting = false;       // an evictor is writing that checkpoint
  bool in_slice = false;       // a worker is inside this tenant's slice
  std::atomic<bool> cancel_requested{false};
  std::string error;
  std::vector<series_sample> series;
  // Phase-timer accumulation over every slice (timings()/reset_timings()
  // at slice boundaries): where this run's wall time actually went.
  double sec_total = 0.0, sec_fft = 0.0, sec_transpose = 0.0,
         sec_advance = 0.0;
};

}  // namespace

struct campaign_server::impl {
  campaign_config cfg;

  mutable std::mutex mu;
  std::condition_variable cv;  // eviction hand-off + state changes
  std::vector<std::unique_ptr<tenant>> tenants;
  std::uint64_t next_id = 1;
  std::uint64_t clock = 0;  // service stamps for coldest-tenant selection
  std::function<void(std::uint64_t, core::channel_dns&)> observer;

  std::unique_ptr<thread_pool> pool;  // alive during run()
  bool ran = false;
  bool draining = false;

  std::uint64_t evictions = 0;
  std::uint64_t readmissions = 0;

  explicit impl(campaign_config c) : cfg(std::move(c)) {
    PCF_REQUIRE(cfg.workers >= 1, "campaign needs at least one worker");
    PCF_REQUIRE(cfg.slice_steps >= 1, "slice must advance at least one step");
    PCF_REQUIRE(
        (cfg.max_resident == 0 && cfg.memory_budget_bytes == 0) ||
            !cfg.spill_dir.empty(),
        "a residency cap needs a spill_dir for eviction checkpoints");
  }

  tenant* find_locked(std::uint64_t id) {
    for (auto& t : tenants)
      if (t->id == id) return t.get();
    return nullptr;
  }

  std::string spill_path(const tenant& t) const {
    return cfg.spill_dir + "/pcf_campaign_job_" + std::to_string(t.id) +
           ".ckpt";
  }

  static void remove_spill(tenant& t, const std::string& path) {
    if (t.spilled) std::remove(path.c_str());
    t.spilled = false;
  }

  // --- residency / eviction ------------------------------------------------

  std::size_t resident_locked() const {
    std::size_t n = 0;
    // A mid-slice tenant holds (or is about to construct) its instance in
    // the slice's locals, invisible through t->dns — count it resident.
    for (const auto& t : tenants)
      if (t->dns != nullptr || t->evicting || t->in_slice) ++n;
    return n;
  }

  bool over_budget_locked() const {
    if (cfg.max_resident > 0 &&
        resident_locked() >= static_cast<std::size_t>(cfg.max_resident))
      return true;
    if (cfg.memory_budget_bytes > 0) {
      const auto s = block_pool::global().stats();
      const std::uint64_t in_use =
          static_cast<std::uint64_t>(s.blocks_leased + s.blocks_cached) *
          block_pool::global().config().block_bytes;
      if (in_use > cfg.memory_budget_bytes) return true;
    }
    return false;
  }

  /// Evict coldest suspended tenants until the budget admits `self` (or no
  /// victim remains — liveness beats strictness: with every resident
  /// tenant mid-slice there is nothing safe to spill, and the admission
  /// proceeds anyway). Called with `lk` held; unlocks around the spill
  /// write so other slices keep flowing.
  void make_room_locked(std::unique_lock<std::mutex>& lk, tenant& self) {
    while (over_budget_locked()) {
      tenant* victim = nullptr;
      for (auto& c : tenants) {
        if (c.get() == &self || c->dns == nullptr) continue;
        if (c->in_slice || c->evicting || c->state != job_state::suspended)
          continue;
        if (victim == nullptr || c->last_ran < victim->last_ran)
          victim = c.get();
      }
      if (victim == nullptr) return;
      victim->evicting = true;
      victim->state = job_state::evicted;
      std::unique_ptr<core::channel_dns> doomed = std::move(victim->dns);
      const std::string path = spill_path(*victim);
      lk.unlock();
      // The instance is suspended, so the save streams the heap state
      // without re-leasing any workspace blocks; on the tenant's 1-rank
      // world its collectives are local.
      doomed->save_checkpoint(path);
      doomed.reset();
      lk.lock();
      victim->spilled = true;
      victim->evicting = false;
      ++victim->evictions;
      ++evictions;
      cv.notify_all();
    }
  }

  // --- slice execution -----------------------------------------------------

  void submit_slice_locked(tenant& t) {
    thread_pool::task_options opt;
    opt.priority = t.spec.priority;
    opt.tenant = t.id;
    const std::uint64_t id = t.id;
    pool->submit([this, id] { run_slice(id); }, opt);
  }

  /// Construct (or reconstruct) the tenant's instance and bring its state
  /// in: initialize() on first admission, load_checkpoint() after an
  /// eviction — the restart-continuation path pinned bit-identical.
  /// Runs unlocked: the instance lands in the slice-local `inst` (published
  /// to `t.dns` only under the server mutex, where resident_locked() and
  /// the evictor read it), and the tenant fields touched here are private
  /// to the one outstanding slice.
  void admit(tenant& t, std::unique_ptr<core::channel_dns>& inst,
             bool& readmitted) {
    core::channel_config cc = t.spec.config;
    cc.pa = 1;
    cc.pb = 1;
    cc.pooled_workspace = true;  // suspension must free real blocks
    if (!cfg.tuning_cache.empty() && cc.autotune && cc.tuning_cache.empty())
      cc.tuning_cache = cfg.tuning_cache;
    inst = std::make_unique<core::channel_dns>(cc, *t.world);
    if (t.spilled) {
      // The checkpoint carries the dt controller's state: the restored
      // run steps with the dt the controller had evolved to.
      inst->load_checkpoint(spill_path(t));
      readmitted = true;
    } else if (!t.initialized) {
      inst->initialize(t.spec.perturbation, t.spec.seed);
      t.initialized = true;
      if (t.spec.cfl_target > 0.0)
        inst->set_cfl_target(t.spec.cfl_target, t.spec.dt_min,
                             t.spec.dt_max);
    }
  }

  void finalize_cancel_locked(tenant& t) {
    t.state = job_state::cancelled;
    t.dns.reset();
    remove_spill(t, spill_path(t));
    cv.notify_all();
  }

  void run_slice(std::uint64_t id) {
    std::unique_lock<std::mutex> lk(mu);
    tenant& t = *find_locked(id);
    cv.wait(lk, [&] { return !t.evicting; });
    if (t.cancel_requested.load(std::memory_order_relaxed)) {
      finalize_cancel_locked(t);
      return;
    }
    t.in_slice = true;
    t.state = job_state::running;
    // Take the instance out of the shared slot while the lock is held:
    // `t.dns` is only ever read or written under the mutex, and the slice
    // works on this local (in_slice keeps the evictor away, and counts us
    // resident while the pointer lives here).
    std::unique_ptr<core::channel_dns> inst = std::move(t.dns);
    if (inst == nullptr) make_room_locked(lk, t);

    long done = t.steps_done;
    const long total = t.spec.steps;
    const auto obs = observer;  // stable copy for the unlocked stepping
    bool readmitted = false;
    lk.unlock();

    // Everything below the unlock touches only `inst` and locals; the
    // shared bookkeeping fields are written back under the re-taken lock.
    bool failed = false;
    std::string error;
    double sim_time = 0.0;
    core::step_timings st;
    std::optional<series_sample> sample;
    try {
      if (inst == nullptr) admit(t, inst, readmitted);
      core::channel_dns& dns = *inst;
      int k = 0;
      while (k < cfg.slice_steps && done < total &&
             !t.cancel_requested.load(std::memory_order_relaxed)) {
        dns.step();
        ++done;
        ++k;
        if (t.spec.stats_every > 0 && done % t.spec.stats_every == 0)
          dns.accumulate_stats();
        if (obs) obs(t.id, dns);
      }
      if (cfg.collect_series && k > 0) {
        series_sample s;
        s.step = done;
        s.time = dns.time();
        s.bulk = dns.bulk_velocity();
        s.energy = dns.kinetic_energy();
        s.cfl = dns.cfl();
        sample = s;
      }
      sim_time = dns.time();
      st = dns.timings();
      dns.reset_timings();
      if (done < total) dns.suspend();
    } catch (const std::exception& ex) {
      failed = true;
      error = ex.what();
    } catch (...) {
      failed = true;
      error = "unknown exception";
    }

    lk.lock();
    t.dns = std::move(inst);  // publish (or clear below) under the mutex
    t.steps_done = done;
    t.in_slice = false;
    t.last_ran = ++clock;
    if (!failed) {
      t.sim_time = sim_time;
      t.sec_total += st.total;
      t.sec_fft += st.fft;
      t.sec_transpose += st.transpose;
      t.sec_advance += st.advance;
      if (sample) t.series.push_back(*sample);
    }
    if (readmitted) ++readmissions;
    if (failed) {
      t.state = job_state::failed;
      t.error = error;
      t.dns.reset();
      remove_spill(t, spill_path(t));
    } else if (t.cancel_requested.load(std::memory_order_relaxed)) {
      finalize_cancel_locked(t);
    } else if (done >= total) {
      t.state = job_state::done;
      t.dns.reset();  // blocks return to the pool for the next tenant
      remove_spill(t, spill_path(t));
    } else {
      t.state = job_state::suspended;
      submit_slice_locked(t);
    }
    cv.notify_all();
  }

  // --- snapshots -----------------------------------------------------------

  job_status snapshot_locked(const tenant& t) const {
    job_status s;
    s.id = t.id;
    s.name = t.spec.name;
    s.state = t.state;
    s.steps_done = t.steps_done;
    s.steps_total = t.spec.steps;
    s.priority = t.spec.priority;
    s.evictions = t.evictions;
    s.time = t.sim_time;
    s.error = t.error;
    return s;
  }
};

campaign_server::campaign_server(campaign_config cfg)
    : impl_(std::make_unique<impl>(std::move(cfg))) {}

campaign_server::~campaign_server() = default;

std::uint64_t campaign_server::enqueue(job_spec spec) {
  PCF_REQUIRE(spec.steps >= 1, "a job must advance at least one step");
  auto t = std::make_unique<tenant>();
  t->spec = std::move(spec);
  // Mint the tenant's single-rank world now: the communicator handle is
  // copyable and size-1 collectives rendezvous with nobody, so the
  // instance can later be driven from whichever worker runs its slice.
  vmpi::run_world(1, [&](vmpi::communicator& w) { t->world.emplace(w); });
  std::lock_guard<std::mutex> lk(impl_->mu);
  t->id = impl_->next_id++;
  const std::uint64_t id = t->id;
  impl_->tenants.push_back(std::move(t));
  if (impl_->pool != nullptr && impl_->draining)
    impl_->submit_slice_locked(*impl_->tenants.back());
  return id;
}

bool campaign_server::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  tenant* t = impl_->find_locked(id);
  if (t == nullptr || settled(t->state)) return false;
  t->cancel_requested.store(true, std::memory_order_relaxed);
  if (impl_->pool != nullptr && impl_->draining) {
    const std::size_t dropped = impl_->pool->cancel_tenant(id);
    // Its queued slice is gone, so nobody would finalize it: hand the
    // teardown (instance + spill file) to a worker. An in-flight slice
    // instead sees the flag at its next step boundary.
    if (!t->in_slice && dropped > 0) {
      thread_pool::task_options opt;
      opt.priority = t->spec.priority;
      opt.tenant = id;
      impl_->pool->submit(
          [this, id] {
            std::unique_lock<std::mutex> lk(impl_->mu);
            tenant& t = *impl_->find_locked(id);
            impl_->cv.wait(lk, [&] { return !t.evicting; });
            if (!settled(t.state)) impl_->finalize_cancel_locked(t);
          },
          opt);
    }
  } else {
    t->state = job_state::cancelled;  // nothing was ever admitted
  }
  return true;
}

void campaign_server::set_step_observer(
    std::function<void(std::uint64_t, core::channel_dns&)> obs) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->observer = std::move(obs);
}

campaign_report campaign_server::run() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    PCF_REQUIRE(!impl_->ran, "campaign_server::run() may only run once");
    impl_->ran = true;
  }
  const auto plan0 = fft::plan_cache_statistics();
  const auto memo0 = pencil::tuning_memo_statistics();
  const auto pool0 = block_pool::global().stats();
  wall_timer timer;

  // Workers + the caller (which only waits): submit() on a 1-thread pool
  // would run slices inline and recurse on resubmission.
  impl_->pool = std::make_unique<thread_pool>(impl_->cfg.workers + 1);
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->draining = true;
    for (auto& t : impl_->tenants)
      if (t->state == job_state::queued) impl_->submit_slice_locked(*t);
  }
  // Slices resubmit themselves before completing, so the drained queue
  // really is the settled campaign; the loop re-checks for jobs enqueued
  // concurrently with the drain.
  for (;;) {
    impl_->pool->wait_submitted();
    std::lock_guard<std::mutex> lk(impl_->mu);
    bool unsettled = false;
    for (auto& t : impl_->tenants)
      if (!settled(t->state)) unsettled = true;
    if (!unsettled) {
      impl_->draining = false;
      break;
    }
  }
  // Joining the workers fires the block pool's thread-exit hooks, so the
  // per-thread caches they accumulated flush back to the segment bitmaps.
  impl_->pool.reset();

  const auto plan1 = fft::plan_cache_statistics();
  const auto memo1 = pencil::tuning_memo_statistics();
  const auto pool1 = block_pool::global().stats();

  campaign_report rep;
  rep.jobs = status();
  for (const job_status& j : rep.jobs) rep.total_steps += j.steps_done;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    rep.evictions = impl_->evictions;
    rep.readmissions = impl_->readmissions;
  }
  rep.elapsed_s = timer.seconds();
  rep.pool_peak_bytes = static_cast<std::uint64_t>(pool1.blocks_peak) *
                        block_pool::global().config().block_bytes;
  rep.plan_cache_hits = plan1.hits - plan0.hits;
  rep.plan_cache_misses = plan1.misses - plan0.misses;
  rep.tuning_memo_hits = memo1.hits - memo0.hits;
  rep.tuning_memo_misses = memo1.misses - memo0.misses;
  const auto delta = [](std::size_t now, std::size_t before) {
    return now > before ? static_cast<std::uint64_t>(now - before) : 0u;
  };
  rep.stranded_blocks = delta(pool1.blocks_leased, pool0.blocks_leased) +
                        delta(pool1.blocks_cached, pool0.blocks_cached);
  // The zero-stranded invariant: every tenant released its leases and
  // every retired worker's cache was flushed by its exit hook.
  PCF_REQUIRE(rep.stranded_blocks == 0,
              "campaign left blocks stranded in the global pool");
  return rep;
}

std::vector<job_status> campaign_server::status() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::vector<job_status> out;
  out.reserve(impl_->tenants.size());
  for (const auto& t : impl_->tenants)
    out.push_back(impl_->snapshot_locked(*t));
  return out;
}

const std::vector<series_sample>& campaign_server::series(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  tenant* t = impl_->find_locked(id);
  PCF_REQUIRE(t != nullptr, "unknown campaign job id");
  return t->series;
}

std::string campaign_server::status_report() const {
  std::ostringstream os;
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::size_t by_state[7] = {};
  long steps = 0;
  for (const auto& t : impl_->tenants) {
    ++by_state[static_cast<int>(t->state)];
    steps += t->steps_done;
  }
  os << "campaign: " << impl_->tenants.size() << " jobs |";
  for (int s = 0; s < 7; ++s)
    if (by_state[s] > 0)
      os << ' ' << to_string(static_cast<job_state>(s)) << ' ' << by_state[s];
  os << " | steps " << steps << " | evictions " << impl_->evictions
     << " readmissions " << impl_->readmissions << '\n';

  const auto ps = block_pool::global().stats();
  const auto plan = fft::plan_cache_statistics();
  const auto memo = pencil::tuning_memo_statistics();
  os << "pool: leased " << ps.blocks_leased << " cached " << ps.blocks_cached
     << " peak " << ps.blocks_peak << " blk | plan cache " << plan.hits
     << " hit / " << plan.misses << " miss | tuning memo " << memo.hits
     << " hit / " << memo.misses << " miss\n";

  os << "  id pri state      steps            t(sim)    t(wall)  name\n";
  for (const auto& t : impl_->tenants) {
    os << std::setw(4) << t->id << std::setw(4) << t->spec.priority << ' '
       << std::left << std::setw(10) << to_string(t->state) << std::right
       << std::setw(6) << t->steps_done << '/' << std::left << std::setw(8)
       << t->spec.steps << std::right << std::setw(10) << std::setprecision(4)
       << t->sim_time << std::setw(10) << std::setprecision(3) << t->sec_total
       << "  " << t->spec.name;
    if (!t->error.empty()) os << "  [" << t->error << "]";
    os << '\n';
  }
  return os.str();
}

}  // namespace pcf::campaign
