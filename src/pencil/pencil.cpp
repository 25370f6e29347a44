#include "pencil/pencil.hpp"

#include <algorithm>
#include <vector>

#include "fft/plan_cache.hpp"
#include "util/aligned.hpp"
#include "util/counters.hpp"
#include "util/thread_pool.hpp"

namespace pcf::pencil {

block block_range(std::size_t n, int p, int r) {
  PCF_REQUIRE(p >= 1 && r >= 0 && r < p, "invalid block decomposition");
  const std::size_t base = n / static_cast<std::size_t>(p);
  const std::size_t rem = n % static_cast<std::size_t>(p);
  const auto ur = static_cast<std::size_t>(r);
  block b;
  b.offset = ur * base + std::min(ur, rem);
  b.count = base + (ur < rem ? 1 : 0);
  return b;
}

decomp::decomp(const grid& gg, const kernel_config& cfg, int pa_, int pb_,
               int ca_, int cb_)
    : g(gg), pa(pa_), pb(pb_), ca(ca_), cb(cb_) {
  PCF_REQUIRE(g.nx % 4 == 0, "nx must be divisible by 4");
  PCF_REQUIRE(g.nz % 2 == 0, "nz must be even");
  PCF_REQUIRE(g.ny >= 1, "ny must be positive");
  nxs = g.nxh() + (cfg.drop_nyquist ? 0 : 1);
  nxf = cfg.dealias ? g.nxp() : g.nx;
  nzf = cfg.dealias ? g.nzp() : g.nz;
  xs = block_range(nxs, pa, ca);
  zs = block_range(g.nz, pb, cb);
  yb = block_range(g.ny, pb, cb);
  zp = block_range(nzf, pa, ca);
}

// ---------------------------------------------------------------------------
//
// Batched layout conventions (nf = fields in the current group):
//
//  * exchange buffers: the per-rank segment for rank q starts at
//    nf * displ[q] and holds the nf fields back to back, field f at
//    nf * displ[q] + f * count[q]. Scaling the single-field dense
//    prefix-sum displacements by nf is all the batching needs, so all
//    fields ride ONE alltoallv per transpose stage.
//  * w1/w2/w3 each hold max_batch field slots of wstride elements; a
//    pipeline group works on the slots of its own fields.
//
// There is no separate z-pencil or x-spectral buffer: each FFT stage
// gathers its lines straight from one exchange's receive layout and
// scatters them straight into the next one's send layout (stage_map).

namespace {

/// Elements of one field's workspace slot: the max over the exchange
/// layouts a field occupies on its way through the pipeline (y-pencil send,
/// y<->z receive, z<->x send, z<->x receive).
std::size_t slot_elems(const decomp& d) {
  const std::size_t yz_total = d.xs.count * d.g.nz * d.yb.count;
  const std::size_t zx_total = d.nxs * d.yb.count * d.zp.count;
  std::size_t m = d.y_pencil_elems();
  m = std::max(m, yz_total);
  m = std::max(m, d.z_pencil_elems());
  m = std::max(m, zx_total);
  return m;
}

/// Workspace buffers the schedule touches: P3DFFT mode routes through
/// three, a 1x1 grid needs one (no exchange to ping-pong across), any other
/// split two.
std::size_t buffer_count(const decomp& d, const kernel_config& cfg) {
  if (!cfg.drop_nyquist && !cfg.dealias) return 3;
  return (d.pa == 1 && d.pb == 1) ? 1 : 2;
}

std::size_t round_to_alignment(std::size_t bytes) {
  return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

/// Rank owning item i of n block-distributed over p ranks.
int owner(std::size_t n, int p, std::size_t i) {
  int q = 0;
  while (block_range(n, p, q).offset + block_range(n, p, q).count <= i) ++q;
  return q;
}

/// The stage rows of parallel_fft::stage_phases(), registered in this
/// order so a row's id is its index.
enum stage_row : phase_timer::id {
  pack_y, exchange_yz, fft_z_inverse, exchange_zx, fft_c2r,  // inverse
  fft_r2c, exchange_xz, fft_z_forward, exchange_zy, unpack_y,  // forward
  stage_rows
};
constexpr const char* kStageRowNames[stage_rows] = {
    "pack_y",  "exchange_yz", "fft_z_inverse", "exchange_zx", "fft_c2r",
    "fft_r2c", "exchange_xz", "fft_z_forward", "exchange_zy", "unpack_y"};
static_assert(stage_rows == 2 * parallel_fft::kStageRows);

/// Where one FFT stage's lines sit in an exchange layout. `rel` holds each
/// element's slot inside its rank segment and `seg` that segment; per call,
/// prepare(nf) adds the segment displacements nf * displ[q] + f * count[q]
/// of every field. A one-segment layout needs no per-field table: its
/// field offset goes into the base pointer.
struct stage_map {
  std::vector<fft::line_slot> rel;
  std::vector<int> seg;
  const std::vector<std::size_t>* count = nullptr;
  const std::vector<std::size_t>* displ = nullptr;
  std::size_t rows = 1;
  std::vector<fft::line_slot> live;  // max_batch per-field tables

  stage_map() = default;
  stage_map(std::size_t n, std::size_t rows_, const std::vector<std::size_t>& c,
            const std::vector<std::size_t>& dsp, std::size_t max_batch)
      : rel(n), seg(n, 0), count(&c), displ(&dsp), rows(rows_) {
    if (c.size() > 1) live.resize(n * max_batch);
  }

  void set(std::size_t j, int q, std::size_t off, std::size_t group,
           std::size_t row) {
    rel[j] = {static_cast<std::ptrdiff_t>(off),
              static_cast<std::ptrdiff_t>(group),
              static_cast<std::ptrdiff_t>(row)};
    seg[j] = q;
  }
  void set_none(std::size_t j) { rel[j].off = fft::line_slot::none; }

  /// Fills the per-field tables of an nf-field group (the caller's thread,
  /// before the stage's pool loop reads them).
  void prepare(std::size_t nf) {
    if (live.empty()) return;
    const std::size_t n = rel.size();
    for (std::size_t f = 0; f < nf; ++f)
      for (std::size_t j = 0; j < n; ++j) {
        fft::line_slot s = rel[j];
        if (s.off != fft::line_slot::none) {
          const auto q = static_cast<std::size_t>(seg[j]);
          s.off += static_cast<std::ptrdiff_t>(nf * (*displ)[q] +
                                               f * (*count)[q]);
        }
        live[f * n + j] = s;
      }
  }

  /// Field f's lines in buffer `buf` (prepared for this group).
  template <class T>
  fft::line_map<T> at(T* buf, std::size_t f, double scale = 1.0) const {
    if (live.empty())
      return {buf + f * (*count)[0], rel.data(), rows, scale};
    return {buf, live.data() + f * rel.size(), rows, scale};
  }
};

}  // namespace

std::size_t transform_workspace_bytes(const decomp& d,
                                      const kernel_config& cfg) {
  const std::size_t wn =
      slot_elems(d) * static_cast<std::size_t>(std::max(1, cfg.max_batch));
  return buffer_count(d, cfg) * round_to_alignment(wn * sizeof(cplx));
}

struct parallel_fft::impl {
  decomp d;
  kernel_config cfg;
  vmpi::communicator comm_a;  // copies share the underlying group state
  vmpi::communicator comm_b;

  // Leased from the process-wide plan cache (fft/plan_cache.hpp): N
  // kernels on the same grid — a campaign sweep of identical configs —
  // share one immutable plan per (length, direction) instead of each
  // rebuilding the twiddle tables. Execution is thread-safe, so sharing
  // across concurrently-stepping simulations is sound.
  std::shared_ptr<const fft::c2c_plan> z_fwd, z_inv;
  std::shared_ptr<const fft::r2c_plan> x_fwd;
  std::shared_ptr<const fft::c2r_plan> x_inv;

  thread_pool fft_pool;
  thread_pool reorder_pool;

  // Workspaces: buffer_count() buffers (w2/w3 null beyond it), each
  // max_batch field slots side by side, permanently checked out of `ws_`:
  // the caller's lane, or `own_lane_` leased from the global block pool
  // for a standalone kernel.
  workspace_lane own_lane_;
  workspace_lane* ws_ = nullptr;
  cplx* w1 = nullptr;
  cplx* w2 = nullptr;
  cplx* w3 = nullptr;
  std::size_t wstride = 0;  // elements of one field's workspace slot

  // alltoallv counts/displacements, in complex elements (single-field).
  std::vector<std::size_t> sc_yz, sd_yz, rc_yz, rd_yz;  // CommB, y<->z
  std::vector<std::size_t> sc_zx, sd_zx, rc_zx, rd_zx;  // CommA, z<->x

  // Comm thread for pipelined mode (allocated only when pipeline_depth > 1).
  std::unique_ptr<vmpi::async_proxy> comm_async;

  // Hot-path scratch, sized once at construction so transforms never
  // allocate: batch-scaled counts/displacements for do_exchange_batch
  // (4 * max(pa, pb)) and the pipeline's in-flight exchange tickets.
  std::vector<std::size_t> exch_scratch_;
  std::vector<vmpi::async_proxy::ticket> tk1_, tk2_;

  // Which exchange stages run. P3DFFT mode runs both (a size-1 one is a
  // copy) and routes through w3. Otherwise a size-1 communicator's stage is
  // skipped: its send layout equals its source's, so the FFT reads and
  // writes the caller's y-pencils directly when pb == 1, and the c2r reads
  // / the r2c writes the z<->x send layout directly when pa == 1.
  bool p3d_ = false;
  bool run_a_ = true, run_b_ = true;

  // The FFT stages' line layouts (stage_map): z lines on the y side (the
  // y<->z receive layout, or the y-pencils themselves when pb == 1), z
  // lines on the x side (the z<->x send layout), x modes (the z<->x
  // receive layout) and physical x lines.
  stage_map zy_map, zx_map, xs_map;
  std::vector<fft::line_slot> phys_slots;

  // One wall-time row per fused stage (stage_row). Each row has one
  // owning thread at a time: the exchange rows run on the comm thread
  // when a chunk is pipelined, every other row on the caller.
  phase_timer stages{false};

  // Batched-path counters. Written by the rank's own threads only; reads
  // are ordered behind the transform call (or the async wait inside it).
  std::uint64_t transforms_ = 0, fields_ = 0, exchanges_ = 0;
  std::uint64_t reorder_calls_ = 0, reorder_fields_ = 0;

  impl(const grid& g, vmpi::cart2d& cart, kernel_config c,
       workspace_lane* ws)
      : d(g, c, cart.pa(), cart.pb(), cart.coord_a(), cart.coord_b()),
        cfg(c),
        comm_a(cart.comm_a()),
        comm_b(cart.comm_b()),
        z_fwd(fft::shared_c2c(d.nzf, fft::direction::forward)),
        z_inv(fft::shared_c2c(d.nzf, fft::direction::inverse)),
        x_fwd(fft::shared_r2c(d.nxf)),
        x_inv(fft::shared_c2r(d.nxf)),
        fft_pool(std::max(1, c.fft_threads)),
        reorder_pool(std::max(1, c.reorder_threads)),
        p3d_(!c.drop_nyquist && !c.dealias) {
    PCF_REQUIRE(cfg.max_batch >= 1, "max_batch must be >= 1");
    PCF_REQUIRE(cfg.pipeline_depth >= 1, "pipeline_depth must be >= 1");
    run_a_ = p3d_ || comm_a.size() > 1;
    run_b_ = p3d_ || comm_b.size() > 1;
    for (const char* name : kStageRowNames) stages.add(name);
    build_counts();
    build_maps();
    exch_scratch_.resize(4 *
                         static_cast<std::size_t>(std::max(d.pa, d.pb)));
    wstride = slot_elems(d);
    if (ws == nullptr) {
      own_lane_.lease_bytes(block_pool::global(),
                            transform_workspace_bytes(d, cfg));
      ws = &own_lane_;
    }
    ws_ = ws;
    checkout_buffers();
    if (cfg.pipeline_depth > 1) {
      comm_async = std::make_unique<vmpi::async_proxy>();
      tk1_.resize(static_cast<std::size_t>(cfg.pipeline_depth));
      tk2_.resize(static_cast<std::size_t>(cfg.pipeline_depth));
    }
  }

  /// Permanent checkouts from ws_ (sized by transform_workspace_bytes).
  void checkout_buffers() {
    const std::size_t wn = wstride * static_cast<std::size_t>(cfg.max_batch);
    const std::size_t nbuf = buffer_count(d, cfg);
    w1 = ws_->alloc<cplx>(wn);
    if (nbuf > 1) w2 = ws_->alloc<cplx>(wn);
    if (nbuf > 2) w3 = ws_->alloc<cplx>(wn);
  }

  /// Aggregated exchange carrying nf fields: counts and displacements are
  /// the single-field ones scaled by nf (valid because the displacements
  /// are dense prefix sums). The scaled arrays live in the preallocated
  /// exch_scratch_, which is safe to share: a transform call is serialized
  /// per instance, and within one call every exchange runs on a single
  /// thread (the caller for a one-group chunk, otherwise the async_proxy's
  /// one comm thread, whose tickets are strictly ordered).
  void do_exchange_batch(vmpi::communicator& comm, const cplx* send,
                         const std::size_t* sc, const std::size_t* sd,
                         cplx* recv, const std::size_t* rc,
                         const std::size_t* rd, std::size_t nf) {
    if (comm.size() == 1) {
      // Degenerate stage (slab / 2.5D layouts): the send buffer already
      // has the receive layout (sc[0] == rc[0]), so the exchange is a pure
      // local copy. Not counted as an exchange — only P3DFFT mode runs it;
      // the other drivers skip the stage.
      std::copy_n(send, nf * sc[0], recv);
      return;
    }
    ++exchanges_;
    const auto p = static_cast<std::size_t>(comm.size());
    std::size_t* bsc = exch_scratch_.data();
    std::size_t* bsd = bsc + p;
    std::size_t* brc = bsd + p;
    std::size_t* brd = brc + p;
    for (std::size_t q = 0; q < p; ++q) {
      bsc[q] = nf * sc[q];
      bsd[q] = nf * sd[q];
      brc[q] = nf * rc[q];
      brd[q] = nf * rd[q];
    }
    comm.alltoallv(send, bsc, bsd, recv, brc, brd);
  }

  void build_counts() {
    const int pb = d.pb, pa = d.pa;
    sc_yz.resize(static_cast<std::size_t>(pb));
    sd_yz.resize(static_cast<std::size_t>(pb));
    rc_yz.resize(static_cast<std::size_t>(pb));
    rd_yz.resize(static_cast<std::size_t>(pb));
    std::size_t s = 0, r = 0;
    for (int q = 0; q < pb; ++q) {
      const block yq = block_range(d.g.ny, pb, q);
      const block zq = block_range(d.g.nz, pb, q);
      sc_yz[static_cast<std::size_t>(q)] = d.xs.count * d.zs.count * yq.count;
      sd_yz[static_cast<std::size_t>(q)] = s;
      s += sc_yz[static_cast<std::size_t>(q)];
      rc_yz[static_cast<std::size_t>(q)] = d.xs.count * zq.count * d.yb.count;
      rd_yz[static_cast<std::size_t>(q)] = r;
      r += rc_yz[static_cast<std::size_t>(q)];
    }
    sc_zx.resize(static_cast<std::size_t>(pa));
    sd_zx.resize(static_cast<std::size_t>(pa));
    rc_zx.resize(static_cast<std::size_t>(pa));
    rd_zx.resize(static_cast<std::size_t>(pa));
    s = r = 0;
    for (int q = 0; q < pa; ++q) {
      const block zq = block_range(d.nzf, pa, q);
      const block xq = block_range(d.nxs, pa, q);
      sc_zx[static_cast<std::size_t>(q)] = d.xs.count * d.yb.count * zq.count;
      sd_zx[static_cast<std::size_t>(q)] = s;
      s += sc_zx[static_cast<std::size_t>(q)];
      rc_zx[static_cast<std::size_t>(q)] = xq.count * d.yb.count * d.zp.count;
      rd_zx[static_cast<std::size_t>(q)] = r;
      r += rc_zx[static_cast<std::size_t>(q)];
    }
  }

  /// The FFT stages' layouts; see the layout comments in pencil.hpp.
  void build_maps() {
    const std::size_t yc = d.yb.count, zc = d.zp.count;
    const std::size_t nz = d.g.nz, nzf = d.nzf, mb = cfg.max_batch;
    // z lines (x, y), lanes 8 consecutive y. y side: segment q holds
    // [x][zl][y] for its spectral z block, so the lanes of one element are
    // adjacent. The 3/2-rule gap, which also swallows the spanwise Nyquist
    // mode nz/2 (on the padded grid +nz/2 and -nz/2 are distinct modes, so
    // the self-conjugate coefficient is not representable; paper Section
    // 4.4), has no storage.
    zy_map = stage_map(nzf, yc, rc_yz, rd_yz, mb);
    for (std::size_t j = 0; j < nzf; ++j) {
      const std::size_t gap = nzf - nz;
      if (gap > 0 && j >= nz / 2 && j <= nz / 2 + gap) {
        zy_map.set_none(j);
        continue;
      }
      const std::size_t zg = j < nz / 2 ? j : j - gap;
      const int q = owner(nz, d.pb, zg);
      const block zq = block_range(nz, d.pb, q);
      zy_map.set(j, q, (zg - zq.offset) * yc, zq.count * yc, 1);
    }
    // x side: segment q holds [x][y][zl] for its padded z block.
    zx_map = stage_map(nzf, yc, sc_zx, sd_zx, mb);
    for (std::size_t j = 0; j < nzf; ++j) {
      const int q = owner(nzf, d.pa, j);
      const block zq = block_range(nzf, d.pa, q);
      zx_map.set(j, q, j - zq.offset, yc * zq.count, zq.count);
    }
    // x lines (y, z), lanes 8 consecutive z. Spectral side: segment q holds
    // [xl][y][z] for its x-mode block; modes past nxs (the 3/2-rule pad,
    // or the dropped Nyquist mode) have no storage.
    xs_map = stage_map(d.x_line_modes(), zc, rc_zx, rd_zx, mb);
    for (std::size_t k = 0; k < d.x_line_modes(); ++k) {
      if (k >= d.nxs) {
        xs_map.set_none(k);
        continue;
      }
      const int q = owner(d.nxs, d.pa, k);
      const block xq = block_range(d.nxs, d.pa, q);
      xs_map.set(k, q, (k - xq.offset) * yc * zc, zc, 1);
    }
    // Physical side: [z][y][x].
    phys_slots.resize(d.nxf);
    for (std::size_t i = 0; i < d.nxf; ++i)
      phys_slots[i] = {static_cast<std::ptrdiff_t>(i),
                       static_cast<std::ptrdiff_t>(d.nxf),
                       static_cast<std::ptrdiff_t>(yc * d.nxf)};
  }

  template <class T>
  fft::line_map<T> phys_at(T* p) const {
    return {p, phys_slots.data(), d.zp.count};
  }

  /// Byte-counter accounting shared by the pack/unpack kernels:
  /// `reads`/`writes` are the per-field element counts; the batch counters
  /// additionally record how wide the fused kernels ran.
  void account(std::size_t reads, std::size_t writes, std::size_t nf) {
    counters::add_read(reads * nf * sizeof(cplx));
    counters::add_written(writes * nf * sizeof(cplx));
    ++reorder_calls_;
    reorder_fields_ += nf;
  }

  // --- y-pencil reorders (only when pb > 1, or in P3DFFT mode) -------------
  //
  // Both widen their thread-pool loop by nf with fields in the inner
  // blocking (index i -> item i/nf, field i%nf), so small per-field pencils
  // still feed all reorder threads.

  void pack_y_to_z(const cplx* const* specs, cplx* send, std::size_t nf) {
    const phase_timer::section time_sec(stages, pack_y);
    const std::size_t zc = d.zs.count, ny = d.g.ny;
    const std::size_t* sc = sc_yz.data();
    const std::size_t* sd = sd_yz.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        const cplx* spec = specs[f];
        for (int q = 0; q < d.pb; ++q) {
          const block yq = block_range(ny, d.pb, q);
          cplx* seg = send + nf * sd[q] + f * sc[q];
          for (std::size_t z = 0; z < zc; ++z)
            std::copy_n(spec + (x * zc + z) * ny + yq.offset, yq.count,
                        seg + (x * zc + z) * yq.count);
        }
      }
    });
    account(d.y_pencil_elems(), d.y_pencil_elems(), nf);
  }

  void unpack_y_pencil(const cplx* recv, cplx* const* specs, std::size_t nf) {
    const phase_timer::section time_sec(stages, unpack_y);
    const std::size_t zc = d.zs.count, ny = d.g.ny;
    const std::size_t* sc = sc_yz.data();
    const std::size_t* sd = sd_yz.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        cplx* spec = specs[f];
        for (int q = 0; q < d.pb; ++q) {
          const block yq = block_range(ny, d.pb, q);
          const cplx* seg = recv + nf * sd[q] + f * sc[q];
          for (std::size_t z = 0; z < zc; ++z)
            std::copy_n(seg + (x * zc + z) * yq.count, yq.count,
                        spec + (x * zc + z) * ny + yq.offset);
        }
      }
    });
    account(d.y_pencil_elems(), d.y_pencil_elems(), nf);
  }

  // --- FFT stages ----------------------------------------------------------
  //
  // One pass per stage: the plan gathers each block of lines through the
  // `in` map and scatters it through the `out` map. The line loop is
  // widened to lines * nf and re-split at field boundaries, so a call never
  // spans two fields.

  template <class Plan, class In, class Out>
  void fft_stage(stage_row row, const Plan& plan, std::size_t lines,
                 std::size_t nf, In in, Out out) {
    const phase_timer::section time_sec(stages, row);
    fft_pool.run(lines * nf, [&](std::size_t b, std::size_t e) {
      while (b < e) {
        const std::size_t f = b / lines, l0 = b % lines;
        const std::size_t cnt = std::min(e - b, lines - l0);
        plan.execute_many(in(f), out(f), l0, cnt);
        b += cnt;
      }
    });
  }

  /// Zeroes the dropped spanwise Nyquist row zg = nz/2 of field f in a
  /// y-side layout (the forward z stage's scatter has no slot for it).
  void zero_nyquist_row(cplx* buf, std::size_t f, std::size_t nf) {
    const std::size_t nz = d.g.nz, yc = d.yb.count;
    const int q = owner(nz, d.pb, nz / 2);
    const auto uq = static_cast<std::size_t>(q);
    const block zq = block_range(nz, d.pb, q);
    cplx* seg = buf + nf * rd_yz[uq] + f * rc_yz[uq];
    for (std::size_t x = 0; x < d.xs.count; ++x)
      std::fill_n(seg + (x * zq.count + nz / 2 - zq.offset) * yc, yc,
                  cplx{0.0, 0.0});
  }

  // --- transposes (communication) ------------------------------------------

  void a2a_yz(const cplx* send, cplx* recv, std::size_t nf) {
    const phase_timer::section time_sec(stages, exchange_yz);
    do_exchange_batch(comm_b, send, sc_yz.data(), sd_yz.data(), recv,
                      rc_yz.data(), rd_yz.data(), nf);
  }
  void a2a_zy(const cplx* send, cplx* recv, std::size_t nf) {
    const phase_timer::section time_sec(stages, exchange_zy);
    do_exchange_batch(comm_b, send, rc_yz.data(), rd_yz.data(), recv,
                      sc_yz.data(), sd_yz.data(), nf);
  }
  void a2a_zx(const cplx* send, cplx* recv, std::size_t nf) {
    const phase_timer::section time_sec(stages, exchange_zx);
    do_exchange_batch(comm_a, send, sc_zx.data(), sd_zx.data(), recv,
                      rc_zx.data(), rd_zx.data(), nf);
  }
  void a2a_xz(const cplx* send, cplx* recv, std::size_t nf) {
    const phase_timer::section time_sec(stages, exchange_xz);
    do_exchange_batch(comm_a, send, rc_zx.data(), rd_zx.data(), recv,
                      sc_zx.data(), sd_zx.data(), nf);
  }

  // --- drivers -------------------------------------------------------------

  void to_physical_batch(const cplx* const* specs, double* const* phys,
                         std::size_t nf) {
    PCF_REQUIRE(nf >= 1, "batch needs at least one field");
    ++transforms_;
    fields_ += nf;
    const auto mb = static_cast<std::size_t>(cfg.max_batch);
    for (std::size_t f0 = 0; f0 < nf; f0 += mb)
      inverse_pipelined(specs + f0, phys + f0, std::min(mb, nf - f0));
  }

  void to_spectral_batch(const double* const* phys, cplx* const* specs,
                         std::size_t nf) {
    PCF_REQUIRE(nf >= 1, "batch needs at least one field");
    ++transforms_;
    fields_ += nf;
    const auto mb = static_cast<std::size_t>(cfg.max_batch);
    for (std::size_t f0 = 0; f0 < nf; f0 += mb)
      forward_pipelined(phys + f0, specs + f0, std::min(mb, nf - f0));
  }

  // --- pipelined schedule --------------------------------------------------
  //
  // Each direction has one schedule. The chunk's nf fields are split into
  // G = min(pipeline_depth, nf) balanced groups. Group g owns the disjoint
  // workspace slice [first(g)*wstride, (first(g)+count(g))*wstride) of
  // each of w1/w2/w3, so its in-flight exchange never touches buffers
  // another group is computing on. Every transform is (pre) the y-pencil
  // pack (inverse) or the r2c stage (forward), (x1) first exchange, (c1)
  // the z FFT stage, (x2) second exchange, (c2) the c2r stage (inverse) or
  // the y-pencil unpack (forward); x1/x2 run on the comm thread,
  // everything else on the caller.
  //
  // Schedule (software pipeline over groups k):
  //
  //   pre(0); start x1(0)
  //   for k = 0..G-1:
  //     pre(k+1)                    // overlaps x1(k)
  //     wait x2(k-1); c2(k-1)       // overlaps x1(k) (FIFO: x2(k-1) first)
  //     wait x1(k);  c1(k)
  //     start x2(k); start x1(k+1)
  //   wait x2(G-1); c2(G-1)
  //
  // With one group (depth 1, or a single-field chunk) the schedule is
  // pre, x1, c1, x2, c2 in order on the caller; the comm thread is not
  // used.
  //
  // Every rank starts the same sequence x1(0), x2(0), x1(1), ... on its
  // single-threaded async_proxy, so the bulk-synchronous collectives
  // rendezvous in matching order across ranks — no tags needed.

  template <class Pre, class X1, class C1, class X2, class C2>
  void run_pipeline(std::size_t groups, Pre pre, X1 x1, C1 c1, X2 x2, C2 c2) {
    // The callers clamp the group count to min(pipeline_depth, nf); an
    // empty or over-deep group set would enqueue zero-field exchanges on
    // the comm thread (whose collectives must match across ranks), so it
    // is a hard error rather than a silent no-op. One group needs no
    // tickets.
    PCF_REQUIRE(groups >= 1 && (groups == 1 || groups <= tk1_.size()),
                "pipeline group count out of range");
    if (groups == 1) {
      pre(0);
      x1(0);
      c1(0);
      x2(0);
      c2(0);
      return;
    }
    std::vector<vmpi::async_proxy::ticket>&t1 = tk1_, &t2 = tk2_;
    try {
      pre(0);
      t1[0] = comm_async->start([&x1] { x1(0); });
      for (std::size_t k = 0; k < groups; ++k) {
        if (k + 1 < groups) pre(k + 1);
        if (k > 0) {
          comm_async->wait(t2[k - 1]);
          c2(k - 1);
        }
        comm_async->wait(t1[k]);
        c1(k);
        t2[k] = comm_async->start([&x2, k] { x2(k); });
        if (k + 1 < groups)
          t1[k + 1] = comm_async->start([&x1, k] { x1(k + 1); });
      }
      comm_async->wait(t2[groups - 1]);
      c2(groups - 1);
    } catch (...) {
      // Drain in-flight exchanges before unwinding so the comm thread is
      // not left inside a collective whose buffers are being torn down.
      // After a world abort every drained operation throws immediately.
      try {
        comm_async->wait_all();
      } catch (...) {
      }
      throw;
    }
  }

  void inverse_pipelined(const cplx* const* specs, double* const* phys,
                         std::size_t nf) {
    const auto G = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(cfg.pipeline_depth),
                              nf));
    auto grp = [&](std::size_t g) {
      return block_range(nf, G, static_cast<int>(g));
    };
    auto at = [&](cplx* w, std::size_t g) {
      return w + grp(g).offset * wstride;
    };
    // y-pencils -(pack, CommB)-> w2 -(z FFT)-> zx_send -(CommA)-> zx_recv
    // -(c2r)-> phys. A skipped stage hands its send layout on as is.
    cplx* zx_send = p3d_ ? w3 : w1;
    cplx* zx_recv = !run_a_ ? zx_send : (p3d_ ? w1 : w2);
    run_pipeline(
        static_cast<std::size_t>(G),
        [&](std::size_t g) {
          const block fb = grp(g);
          if (run_b_) pack_y_to_z(specs + fb.offset, at(w1, g), fb.count);
        },
        [&](std::size_t g) {
          if (run_b_) a2a_yz(at(w1, g), at(w2, g), grp(g).count);
        },
        [&](std::size_t g) {
          const block fb = grp(g);
          const cplx* yz = run_b_ ? at(w2, g) : nullptr;
          cplx* zx = at(zx_send, g);
          zy_map.prepare(fb.count);
          zx_map.prepare(fb.count);
          fft_stage(
              fft_z_inverse, *z_inv, d.xs.count * d.yb.count, fb.count,
              [&](std::size_t f) {
                return run_b_ ? zy_map.at(yz, f)
                              : zy_map.at(specs[fb.offset + f], 0);
              },
              [&](std::size_t f) { return zx_map.at(zx, f); });
        },
        [&](std::size_t g) {
          if (run_a_) a2a_zx(at(zx_send, g), at(zx_recv, g), grp(g).count);
        },
        [&](std::size_t g) {
          const block fb = grp(g);
          const cplx* zx = at(zx_recv, g);
          xs_map.prepare(fb.count);
          fft_stage(
              fft_c2r, *x_inv, d.yb.count * d.zp.count, fb.count,
              [&](std::size_t f) { return xs_map.at(zx, f); },
              [&](std::size_t f) { return phys_at(phys[fb.offset + f]); });
        });
  }

  void forward_pipelined(const double* const* phys, cplx* const* specs,
                         std::size_t nf) {
    const auto G = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(cfg.pipeline_depth),
                              nf));
    const double scale =
        1.0 / (static_cast<double>(d.nxf) * static_cast<double>(d.nzf));
    auto grp = [&](std::size_t g) {
      return block_range(nf, G, static_cast<int>(g));
    };
    auto at = [&](cplx* w, std::size_t g) {
      return w + grp(g).offset * wstride;
    };
    // phys -(r2c)-> w1 -(CommA)-> z_src -(z FFT, scaled)-> y_send -(CommB)->
    // y_recv -(unpack)-> y-pencils; mirror of inverse_pipelined.
    cplx* z_src = run_a_ ? w2 : w1;
    cplx* y_send = p3d_ ? w3 : (z_src == w1 ? w2 : w1);
    cplx* y_recv = p3d_ ? w1 : (y_send == w1 ? w2 : w1);
    const bool dealias = d.nzf > d.g.nz;
    run_pipeline(
        static_cast<std::size_t>(G),
        [&](std::size_t g) {
          const block fb = grp(g);
          cplx* zx = at(w1, g);
          xs_map.prepare(fb.count);
          fft_stage(
              fft_r2c, *x_fwd, d.yb.count * d.zp.count, fb.count,
              [&](std::size_t f) { return phys_at(phys[fb.offset + f]); },
              [&](std::size_t f) { return xs_map.at(zx, f); });
        },
        [&](std::size_t g) {
          if (run_a_) a2a_xz(at(w1, g), at(w2, g), grp(g).count);
        },
        [&](std::size_t g) {
          const block fb = grp(g);
          const cplx* zx = at(z_src, g);
          cplx* ys = run_b_ ? at(y_send, g) : nullptr;
          zx_map.prepare(fb.count);
          zy_map.prepare(fb.count);
          fft_stage(
              fft_z_forward, *z_fwd, d.xs.count * d.yb.count, fb.count,
              [&](std::size_t f) { return zx_map.at(zx, f); },
              [&](std::size_t f) {
                return run_b_ ? zy_map.at(ys, f, scale)
                              : zy_map.at(specs[fb.offset + f], 0, scale);
              });
          if (dealias)
            for (std::size_t f = 0; f < fb.count; ++f) {
              if (run_b_)
                zero_nyquist_row(ys, f, fb.count);
              else
                zero_nyquist_row(specs[fb.offset + f], 0, 1);
            }
        },
        [&](std::size_t g) {
          if (run_b_) a2a_zy(at(y_send, g), at(y_recv, g), grp(g).count);
        },
        [&](std::size_t g) {
          const block fb = grp(g);
          if (run_b_)
            unpack_y_pencil(at(y_recv, g), specs + fb.offset, fb.count);
        });
  }
};

parallel_fft::parallel_fft(const grid& g, vmpi::cart2d& cart,
                           kernel_config cfg)
    : impl_(new impl(g, cart, cfg, nullptr)) {}
parallel_fft::parallel_fft(const grid& g, vmpi::cart2d& cart,
                           kernel_config cfg, workspace_lane& transform_ws)
    : impl_(new impl(g, cart, cfg, &transform_ws)) {}
parallel_fft::~parallel_fft() = default;

const decomp& parallel_fft::dec() const { return impl_->d; }
const kernel_config& parallel_fft::config() const { return impl_->cfg; }

void parallel_fft::to_physical(const cplx* spec, double* phys) {
  const cplx* specs[1] = {spec};
  double* physv[1] = {phys};
  impl_->to_physical_batch(specs, physv, 1);
}
void parallel_fft::to_spectral(const double* phys, cplx* spec) {
  const double* physv[1] = {phys};
  cplx* specs[1] = {spec};
  impl_->to_spectral_batch(physv, specs, 1);
}

void parallel_fft::to_physical_batch(const cplx* const* specs,
                                     double* const* phys,
                                     std::size_t nfields) {
  impl_->to_physical_batch(specs, phys, nfields);
}
void parallel_fft::to_spectral_batch(const double* const* phys,
                                     cplx* const* specs,
                                     std::size_t nfields) {
  impl_->to_spectral_batch(phys, specs, nfields);
}

batch_stats parallel_fft::batching() const {
  batch_stats s;
  s.transforms = impl_->transforms_;
  s.fields = impl_->fields_;
  s.exchanges = impl_->exchanges_;
  s.reorder_calls = impl_->reorder_calls_;
  s.reorder_fields = impl_->reorder_fields_;
  return s;
}

std::size_t parallel_fft::workspace_bytes() const {
  const auto& im = *impl_;
  const std::size_t nbuf = buffer_count(im.d, im.cfg);
  return nbuf * im.wstride * static_cast<std::size_t>(im.cfg.max_batch) *
         sizeof(cplx);
}

void parallel_fft::rebind_workspace() { impl_->checkout_buffers(); }

const std::vector<phase_stats>& parallel_fft::stage_phases() const {
  return impl_->stages.phases();
}

double parallel_fft::comm_seconds() const {
  const auto& r = stage_phases();
  return r[exchange_yz].seconds + r[exchange_zx].seconds +
         r[exchange_xz].seconds + r[exchange_zy].seconds;
}
double parallel_fft::reorder_seconds() const {
  const auto& r = stage_phases();
  return r[pack_y].seconds + r[unpack_y].seconds;
}
double parallel_fft::fft_seconds() const {
  const auto& r = stage_phases();
  return r[fft_z_inverse].seconds + r[fft_c2r].seconds + r[fft_r2c].seconds +
         r[fft_z_forward].seconds;
}
void parallel_fft::reset_timers() { impl_->stages.reset(); }

}  // namespace pcf::pencil
