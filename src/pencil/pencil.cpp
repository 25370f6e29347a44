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
//    nf * displ[q] + f * count[q]. Scaling the seed's dense prefix-sum
//    displacements by nf is all the "extended build_counts()" needed, so
//    all fields ride ONE alltoallv/pairwise exchange per transpose stage.
//  * compute buffers (z-pencil / x-pencil layouts): field f lives at
//    offset f * wstride, where wstride is the seed's single-field
//    workspace size. w1/w2 (and w3 in P3DFFT mode) are allocated
//    max_batch * wstride so both layouts always fit.
//
// With nf == 1 every offset degenerates to the seed's, and every pool loop
// runs the same partition, so the single-field path is bit-identical to
// the pre-batching kernel.

namespace {

/// Elements of one field's single-buffer workspace slot: the max over
/// every intermediate layout a field occupies on its way through the
/// pipeline.
std::size_t slot_elems(const decomp& d) {
  const std::size_t yz_total = d.xs.count * d.g.nz * d.yb.count;
  const std::size_t zx_total = d.nxs * d.yb.count * d.zp.count;
  std::size_t m = d.y_pencil_elems();
  m = std::max(m, yz_total);
  m = std::max(m, d.z_pencil_elems());
  m = std::max(m, zx_total);
  m = std::max(m, d.x_pencil_spec_elems());
  return m;
}

std::size_t round_to_alignment(std::size_t bytes) {
  return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

}  // namespace

std::size_t transform_workspace_bytes(const decomp& d,
                                      const kernel_config& cfg) {
  const int nbuf = (!cfg.drop_nyquist && !cfg.dealias) ? 3 : 2;  // P3DFFT: 3x
  const std::size_t wn =
      slot_elems(d) * static_cast<std::size_t>(std::max(1, cfg.max_batch));
  return static_cast<std::size_t>(nbuf) * round_to_alignment(wn * sizeof(cplx));
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

  // Workspaces. The customized kernel ping-pongs between two buffers; the
  // P3DFFT-mode kernel uses a third (its documented 3x footprint, w3 null
  // otherwise). Each holds max_batch single-field workspaces side by side,
  // permanently checked out of `ws_`: the caller's lane, or `own_lane_`
  // leased from the global block pool for a standalone kernel.
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

  // Degenerate transpose stages (slab: pa == 1; 2.5D replica groups keep
  // both > 1 but small). A size-1 communicator's exchange is the identity
  // on the packed buffer, so the drivers forward it straight to the unpack.
  bool skip_a_ = false, skip_b_ = false;

  section_timer comm_t, reorder_t, fft_t;

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
        reorder_pool(std::max(1, c.reorder_threads)) {
    PCF_REQUIRE(cfg.max_batch >= 1, "max_batch must be >= 1");
    PCF_REQUIRE(cfg.pipeline_depth >= 1, "pipeline_depth must be >= 1");
    skip_a_ = comm_a.size() == 1;
    skip_b_ = comm_b.size() == 1;
    build_counts();
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
    w1 = ws_->alloc<cplx>(wn);
    w2 = ws_->alloc<cplx>(wn);
    if (!cfg.drop_nyquist && !cfg.dealias) w3 = ws_->alloc<cplx>(wn);
  }

  /// One exchange with either strategy. The pairwise algorithm runs p-1
  /// rounds with partner (rank + r) mod p — the MPI_Sendrecv pattern FFTW's
  /// transpose planner generates.
  void do_exchange(vmpi::communicator& comm, exchange_strategy strat,
                   const cplx* send, const std::size_t* sc,
                   const std::size_t* sd, cplx* recv, const std::size_t* rc,
                   const std::size_t* rd) {
    if (strat == exchange_strategy::alltoall) {
      comm.alltoallv(send, sc, sd, recv, rc, rd);
      return;
    }
    const int p = comm.size();
    const int me = comm.rank();
    std::copy_n(send + sd[me], sc[me],
                recv + rd[me]);  // self block, no communication
    for (int r = 1; r < p; ++r) {
      const int dest = (me + r) % p;
      const int src = (me + p - r) % p;
      comm.exchange(send + sd[dest], sc[dest], dest, recv + rd[src], rc[src]);
    }
  }

  /// Aggregated exchange carrying nf fields: counts and displacements are
  /// the single-field ones scaled by nf (valid because the displacements
  /// are dense prefix sums). The scaled arrays live in the preallocated
  /// exch_scratch_, which is safe to share: a transform call is serialized
  /// per instance, and within one call every exchange runs on a single
  /// thread (the caller for a one-group chunk, otherwise the async_proxy's
  /// one comm thread, whose tickets are strictly ordered).
  void do_exchange_batch(vmpi::communicator& comm, exchange_strategy strat,
                         const cplx* send, const std::size_t* sc,
                         const std::size_t* sd, cplx* recv,
                         const std::size_t* rc, const std::size_t* rd,
                         std::size_t nf) {
    if (comm.size() == 1) {
      // Degenerate stage (slab / 2.5D layouts): the packed buffer already
      // has the unpack's expected layout (sc[0] == rc[0]), so the exchange
      // is a pure local copy. Not counted as an exchange — the non-P3DFFT
      // drivers skip even this copy by forwarding the packed buffer
      // straight into the unpack.
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
    do_exchange(comm, strat, send, bsc, bsd, recv, brc, brd);
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

  /// Padded position of spectral z mode zg (3/2-rule: negative modes move
  /// to the end of the padded line).
  [[nodiscard]] std::size_t zpad_pos(std::size_t zg) const {
    return zg < d.g.nz / 2 ? zg : zg + (d.nzf - d.g.nz);
  }

  /// Byte-counter accounting shared by every pack/unpack kernel:
  /// `reads`/`writes` are the per-field element counts; the batch counters
  /// additionally record how wide the fused kernels ran.
  void account(std::size_t reads, std::size_t writes, std::size_t nf) {
    counters::add_read(reads * nf * sizeof(cplx));
    counters::add_written(writes * nf * sizeof(cplx));
    ++reorder_calls_;
    reorder_fields_ += nf;
  }

  // --- inverse path (spectral -> physical) --------------------------------
  //
  // Every reorder kernel widens its thread-pool loop by nf with fields in
  // the inner blocking (index i -> item i/nf, field i%nf), so small
  // per-field pencils still feed all reorder/fft threads.

  void pack_y_to_z(const cplx* const* specs, cplx* send, std::size_t nf) {
    const section_timer::section time_sec(reorder_t);
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

  void unpack_z_pencil(const cplx* recv, cplx* zbuf, std::size_t nf) {
    const section_timer::section time_sec(reorder_t);
    const std::size_t yc = d.yb.count, nzf = d.nzf, nzg = d.g.nz;
    const bool dealias = nzf > nzg;
    const std::size_t* rc = rc_yz.data();
    const std::size_t* rd = rd_yz.data();
    // Zero the dealiasing gap once per line. The gap also swallows the
    // spanwise Nyquist mode nz/2: on the padded grid +nz/2 and -nz/2 are
    // distinct modes, so the (self-conjugate) Nyquist coefficient is not
    // representable and is dropped, as in the paper (Section 4.4).
    if (dealias) {
      reorder_pool.run(d.xs.count * yc * nf,
                       [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const std::size_t l = i / nf, f = i % nf;
          std::fill_n(zbuf + f * wstride + l * nzf + nzg / 2, nzf - nzg + 1,
                      cplx{0.0, 0.0});
        }
      });
    }
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        cplx* zb = zbuf + f * wstride;
        for (int q = 0; q < d.pb; ++q) {
          const block zq = block_range(nzg, d.pb, q);
          const cplx* seg = recv + nf * rd[q] + f * rc[q];
          for (std::size_t zl = 0; zl < zq.count; ++zl) {
            const std::size_t zg = zq.offset + zl;
            if (dealias && zg == nzg / 2) continue;  // dropped Nyquist
            const std::size_t zp = zpad_pos(zg);
            const cplx* src = seg + (x * zq.count + zl) * yc;
            for (std::size_t y = 0; y < yc; ++y)
              zb[(x * yc + y) * nzf + zp] = src[y];
          }
        }
      }
    });
    account(d.xs.count * nzg * yc, d.z_pencil_elems(), nf);
  }

  void pack_z_to_x(const cplx* zbuf, cplx* send, std::size_t nf) {
    const section_timer::section time_sec(reorder_t);
    const std::size_t yc = d.yb.count, nzf = d.nzf;
    const std::size_t* sc = sc_zx.data();
    const std::size_t* sd = sd_zx.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        const cplx* zb = zbuf + f * wstride;
        for (int q = 0; q < d.pa; ++q) {
          const block zq = block_range(nzf, d.pa, q);
          cplx* seg = send + nf * sd[q] + f * sc[q];
          for (std::size_t y = 0; y < yc; ++y)
            std::copy_n(zb + (x * yc + y) * nzf + zq.offset, zq.count,
                        seg + (x * yc + y) * zq.count);
        }
      }
    });
    account(d.z_pencil_elems(), d.z_pencil_elems(), nf);
  }

  void unpack_x_pencil(const cplx* recv, cplx* xbuf, std::size_t nf) {
    const section_timer::section time_sec(reorder_t);
    const std::size_t yc = d.yb.count, zc = d.zp.count;
    const std::size_t modes = d.x_line_modes();
    const std::size_t* rc = rc_zx.data();
    const std::size_t* rd = rd_zx.data();
    // Zero the dealiasing pad region of each x line.
    if (modes > d.nxs) {
      reorder_pool.run(zc * yc * nf, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const std::size_t l = i / nf, f = i % nf;
          std::fill_n(xbuf + f * wstride + l * modes + d.nxs, modes - d.nxs,
                      cplx{0.0, 0.0});
        }
      });
    }
    reorder_pool.run(zc * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t z = i / nf, f = i % nf;
        cplx* xb = xbuf + f * wstride;
        for (int q = 0; q < d.pa; ++q) {
          const block xq = block_range(d.nxs, d.pa, q);
          const cplx* seg = recv + nf * rd[q] + f * rc[q];
          // y outer / xl inner: the xb writes are unit-stride in xl, so
          // this loop vectorizes as a strided gather + contiguous store.
          for (std::size_t y = 0; y < yc; ++y) {
            cplx* dst = xb + (z * yc + y) * modes + xq.offset;
            const cplx* src = seg + y * zc + z;
            for (std::size_t xl = 0; xl < xq.count; ++xl)
              dst[xl] = src[xl * yc * zc];
          }
        }
      }
    });
    account(d.nxs * yc * zc, d.x_pencil_spec_elems(), nf);
  }

  // --- forward path (physical -> spectral) --------------------------------

  void pack_x_to_z(const cplx* xspec, cplx* send, std::size_t nf) {
    const section_timer::section time_sec(reorder_t);
    const std::size_t yc = d.yb.count, zc = d.zp.count;
    const std::size_t modes = d.x_line_modes();
    const std::size_t* rc = rc_zx.data();
    const std::size_t* rd = rd_zx.data();
    reorder_pool.run(zc * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t z = i / nf, f = i % nf;
        const cplx* xb = xspec + f * wstride;
        for (int q = 0; q < d.pa; ++q) {
          const block xq = block_range(d.nxs, d.pa, q);
          cplx* seg = send + nf * rd[q] + f * rc[q];
          // Mirror of unpack_x_pencil: contiguous loads in xl, strided
          // scatter stores.
          for (std::size_t y = 0; y < yc; ++y) {
            const cplx* src = xb + (z * yc + y) * modes + xq.offset;
            cplx* dst = seg + y * zc + z;
            for (std::size_t xl = 0; xl < xq.count; ++xl)
              dst[xl * yc * zc] = src[xl];
          }
        }
      }
    });
    account(d.nxs * yc * zc, d.nxs * yc * zc, nf);
  }

  void unpack_z_from_x(const cplx* recv, cplx* zbuf, std::size_t nf) {
    const section_timer::section time_sec(reorder_t);
    const std::size_t yc = d.yb.count, nzf = d.nzf;
    const std::size_t* sc = sc_zx.data();
    const std::size_t* sd = sd_zx.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        cplx* zb = zbuf + f * wstride;
        for (int q = 0; q < d.pa; ++q) {
          const block zq = block_range(nzf, d.pa, q);
          const cplx* seg = recv + nf * sd[q] + f * sc[q];
          for (std::size_t y = 0; y < yc; ++y)
            std::copy_n(seg + (x * yc + y) * zq.count, zq.count,
                        zb + (x * yc + y) * nzf + zq.offset);
        }
      }
    });
    account(d.z_pencil_elems(), d.z_pencil_elems(), nf);
  }

  void pack_z_to_y(const cplx* zbuf, cplx* send, double scale,
                   std::size_t nf) {
    const section_timer::section time_sec(reorder_t);
    const std::size_t yc = d.yb.count, nzf = d.nzf, nzg = d.g.nz;
    const std::size_t* rc = rc_yz.data();
    const std::size_t* rd = rd_yz.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        const cplx* zb = zbuf + f * wstride;
        for (int q = 0; q < d.pb; ++q) {
          const block zq = block_range(nzg, d.pb, q);
          cplx* seg = send + nf * rd[q] + f * rc[q];
          for (std::size_t zl = 0; zl < zq.count; ++zl) {
            const std::size_t zg = zq.offset + zl;
            cplx* dst = seg + (x * zq.count + zl) * yc;
            if (nzf > nzg && zg == nzg / 2) {  // dropped Nyquist
              std::fill_n(dst, yc, cplx{0.0, 0.0});
              continue;
            }
            const std::size_t zp = zpad_pos(zg);
            for (std::size_t y = 0; y < yc; ++y)
              dst[y] = zb[(x * yc + y) * nzf + zp] * scale;
          }
        }
      }
    });
    account(d.xs.count * nzg * yc, d.xs.count * nzg * yc, nf);
  }

  void unpack_y_pencil(const cplx* recv, cplx* const* specs, std::size_t nf) {
    const section_timer::section time_sec(reorder_t);
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
  // The line loops are widened to lines * nf and re-split at field
  // boundaries, so a chunk never spans two fields' workspace slots.

  void z_fft(cplx* zbuf, const fft::c2c_plan& plan, std::size_t nf) {
    const section_timer::section time_sec(fft_t);
    const std::size_t lines = d.xs.count * d.yb.count;
    const std::size_t len = d.nzf;
    fft_pool.run(lines * nf, [&](std::size_t b, std::size_t e) {
      while (b < e) {
        const std::size_t f = b / lines, l0 = b % lines;
        const std::size_t cnt = std::min(e - b, lines - l0);
        cplx* base = zbuf + f * wstride + l0 * len;
        plan.execute_many(base, len, base, len, cnt);
        b += cnt;
      }
    });
  }

  void x_c2r(const cplx* xspec, double* const* phys, std::size_t nf) {
    const section_timer::section time_sec(fft_t);
    const std::size_t lines = d.zp.count * d.yb.count;
    const std::size_t modes = d.x_line_modes();
    fft_pool.run(lines * nf, [&](std::size_t b, std::size_t e) {
      while (b < e) {
        const std::size_t f = b / lines, l0 = b % lines;
        const std::size_t cnt = std::min(e - b, lines - l0);
        x_inv->execute_many(xspec + f * wstride + l0 * modes, modes,
                           phys[f] + l0 * d.nxf, d.nxf, cnt);
        b += cnt;
      }
    });
  }

  void x_r2c(const double* const* phys, cplx* xspec, std::size_t nf) {
    const section_timer::section time_sec(fft_t);
    const std::size_t lines = d.zp.count * d.yb.count;
    const std::size_t modes = d.x_line_modes();
    fft_pool.run(lines * nf, [&](std::size_t b, std::size_t e) {
      while (b < e) {
        const std::size_t f = b / lines, l0 = b % lines;
        const std::size_t cnt = std::min(e - b, lines - l0);
        x_fwd->execute_many(phys[f] + l0 * d.nxf, d.nxf,
                           xspec + f * wstride + l0 * modes, modes, cnt);
        b += cnt;
      }
    });
  }

  // --- transposes (communication) ------------------------------------------

  void a2a_yz(const cplx* send, cplx* recv, std::size_t nf) {
    const section_timer::section time_sec(comm_t);
    do_exchange_batch(comm_b, cfg.strategy_b, send, sc_yz.data(), sd_yz.data(),
                      recv, rc_yz.data(), rd_yz.data(), nf);
  }
  void a2a_zy(const cplx* send, cplx* recv, std::size_t nf) {
    const section_timer::section time_sec(comm_t);
    do_exchange_batch(comm_b, cfg.strategy_b, send, rc_yz.data(), rd_yz.data(),
                      recv, sc_yz.data(), sd_yz.data(), nf);
  }
  void a2a_zx(const cplx* send, cplx* recv, std::size_t nf) {
    const section_timer::section time_sec(comm_t);
    do_exchange_batch(comm_a, cfg.strategy_a, send, sc_zx.data(), sd_zx.data(),
                      recv, rc_zx.data(), rd_zx.data(), nf);
  }
  void a2a_xz(const cplx* send, cplx* recv, std::size_t nf) {
    const section_timer::section time_sec(comm_t);
    do_exchange_batch(comm_a, cfg.strategy_a, send, rc_zx.data(), rd_zx.data(),
                      recv, sc_zx.data(), sd_zx.data(), nf);
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
  // another group is computing on. Every transform is (pre) pack, (x1)
  // first exchange, (c1) unpack + z-FFT + pack, (x2) second exchange, (c2)
  // unpack + x-FFT; x1/x2 run on the comm thread, everything else on the
  // caller.
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
    const bool p3d = w3 != nullptr;
    auto grp = [&](std::size_t g) {
      return block_range(nf, G, static_cast<int>(g));
    };
    auto at = [&](cplx* w, std::size_t g) {
      return w + grp(g).offset * wstride;
    };
    // Degenerate stages (size-1 comm) skip the exchange and hand the
    // packed buffer straight to the unpack, flipping the ping-pong roles
    // for the rest of the chunk. The P3DFFT branch keeps its fixed
    // 3-buffer rotation (do_exchange_batch degenerates to a local copy
    // there).
    cplx* uz_src = (!p3d && skip_b_) ? w1 : w2;
    cplx* uz_dst = (!p3d && skip_b_) ? w2 : w1;
    run_pipeline(
        static_cast<std::size_t>(G),
        [&](std::size_t g) {
          const block fb = grp(g);
          pack_y_to_z(specs + fb.offset, at(w1, g), fb.count);
        },
        [&](std::size_t g) {
          if (p3d || !skip_b_) a2a_yz(at(w1, g), at(w2, g), grp(g).count);
        },
        [&](std::size_t g) {
          const std::size_t fc = grp(g).count;
          cplx* z = p3d ? at(w3, g) : at(uz_dst, g);
          unpack_z_pencil(p3d ? at(w2, g) : at(uz_src, g), z, fc);
          z_fft(z, *z_inv, fc);
          pack_z_to_x(z, p3d ? at(w1, g) : at(uz_src, g), fc);
        },
        [&](std::size_t g) {
          if (p3d)
            a2a_zx(at(w1, g), at(w2, g), grp(g).count);
          else if (!skip_a_)
            a2a_zx(at(uz_src, g), at(uz_dst, g), grp(g).count);
        },
        [&](std::size_t g) {
          const block fb = grp(g);
          cplx* ux_src = skip_a_ ? uz_src : uz_dst;
          cplx* ux_dst = skip_a_ ? uz_dst : uz_src;
          cplx* in = p3d ? at(w2, g) : at(ux_src, g);
          cplx* x = p3d ? at(w3, g) : at(ux_dst, g);
          unpack_x_pencil(in, x, fb.count);
          x_c2r(x, phys + fb.offset, fb.count);
        });
  }

  void forward_pipelined(const double* const* phys, cplx* const* specs,
                         std::size_t nf) {
    const auto G = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(cfg.pipeline_depth),
                              nf));
    const bool p3d = w3 != nullptr;
    const double scale =
        1.0 / (static_cast<double>(d.nxf) * static_cast<double>(d.nzf));
    auto grp = [&](std::size_t g) {
      return block_range(nf, G, static_cast<int>(g));
    };
    auto at = [&](cplx* w, std::size_t g) {
      return w + grp(g).offset * wstride;
    };
    // Mirror of inverse_pipelined's degenerate-stage handling.
    cplx* uz_src = (!p3d && skip_a_) ? w2 : w1;
    cplx* uz_dst = (!p3d && skip_a_) ? w1 : w2;
    run_pipeline(
        static_cast<std::size_t>(G),
        [&](std::size_t g) {
          const block fb = grp(g);
          x_r2c(phys + fb.offset, at(w1, g), fb.count);
          pack_x_to_z(at(w1, g), at(w2, g), fb.count);
        },
        [&](std::size_t g) {
          if (p3d)
            a2a_xz(at(w2, g), at(w3, g), grp(g).count);
          else if (!skip_a_)
            a2a_xz(at(w2, g), at(w1, g), grp(g).count);
        },
        [&](std::size_t g) {
          const std::size_t fc = grp(g).count;
          cplx* in = p3d ? at(w3, g) : at(uz_src, g);
          cplx* z = p3d ? at(w1, g) : at(uz_dst, g);
          unpack_z_from_x(in, z, fc);
          z_fft(z, *z_fwd, fc);
          pack_z_to_y(z, p3d ? at(w2, g) : at(uz_src, g), scale, fc);
        },
        [&](std::size_t g) {
          if (p3d)
            a2a_zy(at(w2, g), at(w3, g), grp(g).count);
          else if (!skip_b_)
            a2a_zy(at(uz_src, g), at(uz_dst, g), grp(g).count);
        },
        [&](std::size_t g) {
          const block fb = grp(g);
          const cplx* ysrc = p3d ? at(w3, g)
                                 : (skip_b_ ? at(uz_src, g) : at(uz_dst, g));
          unpack_y_pencil(ysrc, specs + fb.offset, fb.count);
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
  const std::size_t nbuf = im.w3 != nullptr ? 3 : 2;
  return nbuf * im.wstride * static_cast<std::size_t>(im.cfg.max_batch) *
         sizeof(cplx);
}

void parallel_fft::rebind_workspace() { impl_->checkout_buffers(); }

double parallel_fft::comm_seconds() const { return impl_->comm_t.total(); }
double parallel_fft::reorder_seconds() const {
  return impl_->reorder_t.total();
}
double parallel_fft::fft_seconds() const { return impl_->fft_t.total(); }
void parallel_fft::reset_timers() {
  impl_->comm_t.reset();
  impl_->reorder_t.reset();
  impl_->fft_t.reset();
}

}  // namespace pcf::pencil
