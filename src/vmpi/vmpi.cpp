#include "vmpi/vmpi.hpp"

#include <algorithm>
#include <map>
#include <thread>

namespace pcf::vmpi {

namespace detail {

/// Thrown in surviving ranks when another rank of the world failed, so the
/// whole world unwinds instead of deadlocking at the next barrier.
struct world_aborted {};

/// Shared state of one communicator: a generation-counted barrier,
/// publication slots the collectives exchange pointers through, a scratch
/// map for split(), and traffic statistics.
struct group_state {
  explicit group_state(int n) : size(n), slots(static_cast<std::size_t>(n)) {}

  int size;

  // True for split() children: every handle is produced by the split
  // rendezvous (one per rank), so a shared-state use count below `size`
  // proves some rank released its communicator — the stale-handle
  // condition check_liveness() rejects. The world state is exempt:
  // run_world constructs rank threads one by one, so early ranks run
  // while later handles don't exist yet.
  bool liveness_tracked = false;

  // Barrier.
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  std::uint64_t gen = 0;
  bool aborted = false;

  // Publication slots (one per rank), valid between two barriers.
  struct slot {
    const void* p0 = nullptr;
    const void* p1 = nullptr;
    const void* p2 = nullptr;
    std::size_t n = 0;
    int i0 = 0;
    int i1 = 0;
  };
  std::vector<slot> slots;

  // split() scratch: color -> child state, guarded by split_m.
  std::mutex split_m;
  std::map<int, std::shared_ptr<group_state>> split_children;

  // Statistics.
  std::atomic<std::uint64_t> alltoall_calls{0};
  std::atomic<std::uint64_t> reduce_calls{0};
  std::atomic<std::uint64_t> bytes_sent{0};

  void barrier() {
    std::unique_lock<std::mutex> lk(m);
    if (aborted) throw world_aborted{};
    const std::uint64_t g = gen;
    if (++arrived == size) {
      arrived = 0;
      ++gen;
      cv.notify_all();
    } else {
      cv.wait(lk, [&] { return gen != g || aborted; });
      if (gen == g && aborted) throw world_aborted{};
    }
  }

  void abort_world() {
    std::lock_guard<std::mutex> lk(m);
    aborted = true;
    cv.notify_all();
  }
};

}  // namespace detail

using detail::group_state;

int communicator::size() const { return state_->size; }

void communicator::check_liveness() const {
  if (!state_->liveness_tracked) return;
  // use_count is a necessary condition, not exact bookkeeping: extra
  // copies (pencil impls, cart2d) only raise it, so >= size holds exactly
  // while every rank still owns at least one handle.
  PCF_REQUIRE(state_.use_count() >= static_cast<long>(state_->size),
              "collective on a stale sub-communicator: a rank has released "
              "its handle, the operation could never complete");
}

void communicator::barrier() {
  check_liveness();
  state_->barrier();
}

comm_stats communicator::stats() const {
  comm_stats s;
  s.alltoall_calls = state_->alltoall_calls.load();
  s.reduce_calls = state_->reduce_calls.load();
  s.bytes_sent = state_->bytes_sent.load();
  return s;
}

void communicator::alltoall_bytes(const void* send, void* recv,
                                  std::size_t bytes) {
  check_liveness();
  auto& st = *state_;
  const int p = st.size;
  st.slots[static_cast<std::size_t>(rank_)] = {send, nullptr, nullptr, bytes, 0, 0};
  st.barrier();
  for (int r = 0; r < p; ++r) {
    const auto& s = st.slots[static_cast<std::size_t>(r)];
    PCF_ASSERT(s.n == bytes);
    std::memcpy(static_cast<char*>(recv) + static_cast<std::size_t>(r) * bytes,
                static_cast<const char*>(s.p0) +
                    static_cast<std::size_t>(rank_) * bytes,
                bytes);
  }
  // Update stats before the closing barrier so every rank observes the
  // counts as soon as the collective returns (stats() may be called by any
  // rank immediately afterwards).
  if (rank_ == 0) {
    st.alltoall_calls.fetch_add(1);
    st.bytes_sent.fetch_add(bytes * static_cast<std::size_t>(p) *
                            static_cast<std::size_t>(p));
  }
  st.barrier();
}

void communicator::alltoallv_bytes(const void* send,
                                   const std::size_t* scounts,
                                   const std::size_t* sdispls, void* recv,
                                   const std::size_t* rcounts,
                                   const std::size_t* rdispls,
                                   std::size_t elem_size) {
  check_liveness();
  auto& st = *state_;
  const int p = st.size;
  (void)rcounts;  // only consulted by assertions
  st.slots[static_cast<std::size_t>(rank_)] = {send, scounts, sdispls,
                                               elem_size, 0, 0};
  st.barrier();
  std::uint64_t received = 0;
  for (int r = 0; r < p; ++r) {
    const auto& s = st.slots[static_cast<std::size_t>(r)];
    const auto* their_counts = static_cast<const std::size_t*>(s.p1);
    const auto* their_displs = static_cast<const std::size_t*>(s.p2);
    const std::size_t cnt = their_counts[rank_];
    PCF_ASSERT(cnt == rcounts[r]);
    std::memcpy(static_cast<char*>(recv) + rdispls[r] * elem_size,
                static_cast<const char*>(s.p0) + their_displs[rank_] * elem_size,
                cnt * elem_size);
    received += cnt * elem_size;
  }
  st.alltoall_calls.fetch_add(rank_ == 0 ? 1 : 0);
  st.bytes_sent.fetch_add(received);
  st.barrier();
}

namespace {

template <class T, class Op>
void reduce_impl(group_state& st, int rank, const T* send, T* recv,
                 std::size_t count, Op op) {
  st.slots[static_cast<std::size_t>(rank)] = {send, nullptr, nullptr, count, 0, 0};
  st.barrier();
  const auto* first = static_cast<const T*>(st.slots[0].p0);
  for (std::size_t i = 0; i < count; ++i) recv[i] = first[i];
  for (int r = 1; r < st.size; ++r) {
    const auto* src = static_cast<const T*>(st.slots[static_cast<std::size_t>(r)].p0);
    for (std::size_t i = 0; i < count; ++i) recv[i] = op(recv[i], src[i]);
  }
  if (rank == 0) st.reduce_calls.fetch_add(1);
  st.barrier();
}

}  // namespace

void communicator::allreduce_sum(const double* send, double* recv,
                                 std::size_t count) {
  check_liveness();
  reduce_impl(*state_, rank_, send, recv, count,
              [](double a, double b) { return a + b; });
}

void communicator::allreduce_sum(const std::complex<double>* send,
                                 std::complex<double>* recv,
                                 std::size_t count) {
  check_liveness();
  reduce_impl(*state_, rank_, send, recv, count,
              [](std::complex<double> a, std::complex<double> b) { return a + b; });
}

void communicator::allreduce_max(const double* send, double* recv,
                                 std::size_t count) {
  check_liveness();
  reduce_impl(*state_, rank_, send, recv, count,
              [](double a, double b) { return a > b ? a : b; });
}

void communicator::allreduce_min(const double* send, double* recv,
                                 std::size_t count) {
  check_liveness();
  reduce_impl(*state_, rank_, send, recv, count,
              [](double a, double b) { return a < b ? a : b; });
}

void communicator::allreduce_bor(const std::uint64_t* send,
                                 std::uint64_t* recv, std::size_t count) {
  check_liveness();
  reduce_impl(*state_, rank_, send, recv, count,
              [](std::uint64_t a, std::uint64_t b) { return a | b; });
}

void communicator::bcast_bytes(void* data, std::size_t bytes, int root) {
  check_liveness();
  auto& st = *state_;
  PCF_REQUIRE(root >= 0 && root < st.size, "bcast root out of range");
  st.slots[static_cast<std::size_t>(rank_)] = {data, nullptr, nullptr, bytes, 0, 0};
  st.barrier();
  if (rank_ != root)
    std::memcpy(data, st.slots[static_cast<std::size_t>(root)].p0, bytes);
  st.barrier();
}

void communicator::allgather_bytes(const void* send, void* recv,
                                   std::size_t bytes) {
  check_liveness();
  auto& st = *state_;
  st.slots[static_cast<std::size_t>(rank_)] = {send, nullptr, nullptr, bytes, 0, 0};
  st.barrier();
  for (int r = 0; r < st.size; ++r)
    std::memcpy(static_cast<char*>(recv) + static_cast<std::size_t>(r) * bytes,
                st.slots[static_cast<std::size_t>(r)].p0, bytes);
  st.barrier();
}

communicator communicator::split(int color, int key) {
  check_liveness();
  auto& st = *state_;
  const int p = st.size;
  st.slots[static_cast<std::size_t>(rank_)] = {nullptr, nullptr, nullptr, 0,
                                               color, key};
  st.barrier();
  // Build my subgroup ordered by (key, parent rank).
  struct member {
    int key, rank;
  };
  std::vector<member> group;
  for (int r = 0; r < p; ++r) {
    const auto& s = st.slots[static_cast<std::size_t>(r)];
    if (s.i0 == color) group.push_back({s.i1, r});
  }
  std::sort(group.begin(), group.end(), [](const member& a, const member& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });
  int my_new_rank = -1;
  for (std::size_t i = 0; i < group.size(); ++i)
    if (group[i].rank == rank_) my_new_rank = static_cast<int>(i);
  PCF_ASSERT(my_new_rank >= 0);

  // Leader (new rank 0) creates the child state.
  if (my_new_rank == 0) {
    auto child = std::make_shared<group_state>(static_cast<int>(group.size()));
    // The split rendezvous below guarantees every member rank takes its
    // handle before any rank returns, so from here on a use count below
    // the group size is proof of a released handle.
    child->liveness_tracked = true;
    std::lock_guard<std::mutex> lk(st.split_m);
    st.split_children[color] = child;
  }
  st.barrier();
  std::shared_ptr<group_state> child;
  {
    std::lock_guard<std::mutex> lk(st.split_m);
    child = st.split_children.at(color);
  }
  st.barrier();
  if (rank_ == 0) {
    std::lock_guard<std::mutex> lk(st.split_m);
    st.split_children.clear();
  }
  st.barrier();
  return communicator(std::move(child), my_new_rank);
}

void run_world(int nranks, const std::function<void(communicator&)>& fn) {
  PCF_REQUIRE(nranks >= 1, "need at least one rank");
  auto state = std::make_shared<group_state>(nranks);
  std::vector<std::thread> threads;
  std::mutex err_m;
  std::exception_ptr first_error;

  auto body = [&](int r) {
    try {
      communicator c(state, r);
      fn(c);
    } catch (const detail::world_aborted&) {
      // Another rank failed first; this rank just unwinds.
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(err_m);
        if (!first_error) first_error = std::current_exception();
      }
      // A failed rank must not deadlock the others: flag the world so
      // every present and future barrier wait throws world_aborted.
      state->abort_world();
    }
  };

  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

cart_split split_cartesian(communicator& world, int pa, int pb) {
  // Validate before the first split: an invalid grid must throw on every
  // rank without entering the split rendezvous (where ranks that already
  // failed would deadlock the rest).
  PCF_REQUIRE(pa >= 1 && pb >= 1 && pa * pb == world.size(),
              "process grid must cover the world communicator exactly");
  const int a = world.rank() / pb;
  const int b = world.rank() % pb;
  // Braced init evaluates left to right, so every rank splits CommA then
  // CommB in the same order.
  return {a, b, world.split(b, a), world.split(a, b)};
}

cart2d::cart2d(communicator& world, int pa, int pb)
    : cart2d(split_cartesian(world, pa, pb), pa, pb) {}

cart2d::cart2d(cart_split s, int pa, int pb)
    : pa_(pa),
      pb_(pb),
      a_(s.coord_a),
      b_(s.coord_b),
      comm_a_(std::move(s.comm_a)),
      comm_b_(std::move(s.comm_b)) {}

}  // namespace pcf::vmpi
