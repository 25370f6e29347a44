#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "vmpi/vmpi.hpp"

namespace {

using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

class WorldSizes : public ::testing::TestWithParam<int> {};

TEST_P(WorldSizes, RanksAreDistinctAndSized) {
  const int p = GetParam();
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(p));
  run_world(p, [&](communicator& c) {
    EXPECT_EQ(c.size(), p);
    seen[static_cast<std::size_t>(c.rank())].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST_P(WorldSizes, AlltoallPermutesBlocks) {
  const int p = GetParam();
  const std::size_t cnt = 3;
  run_world(p, [&](communicator& c) {
    std::vector<int> send(static_cast<std::size_t>(p) * cnt);
    std::vector<int> recv(send.size(), -1);
    // Block destined for rank r is encoded (me, r, k).
    for (int r = 0; r < p; ++r)
      for (std::size_t k = 0; k < cnt; ++k)
        send[static_cast<std::size_t>(r) * cnt + k] =
            c.rank() * 1000 + r * 10 + static_cast<int>(k);
    c.alltoall(send.data(), recv.data(), cnt);
    for (int r = 0; r < p; ++r)
      for (std::size_t k = 0; k < cnt; ++k)
        EXPECT_EQ(recv[static_cast<std::size_t>(r) * cnt + k],
                  r * 1000 + c.rank() * 10 + static_cast<int>(k));
  });
}

TEST_P(WorldSizes, AlltoallvWithVaryingCounts) {
  const int p = GetParam();
  run_world(p, [&](communicator& c) {
    const int me = c.rank();
    // Rank s sends (s + r + 1) elements to rank r, value = s*100 + r.
    std::vector<std::size_t> scounts(static_cast<std::size_t>(p)),
        sdispls(static_cast<std::size_t>(p)), rcounts(static_cast<std::size_t>(p)),
        rdispls(static_cast<std::size_t>(p));
    std::size_t stot = 0, rtot = 0;
    for (int r = 0; r < p; ++r) {
      scounts[static_cast<std::size_t>(r)] = static_cast<std::size_t>(me + r + 1);
      sdispls[static_cast<std::size_t>(r)] = stot;
      stot += scounts[static_cast<std::size_t>(r)];
      rcounts[static_cast<std::size_t>(r)] = static_cast<std::size_t>(r + me + 1);
      rdispls[static_cast<std::size_t>(r)] = rtot;
      rtot += rcounts[static_cast<std::size_t>(r)];
    }
    std::vector<double> send(stot), recv(rtot, -1.0);
    for (int r = 0; r < p; ++r)
      for (std::size_t k = 0; k < scounts[static_cast<std::size_t>(r)]; ++k)
        send[sdispls[static_cast<std::size_t>(r)] + k] = me * 100.0 + r;
    c.alltoallv(send.data(), scounts.data(), sdispls.data(), recv.data(),
                rcounts.data(), rdispls.data());
    for (int r = 0; r < p; ++r)
      for (std::size_t k = 0; k < rcounts[static_cast<std::size_t>(r)]; ++k)
        EXPECT_EQ(recv[rdispls[static_cast<std::size_t>(r)] + k], r * 100.0 + me);
  });
}

// A shift by one rank, written as an alltoallv whose only non-zero block
// goes to the right neighbour: every other count is zero and the one live
// block sits at a non-zero displacement on both sides.
TEST_P(WorldSizes, ExchangeRotation) {
  const int p = GetParam();
  run_world(p, [&](communicator& c) {
    const int me = c.rank();
    const std::size_t dest = static_cast<std::size_t>((me + 1) % p);
    const std::size_t src = static_cast<std::size_t>((me + p - 1) % p);
    const std::size_t n = static_cast<std::size_t>(p);
    std::vector<std::size_t> scounts(n, 0), sdispls(n, 1), rcounts(n, 0),
        rdispls(n, 2);
    scounts[dest] = 1;
    rcounts[src] = 1;
    const double send[2] = {-3.0, 7.0 * me};
    double recv[3] = {-1.0, -1.0, -1.0};
    const auto before = c.stats();
    c.alltoallv(send, scounts.data(), sdispls.data(), recv, rcounts.data(),
                rdispls.data());
    EXPECT_EQ(recv[2], 7.0 * ((me + p - 1) % p));
    EXPECT_EQ(recv[0], -1.0);
    EXPECT_EQ(recv[1], -1.0);
    // One collective, one double per rank moved.
    const auto after = c.stats();
    EXPECT_EQ(after.alltoall_calls - before.alltoall_calls, 1u);
    EXPECT_EQ(after.bytes_sent - before.bytes_sent, n * sizeof(double));
  });
}

TEST_P(WorldSizes, AllreduceSumMaxMin) {
  const int p = GetParam();
  run_world(p, [&](communicator& c) {
    const double v = static_cast<double>(c.rank() + 1);
    double s = 0, mx = 0, mn = 0;
    c.allreduce_sum(&v, &s, 1);
    c.allreduce_max(&v, &mx, 1);
    c.allreduce_min(&v, &mn, 1);
    EXPECT_EQ(s, p * (p + 1) / 2.0);
    EXPECT_EQ(mx, static_cast<double>(p));
    EXPECT_EQ(mn, 1.0);
  });
}

// The single-owner gather primitive: OR of one owned word with all-zero
// words from every other rank reproduces the owner's bits exactly —
// including a -0.0 bit pattern, which a floating-point sum would flip to
// +0.0 as soon as a second rank joins.
TEST_P(WorldSizes, AllreduceBitwiseOrIsExactSingleOwnerGather) {
  const int p = GetParam();
  run_world(p, [&](communicator& c) {
    // Slot r is owned by rank r; slot p holds -0.0 owned by rank 0.
    std::vector<std::uint64_t> send(static_cast<std::size_t>(p) + 1, 0);
    send[static_cast<std::size_t>(c.rank())] =
        0xdead0000ull + static_cast<std::uint64_t>(c.rank());
    const double neg_zero = -0.0;
    if (c.rank() == 0) std::memcpy(&send[send.size() - 1], &neg_zero, 8);
    std::vector<std::uint64_t> recv(send.size());
    c.allreduce_bor(send.data(), recv.data(), send.size());
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(recv[static_cast<std::size_t>(r)],
                0xdead0000ull + static_cast<std::uint64_t>(r));
    double back;
    std::memcpy(&back, &recv[recv.size() - 1], 8);
    EXPECT_TRUE(std::signbit(back)) << "gather lost the -0.0 sign bit";
  });
}

TEST_P(WorldSizes, AllreduceComplexSum) {
  const int p = GetParam();
  run_world(p, [&](communicator& c) {
    const std::complex<double> v{1.0, static_cast<double>(c.rank())};
    std::complex<double> s;
    c.allreduce_sum(&v, &s, 1);
    EXPECT_EQ(s.real(), static_cast<double>(p));
    EXPECT_EQ(s.imag(), p * (p - 1) / 2.0);
  });
}

TEST_P(WorldSizes, BcastFromEveryRoot) {
  const int p = GetParam();
  run_world(p, [&](communicator& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(4, c.rank() == root ? root * 11 : -1);
      c.bcast(data.data(), data.size(), root);
      for (int v : data) EXPECT_EQ(v, root * 11);
    }
  });
}

TEST_P(WorldSizes, AllgatherCollectsInRankOrder) {
  const int p = GetParam();
  run_world(p, [&](communicator& c) {
    const int v = c.rank() * 3;
    std::vector<int> all(static_cast<std::size_t>(p), -1);
    c.allgather(&v, all.data(), 1);
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], 3 * r);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorldSizes, ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Vmpi, StatsCountTraffic) {
  run_world(4, [&](communicator& c) {
    std::vector<double> s(4, 1.0), r(4);
    c.alltoall(s.data(), r.data(), 1);
    auto st = c.stats();
    EXPECT_EQ(st.alltoall_calls, 1u);
    EXPECT_EQ(st.bytes_sent, 4u * 4u * sizeof(double));
  });
}

TEST(Vmpi, RankExceptionPropagates) {
  EXPECT_THROW(run_world(3,
                         [&](communicator& c) {
                           if (c.rank() == 1)
                             throw std::runtime_error("rank failure");
                           // Other ranks would block here without the
                           // error-release path.
                           c.barrier();
                         }),
               std::runtime_error);
}

TEST(Vmpi, SplitByParity) {
  run_world(6, [&](communicator& c) {
    auto sub = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // Reduce within the subgroup: even ranks sum 0+2+4, odd 1+3+5.
    const double v = c.rank();
    double s = 0;
    sub.allreduce_sum(&v, &s, 1);
    EXPECT_EQ(s, c.rank() % 2 == 0 ? 6.0 : 9.0);
  });
}

TEST(Vmpi, SplitHonorsKeyOrdering) {
  run_world(4, [&](communicator& c) {
    // Reverse order by key.
    auto sub = c.split(0, -c.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - c.rank());
  });
}

TEST(Vmpi, NestedSplits) {
  run_world(8, [&](communicator& c) {
    auto half = c.split(c.rank() / 4, c.rank());
    auto quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    double v = 1.0, s = 0.0;
    quarter.allreduce_sum(&v, &s, 1);
    EXPECT_EQ(s, 2.0);
  });
}

}  // namespace
