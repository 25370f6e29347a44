#include <gtest/gtest.h>

#include <complex>
#include <cstdint>

#include "util/aligned.hpp"

namespace {

using pcf::aligned_buffer;

TEST(AlignedBuffer, DefaultIsEmpty) {
  aligned_buffer<double> b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
}

// 1 << 14 doubles (128 KiB) is past kMapBytes: a mapped buffer.
TEST(AlignedBuffer, DataIsCacheLineAligned) {
  for (std::size_t n : {1u, 3u, 17u, 1000u, 1u << 14}) {
    aligned_buffer<double> b(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % pcf::kAlignment, 0u)
        << "n = " << n;
  }
}

TEST(AlignedBuffer, FillConstructorSetsAllElements) {
  aligned_buffer<double> b(37, 2.5);
  for (double v : b) EXPECT_EQ(v, 2.5);
}

TEST(AlignedBuffer, CopyIsDeep) {
  aligned_buffer<int> a(4, 7);
  aligned_buffer<int> b(a);
  b[2] = -1;
  EXPECT_EQ(a[2], 7);
  EXPECT_EQ(b[2], -1);
  EXPECT_NE(a.data(), b.data());
}

TEST(AlignedBuffer, CopyAssignReplacesContents) {
  aligned_buffer<int> a(4, 7);
  aligned_buffer<int> b(2, 0);
  b = a;
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[3], 7);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  for (std::size_t n : {16u, 1u << 14}) {
    aligned_buffer<double> a(n, 1.0);
    double* p = a.data();
    aligned_buffer<double> b(std::move(a));
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(b[n - 1], 1.0);
  }
}

// Resizes across kMapBytes both ways: heap -> mapped -> heap.
TEST(AlignedBuffer, ResetDiscardsAndResizes) {
  aligned_buffer<double> b(8, 1.0);
  for (std::size_t n : {100u, 1u << 14, 100u}) {
    b.reset(n);
    EXPECT_EQ(b.size(), n);
    b.fill(3.0);
    EXPECT_EQ(b[n - 1], 3.0);
  }
}

TEST(AlignedBuffer, SupportsComplex) {
  aligned_buffer<std::complex<double>> b(5, {1.0, -2.0});
  EXPECT_EQ(b[4], (std::complex<double>{1.0, -2.0}));
}

TEST(AlignedBuffer, ZeroSizeResetIsValid) {
  aligned_buffer<double> b(8);
  b.reset(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

}  // namespace
