// Cache-line/SIMD aligned storage for numerical kernels.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

#include "util/check.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pcf {

inline constexpr std::size_t kAlignment = 64;  // one x86 cache line

/// Buffers of at least this many bytes get a private anonymous mapping
/// instead of heap memory, and hand their pages back to the OS when freed.
/// Heap-held fields fragment glibc's heap: after the first large free it
/// raises its mmap threshold, later fields land in the heap, and small
/// allocations that outlive a simulation pin its freed fields' holes, so a
/// process that builds one simulation after another keeps growing
/// (DESIGN.md §12).
inline constexpr std::size_t kMapBytes = std::size_t{64} << 10;

/// Owning, 64-byte-aligned, fixed-size buffer of trivially copyable T.
/// Unlike std::vector it never value-initializes on resize-free paths and
/// guarantees alignment suitable for vectorized kernels.
template <class T>
class aligned_buffer {
  static_assert(std::is_trivially_copyable_v<T> ||
                    std::is_same_v<T, std::complex<double>>,
                "aligned_buffer is for POD-like numeric types");

 public:
  aligned_buffer() = default;

  explicit aligned_buffer(std::size_t n) { allocate(n); }

  aligned_buffer(std::size_t n, const T& fill) {
    allocate(n);
    std::fill_n(data_.get(), n, fill);
  }

  aligned_buffer(const aligned_buffer& other) {
    allocate(other.size_);
    std::copy_n(other.data_.get(), size_, data_.get());
  }
  aligned_buffer& operator=(const aligned_buffer& other) {
    if (this != &other) {
      allocate(other.size_);
      std::copy_n(other.data_.get(), size_, data_.get());
    }
    return *this;
  }
  aligned_buffer(aligned_buffer&&) noexcept = default;
  aligned_buffer& operator=(aligned_buffer&&) noexcept = default;

  /// Discards contents; new contents are uninitialized.
  void reset(std::size_t n) { allocate(n); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  T* data() noexcept { return data_.get(); }
  const T* data() const noexcept { return data_.get(); }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }

  void fill(const T& v) { std::fill_n(data_.get(), size_, v); }

 private:
  struct releaser {
    std::size_t mapped = 0;  // bytes of a private mapping; 0: heap memory
    void operator()(T* p) const noexcept {
#if defined(__linux__)
      if (mapped != 0) {
        ::munmap(p, mapped);
        return;
      }
#endif
      std::free(p);
    }
  };
  using storage = std::unique_ptr<T[], releaser>;

  void allocate(std::size_t n) {
    size_ = n;
    if (n == 0) {
      data_.reset();
      return;
    }
    // round byte count up to the alignment as aligned_alloc requires
    std::size_t bytes = (n * sizeof(T) + kAlignment - 1) / kAlignment * kAlignment;
    // AddressSanitizer keeps its redzones only around heap memory, so
    // sanitized builds stay on the heap.
#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__)
    if (bytes >= kMapBytes) {
      void* m = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (m != MAP_FAILED) {
        data_ = storage(static_cast<T*>(m), releaser{bytes});
        return;
      }
    }
#endif
    T* p = static_cast<T*>(std::aligned_alloc(kAlignment, bytes));
    if (p == nullptr) throw std::bad_alloc();
    data_ = storage(p, releaser{});
  }

  storage data_;
  std::size_t size_ = 0;
};

}  // namespace pcf
