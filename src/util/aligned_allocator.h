// A std::allocator drop-in with a guaranteed minimum alignment.
//
// BitVector stores its words through this with 64-byte alignment so every
// slice starts on a cache-line (and full AVX-512 vector) boundary; the
// kernels still use unaligned loads, so alignment is a throughput hint,
// never a correctness requirement.
//
// The words are carved out of a plain `operator new` block `Alignment`
// bytes larger, not taken from the aligned `operator new`: glibc (before
// 2.38) serves an aligned request by splitting a larger chunk and never
// reuses a freed aligned chunk for the next request of the same size, so a
// miner that frees and reallocates same-sized tid-set BitVectors grew its
// heap by megabytes per pass with nothing live in it. A plain block of the
// same size fits the hole the last one left.

#ifndef BBSMINE_UTIL_ALIGNED_ALLOCATOR_H_
#define BBSMINE_UTIL_ALIGNED_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace bbsmine {

template <typename T, std::size_t Alignment>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T),
                "Alignment must not be weaker than alignof(T)");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");

  using value_type = T;

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  // The block start is stored in the pointer-sized slot just below the
  // aligned words; it fits because `operator new` returns at least
  // pointer-aligned memory.
  static_assert(Alignment >= sizeof(void*),
                "Alignment must leave room for the block pointer");

  T* allocate(std::size_t n) {
    if (n > (SIZE_MAX - Alignment) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    char* raw = static_cast<char*>(::operator new(n * sizeof(T) + Alignment));
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*) +
         Alignment - 1) &
        ~std::uintptr_t{Alignment - 1};
    reinterpret_cast<void**>(aligned)[-1] = raw;
    return reinterpret_cast<T*>(aligned);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }
};

template <typename T, typename U, std::size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return true;
}

template <typename T, typename U, std::size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return false;
}

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_ALIGNED_ALLOCATOR_H_
