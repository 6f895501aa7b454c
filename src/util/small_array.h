// SmallArray: a fixed-size array that lives inline (on the stack, for a
// local) up to N elements and spills to the heap past that. The count path
// sizes its per-query tables (hash positions, AND operands) with it, so a
// realistic query allocates nothing while a long itemset's signature still
// fits.

#ifndef BBSMINE_UTIL_SMALL_ARRAY_H_
#define BBSMINE_UTIL_SMALL_ARRAY_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <memory>

namespace bbsmine {

template <typename T, size_t N>
class SmallArray {
 public:
  /// `size` value-initialized elements; heap-allocated only when size > N.
  explicit SmallArray(size_t size) : size_(size) {
    if (size > N) {
      heap_ = std::make_unique<T[]>(size);
    } else {
      std::fill_n(inline_.begin(), size, T{});
    }
  }

  /// Moves the elements (copying only the initialized ones when inline).
  SmallArray(SmallArray&& other) noexcept
      : heap_(std::move(other.heap_)), size_(other.size_) {
    if (heap_ == nullptr) {
      std::copy_n(other.inline_.begin(), size_, inline_.begin());
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return heap_ != nullptr ? heap_.get() : inline_.data(); }
  const T* data() const {
    return heap_ != nullptr ? heap_.get() : inline_.data();
  }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }

  /// Keeps the first `size` elements (size <= size()).
  void Truncate(size_t size) {
    assert(size <= size_);
    size_ = size;
  }

 private:
  // Only the first size_ elements are reachable (Truncate only shrinks),
  // and the constructor initializes exactly those: zeroing all N would cost
  // more than the short queries this array exists for.
  std::array<T, N> inline_;
  std::unique_ptr<T[]> heap_;
  size_t size_;
};

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_SMALL_ARRAY_H_
