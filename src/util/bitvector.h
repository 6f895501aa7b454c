// A dynamically sized bit vector with word-parallel bulk operations.
//
// BitVector is the workhorse of the BBS index: every bit-slice of the
// signature file is a BitVector of length N (one bit per transaction), and
// CountItemSet reduces to in-place AND + popcount over slices. The
// implementation therefore optimizes for:
//   * fast AndWith / popcount over 64-bit words,
//   * cheap append (the index grows one transaction at a time),
//   * iteration over set bits (the Probe refinement walks result vectors).

#ifndef BBSMINE_UTIL_BITVECTOR_H_
#define BBSMINE_UTIL_BITVECTOR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/aligned_allocator.h"

namespace bbsmine {

/// A growable vector of bits backed by 64-bit words.
///
/// Bits beyond size() inside the last word are maintained as zero, so bulk
/// word operations (AND, OR, popcount) never need per-bit masking.
///
/// All bulk operations dispatch through the runtime-selected SIMD kernels
/// (util/bitvector_kernels.h); the backing words are 64-byte aligned so
/// every vector starts on a cache-line boundary.
class BitVector {
 public:
  using Word = uint64_t;
  static constexpr size_t kWordBits = 64;
  /// Cache-line / AVX-512-vector alignment of the backing words.
  static constexpr size_t kWordAlignment = 64;
  using WordVector = std::vector<Word, AlignedAllocator<Word, kWordAlignment>>;

  /// Constructs an empty bit vector.
  BitVector() = default;

  /// Constructs a vector of `size` bits, all initialized to `value`.
  explicit BitVector(size_t size, bool value = false);

  /// Number of bits.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of backing words (ceil(size / 64)).
  size_t num_words() const { return words_.size(); }

  /// Read-only access to the backing words, for serialization and bulk math.
  const WordVector& words() const { return words_; }

  /// Mutable word storage for kernel-driven bulk math (the BBS index's
  /// blocked CountWithSeed writes AND results straight into it). Callers
  /// must preserve the invariant that bits past size() stay zero.
  Word* MutableWords() { return words_.data(); }

  /// Returns bit `i`. Precondition: i < size().
  bool Get(size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  /// Sets bit `i` to `value`. Precondition: i < size().
  void Set(size_t i, bool value = true) {
    Word mask = Word{1} << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= mask;
    } else {
      words_[i / kWordBits] &= ~mask;
    }
  }

  /// Appends one bit at the end, growing the vector by one.
  void PushBack(bool value);

  /// Grows (or shrinks) to `size` bits; new bits are zero.
  void Resize(size_t size);

  /// Replaces the contents with `size` bits copied word-wise from `words`
  /// (bit i lives at words[i / 64] >> (i % 64), the same layout words()
  /// exposes). `num_words` must be at least ceil(size / 64); excess words
  /// and bits past `size` in the last word are ignored. O(words), the bulk
  /// counterpart of building the vector one Set() at a time.
  void AssignWords(const Word* words, size_t num_words, size_t size);

  /// Sets every bit to zero without changing the size.
  void Clear();

  /// Sets every bit to one.
  void SetAll();

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits among the first `prefix_bits` bits.
  /// Precondition: prefix_bits <= size().
  size_t CountPrefix(size_t prefix_bits) const;

  /// True if no bit is set.
  bool None() const;

  /// In-place AND with `other`. Both vectors must have the same size.
  void AndWith(const BitVector& other);

  /// In-place OR with `other`. Both vectors must have the same size.
  void OrWith(const BitVector& other);

  /// In-place AND-NOT (this &= ~other). Both vectors must have the same size.
  void AndNotWith(const BitVector& other);

  /// Flips every bit (trailing bits in the last word stay zero).
  void FlipAll();

  /// In-place AND with `other`, returning the popcount of the result.
  /// Fuses the two passes of AndWith + Count into one.
  size_t AndWithCount(const BitVector& other);

  /// Three-operand fused op: *this = a & b, returning the popcount of the
  /// result. Replaces the copy-then-AndWithCount two-pass pattern in the
  /// filter walk. `a` and `b` must have the same size; either may alias
  /// *this.
  size_t AssignAndCount(const BitVector& a, const BitVector& b);

  /// True if (this & other) has at least one set bit. Early-exits.
  bool Intersects(const BitVector& other) const;

  /// True iff every set bit of this vector is also set in `other`.
  bool IsSubsetOf(const BitVector& other) const;

  /// Index of the first set bit at position >= `from`, or npos if none.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t FindNext(size_t from) const;

  /// Appends the index of every set bit to `out`.
  void AppendSetBits(std::vector<uint32_t>* out) const;

  /// Returns the indices of all set bits.
  std::vector<uint32_t> SetBits() const;

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// Approximate heap memory used, in bytes.
  size_t MemoryUsage() const { return words_.capacity() * sizeof(Word); }

 private:
  /// Zeroes bits at positions >= size_ in the last word.
  void MaskTail();

  WordVector words_;
  size_t size_ = 0;
};

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_BITVECTOR_H_
