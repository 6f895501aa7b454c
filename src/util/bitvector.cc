#include "util/bitvector.h"

#include <algorithm>
#include <cassert>

#include "util/bitvector_kernels.h"

namespace bbsmine {

BitVector::BitVector(size_t size, bool value)
    : words_((size + kWordBits - 1) / kWordBits,
             value ? ~Word{0} : Word{0}),
      size_(size) {
  MaskTail();
}

void BitVector::PushBack(bool value) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  if (value) words_.back() |= Word{1} << (size_ % kWordBits);
  ++size_;
}

void BitVector::Resize(size_t size) {
  size_t new_words = (size + kWordBits - 1) / kWordBits;
  words_.resize(new_words, 0);
  size_ = size;
  MaskTail();
}

void BitVector::AssignWords(const Word* words, size_t num_words, size_t size) {
  size_t needed = (size + kWordBits - 1) / kWordBits;
  assert(num_words >= needed);
  (void)num_words;
  words_.assign(words, words + needed);
  size_ = size;
  MaskTail();
}

void BitVector::Clear() {
  std::fill(words_.begin(), words_.end(), Word{0});
}

void BitVector::SetAll() {
  std::fill(words_.begin(), words_.end(), ~Word{0});
  MaskTail();
}

size_t BitVector::Count() const {
  return static_cast<size_t>(kernels::Count(words_.data(), words_.size()));
}

size_t BitVector::CountPrefix(size_t prefix_bits) const {
  assert(prefix_bits <= size_);
  size_t full_words = prefix_bits / kWordBits;
  size_t total = 0;
  for (size_t i = 0; i < full_words; ++i) {
    total += static_cast<size_t>(std::popcount(words_[i]));
  }
  size_t rem = prefix_bits % kWordBits;
  if (rem != 0) {
    Word mask = (Word{1} << rem) - 1;
    total += static_cast<size_t>(std::popcount(words_[full_words] & mask));
  }
  return total;
}

bool BitVector::None() const {
  for (Word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

void BitVector::AndWith(const BitVector& other) {
  assert(size_ == other.size_);
  kernels::AndWords(words_.data(), other.words_.data(), words_.size());
}

void BitVector::OrWith(const BitVector& other) {
  assert(size_ == other.size_);
  kernels::OrWords(words_.data(), other.words_.data(), words_.size());
}

void BitVector::AndNotWith(const BitVector& other) {
  assert(size_ == other.size_);
  kernels::AndNotWords(words_.data(), other.words_.data(), words_.size());
}

void BitVector::FlipAll() {
  for (Word& w : words_) w = ~w;
  MaskTail();
}

size_t BitVector::AndWithCount(const BitVector& other) {
  assert(size_ == other.size_);
  return static_cast<size_t>(
      kernels::AndCount(words_.data(), other.words_.data(), words_.size()));
}

size_t BitVector::AssignAndCount(const BitVector& a, const BitVector& b) {
  assert(a.size_ == b.size_);
  words_.resize(a.words_.size());
  size_ = a.size_;
  return static_cast<size_t>(kernels::AssignAndCount(
      words_.data(), a.words_.data(), b.words_.data(), words_.size()));
}

bool BitVector::Intersects(const BitVector& other) const {
  assert(size_ == other.size_);
  return kernels::Intersects(words_.data(), other.words_.data(),
                             words_.size());
}

bool BitVector::IsSubsetOf(const BitVector& other) const {
  assert(size_ == other.size_);
  return kernels::IsSubsetOf(words_.data(), other.words_.data(),
                             words_.size());
}

size_t BitVector::FindNext(size_t from) const {
  if (from >= size_) return npos;
  size_t word_idx = from / kWordBits;
  Word w = words_[word_idx] & (~Word{0} << (from % kWordBits));
  while (true) {
    if (w != 0) {
      size_t bit = word_idx * kWordBits +
                   static_cast<size_t>(std::countr_zero(w));
      return bit < size_ ? bit : npos;
    }
    if (++word_idx >= words_.size()) return npos;
    w = words_[word_idx];
  }
}

void BitVector::AppendSetBits(std::vector<uint32_t>* out) const {
  for (size_t word_idx = 0; word_idx < words_.size(); ++word_idx) {
    Word w = words_[word_idx];
    while (w != 0) {
      uint32_t bit = static_cast<uint32_t>(
          word_idx * kWordBits + static_cast<size_t>(std::countr_zero(w)));
      out->push_back(bit);
      w &= w - 1;
    }
  }
}

std::vector<uint32_t> BitVector::SetBits() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  AppendSetBits(&out);
  return out;
}

void BitVector::MaskTail() {
  size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << rem) - 1;
  }
}

}  // namespace bbsmine
