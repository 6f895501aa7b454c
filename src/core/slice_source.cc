#include "core/slice_source.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

namespace bbsmine {

using Word = BitVector::Word;

size_t SliceView::Count() const {
  size_t count = kernels::Count(words, stable_words);
  if (stable_words < num_words) count += std::popcount(last);
  return count;
}

size_t SliceView::AndInto(Word* dst) const {
  size_t count = kernels::AndCount(dst, words, stable_words);
  if (stable_words < num_words) {
    dst[stable_words] &= last;
    count += std::popcount(dst[stable_words]);
  }
  return count;
}

void SliceView::OrInto(Word* dst) const {
  kernels::OrWords(dst, words, stable_words);
  if (stable_words < num_words) dst[stable_words] |= last;
}

void SliceView::CopyTo(Word* dst) const {
  if (stable_words > 0) std::memcpy(dst, words, stable_words * sizeof(Word));
  if (stable_words < num_words) dst[stable_words] = last;
}

Result<IndexBackend> ParseIndexBackend(std::string_view name) {
  if (name == "resident") return IndexBackend::kResident;
  if (name == "mmap") return IndexBackend::kMmap;
  return Status::InvalidArgument("unknown index backend '" +
                                 std::string(name) +
                                 "' (expected resident|mmap)");
}

const char* IndexBackendName(IndexBackend backend) {
  return backend == IndexBackend::kMmap ? "mmap" : "resident";
}

BlockSliceSource::Block::Block(uint32_t num_slices, size_t capacity_bits)
    : raw(nullptr), words(nullptr), stride(0), capacity(capacity_bits) {
  if (capacity == 0) return;
  constexpr size_t kLineWords = BitVector::kWordAlignment / sizeof(Word);
  constexpr size_t kLineBits = kLineWords * BitVector::kWordBits;
  // A capacity whose block size does not fit in a size_t fails like any
  // other allocation instead of wrapping to a small block.
  const size_t max_lines = (SIZE_MAX - BitVector::kWordAlignment) /
                           BitVector::kWordAlignment /
                           std::max<size_t>(num_slices, 1);
  if (capacity / kLineBits >= max_lines) throw std::bad_alloc();
  stride = (capacity / kLineBits + (capacity % kLineBits != 0)) * kLineWords;
  // calloc: a large block comes straight from fresh zero pages, so slice
  // words the writer never reaches cost no resident memory.
  raw = std::calloc(static_cast<size_t>(num_slices) * stride * sizeof(Word) +
                        BitVector::kWordAlignment,
                    1);
  if (raw == nullptr) throw std::bad_alloc();
  const uintptr_t aligned =
      (reinterpret_cast<uintptr_t>(raw) + BitVector::kWordAlignment - 1) &
      ~uintptr_t{BitVector::kWordAlignment - 1};
  words = reinterpret_cast<Word*>(aligned);
}

BlockSliceSource::Block::~Block() { std::free(raw); }

BlockSliceSource::BlockSliceSource(uint32_t num_slices, size_t capacity,
                                   size_t bits)
    : BlockSliceSource(std::make_shared<Block>(num_slices, capacity),
                       num_slices, bits, {}, /*frozen=*/false) {
  assert(bits <= capacity);
}

size_t BlockSliceSource::ApproxResidentBytes() const {
  return static_cast<size_t>(num_slices_) * block_->stride * sizeof(Word) +
         boundary_.size() * sizeof(Word);
}

size_t BlockSliceSource::GrownCapacity() const {
  constexpr size_t kLineBits = BitVector::kWordAlignment * 8;
  return std::max(2 * block_->capacity, kLineBits);
}

std::shared_ptr<BlockSliceSource::Block> BlockSliceSource::CopyBlock(
    size_t capacity) const {
  auto copy = std::make_shared<Block>(num_slices_, capacity);
  const size_t bytes = words_per_slice() * sizeof(Word);
  if (bytes == 0) return copy;
  for (uint32_t s = 0; s < num_slices_; ++s) {
    std::memcpy(copy->words + s * copy->stride, Words(s), bytes);
  }
  return copy;
}

void BlockSliceSource::Reserve(size_t capacity) {
  assert(!frozen_);
  if (capacity <= block_->capacity) return;
  // Views frozen from the old block keep their reference to it; the writer
  // never touches it again.
  block_ = CopyBlock(capacity);
}

std::unique_ptr<SliceSource> BlockSliceSource::Clone() const {
  if (frozen_) {
    return std::unique_ptr<SliceSource>(new BlockSliceSource(
        block_, num_slices_, bits_, boundary_, /*frozen=*/true));
  }
  return std::unique_ptr<SliceSource>(
      new BlockSliceSource(CopyBlock(block_->capacity), num_slices_, bits_,
                           {}, /*frozen=*/false));
}

std::unique_ptr<SliceSource> BlockSliceSource::Freeze() const {
  if (frozen_) return Clone();
  std::vector<Word> boundary;
  if (bits_ % BitVector::kWordBits != 0) {
    const size_t last = bits_ / BitVector::kWordBits;
    boundary.resize(num_slices_);
    for (uint32_t s = 0; s < num_slices_; ++s) boundary[s] = Words(s)[last];
  }
  return std::unique_ptr<SliceSource>(new BlockSliceSource(
      block_, num_slices_, bits_, std::move(boundary), /*frozen=*/true));
}

void MmapSliceSource::AdviseSequentialScan() const {
  const uint64_t bytes = static_cast<uint64_t>(num_slices_) * stride_bytes_;
  file_->AdviseSequential(data_offset_, bytes);
  file_->AdviseWillNeed(data_offset_, bytes);
}

std::unique_ptr<SliceSource> MmapSliceSource::Clone() const {
  return std::make_unique<MmapSliceSource>(file_, data_offset_, stride_bytes_,
                                           num_slices_, words_per_slice_,
                                           slice_bits_);
}

}  // namespace bbsmine
