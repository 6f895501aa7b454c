#include "core/slice_source.h"

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

size_t ResidentSliceSource::ApproxResidentBytes() const {
  size_t total = 0;
  for (const BitVector& slice : slices_) total += slice.MemoryUsage();
  return total;
}

std::unique_ptr<SliceSource> ResidentSliceSource::Clone() const {
  auto copy = std::make_unique<ResidentSliceSource>(0);
  copy->slices_ = slices_;
  return copy;
}

TailSliceSource::Block::Block(uint32_t num_slices, size_t capacity_bits)
    : capacity(capacity_bits) {
  constexpr size_t kLineWords = BitVector::kWordAlignment / sizeof(Word);
  const size_t needed = (capacity + BitVector::kWordBits - 1) /
                        BitVector::kWordBits;
  stride = (needed + kLineWords - 1) / kLineWords * kLineWords;
  // calloc: a large block comes straight from fresh zero pages, so slice
  // words the tail never reaches cost no resident memory.
  raw = std::calloc(static_cast<size_t>(num_slices) * stride * sizeof(Word) +
                        BitVector::kWordAlignment,
                    1);
  if (raw == nullptr) throw std::bad_alloc();
  const uintptr_t aligned =
      (reinterpret_cast<uintptr_t>(raw) + BitVector::kWordAlignment - 1) &
      ~uintptr_t{BitVector::kWordAlignment - 1};
  words = reinterpret_cast<Word*>(aligned);
}

TailSliceSource::Block::~Block() { std::free(raw); }

TailSliceSource::TailSliceSource(uint32_t num_slices, size_t capacity,
                                 size_t bits)
    : TailSliceSource(std::make_shared<Block>(num_slices, capacity),
                      num_slices, bits, {}, /*frozen=*/false) {}

size_t TailSliceSource::ApproxResidentBytes() const {
  return static_cast<size_t>(num_slices_) * block_->stride * sizeof(Word) +
         boundary_.size() * sizeof(Word);
}

void TailSliceSource::AppendZeroBit() {
  assert(!frozen_ && bits_ < block_->capacity);
  ++bits_;
}

std::unique_ptr<SliceSource> TailSliceSource::Clone() const {
  if (frozen_) {
    return std::unique_ptr<SliceSource>(new TailSliceSource(
        block_, num_slices_, bits_, boundary_, /*frozen=*/true));
  }
  auto copy = std::make_unique<TailSliceSource>(num_slices_, block_->capacity,
                                                bits_);
  std::memcpy(copy->block_->words, block_->words,
              static_cast<size_t>(num_slices_) * block_->stride *
                  sizeof(Word));
  return copy;
}

std::unique_ptr<SliceSource> TailSliceSource::Freeze() const {
  if (frozen_) return Clone();
  std::vector<Word> boundary;
  if (bits_ % BitVector::kWordBits != 0) {
    const size_t last = bits_ / BitVector::kWordBits;
    boundary.resize(num_slices_);
    for (uint32_t s = 0; s < num_slices_; ++s) boundary[s] = Words(s)[last];
  }
  return std::unique_ptr<SliceSource>(new TailSliceSource(
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
