// SliceSource — the backend that owns a BBS index's slice words.
//
// The BBS query path (CountItemSet and friends) only ever consumes slices as
// spans of 64-bit words fed to the SIMD kernels. SliceSource abstracts where
// those words live:
//
//   * BlockSliceSource — the in-memory backend, and the only writable one:
//     every slice's words lie in one 64-byte-aligned block with room for a
//     capacity of bits per slice, and the writer sets a new transaction's
//     bits in place. A full block is replaced by one of twice the capacity,
//     so building costs amortized O(1) per bit and no allocation per slice.
//     Freeze() publishes it in O(num_slices) (see the class comment). It
//     charges the paper's synthetic I/O cost model (util/iomodel.h).
//   * MmapSliceSource — zero-copy over the v2 aligned on-disk layout
//     (docs/FORMATS.md): the sealed index file is mmap'd once and each
//     slice's word array is served straight from the mapping. The v2 format
//     64-byte-aligns every slice on disk, so the pointers satisfy the same
//     cache-line alignment the block guarantees and the kernels run
//     unmodified. Read-only; memory cost is page-cache residency, which
//     the OS reclaims under pressure — indexes larger than RAM stay
//     servable.
//
// Clone() is how snapshots share sealed segments: a writable block clone
// copies the words, frozen views and mmap clones share the underlying
// block or mapping (shared_ptr), so publishing a snapshot costs O(1)
// memory per sealed segment. Freeze() is how the writer publishes a view
// that stays valid while it keeps inserting.

#ifndef BBSMINE_CORE_SLICE_SOURCE_H_
#define BBSMINE_CORE_SLICE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/bitvector.h"
#include "util/bitvector_kernels.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace bbsmine {

/// Which SliceSource implementation backs an index loaded from disk.
enum class IndexBackend { kResident, kMmap };

/// Parses "resident" / "mmap" (the --index-backend flag values).
Result<IndexBackend> ParseIndexBackend(std::string_view name);

/// Flag-value name of a backend ("resident" / "mmap").
const char* IndexBackendName(IndexBackend backend);

/// A borrowed, read-only view of one bit-slice: `num_bits` bits (one per
/// transaction) in `num_words` 64-bit words. Bits past num_bits in the last
/// word are zero. The first `stable_words` words are read in place from
/// `words`; when that is one short of num_words (a published tail view,
/// see BlockSliceSource), the last word is `last` and words[num_words - 1]
/// must not be read. Valid only while the owning index is alive.
struct SliceView {
  using Word = BitVector::Word;

  const Word* words = nullptr;
  size_t num_words = 0;
  size_t num_bits = 0;
  size_t stable_words = 0;
  Word last = 0;

  Word word(size_t w) const { return w < stable_words ? words[w] : last; }

  bool Get(size_t i) const {
    return (word(i / BitVector::kWordBits) >> (i % BitVector::kWordBits)) &
           1u;
  }

  size_t Count() const;

  /// dst[0, num_words) &= this slice; returns the popcount of the result.
  size_t AndInto(Word* dst) const;

  /// dst[0, num_words) |= this slice.
  void OrInto(Word* dst) const;

  /// dst[0, num_words) = this slice.
  void CopyTo(Word* dst) const;
};

/// Owner of an index's slice words; see file comment for the backends.
class SliceSource {
 public:
  using Word = BitVector::Word;

  virtual ~SliceSource() = default;

  /// Backend name as reported in stats ("resident" / "mmap").
  virtual const char* name() const = 0;

  virtual uint32_t num_slices() const = 0;

  /// Bits per slice (= number of transactions).
  virtual size_t slice_bits() const = 0;

  /// Words per slice: ceil(slice_bits / 64).
  virtual size_t words_per_slice() const = 0;

  /// The 64-byte-aligned word array of slice `slice`. Only its first
  /// stable_words() words may be read.
  virtual const Word* Words(uint32_t slice) const = 0;

  /// Leading words of every slice that may be read in place through
  /// Words(): all of them, except in a published tail view whose last word
  /// is partial. The writer may still be setting bits in that word, so the
  /// view reads its frozen copy, Boundary(), instead.
  virtual size_t stable_words() const { return words_per_slice(); }

  /// The frozen last word of `slice`; meaningful only when stable_words()
  /// < words_per_slice().
  virtual Word Boundary(uint32_t /*slice*/) const { return 0; }

  SliceView View(uint32_t slice) const {
    const size_t stable = stable_words();
    return SliceView{Words(slice), words_per_slice(), slice_bits(), stable,
                     stable < words_per_slice() ? Boundary(slice) : 0};
  }

  /// Heap bytes pinned by the slice data. Zero for mmap (pages are clean,
  /// file-backed, and evictable — they are not committed memory).
  virtual size_t ApproxResidentBytes() const = 0;

  /// Whether slice reads should be billed to the synthetic IoStats cost
  /// model. False for mmap: those reads fault real pages, and charging the
  /// model too would double-count them (see storage/page_cache.h).
  virtual bool charges_synthetic_io() const = 0;

  /// Hint that all slices are about to be read front to back (full filter
  /// scan). No-op for resident; madvise readahead for mmap.
  virtual void AdviseSequentialScan() const {}

  /// Deep copy of a writable block; a frozen view or a mapping is shared.
  virtual std::unique_ptr<SliceSource> Clone() const = 0;

  /// An immutable view of the slices as they are now, for publication to
  /// readers while this source keeps growing. Clone() by default (which
  /// shares a mapping); BlockSliceSource shares its words instead.
  virtual std::unique_ptr<SliceSource> Freeze() const { return Clone(); }

  /// Whether Insert may append to these slices (a BlockSliceSource that is
  /// not a Freeze() view).
  virtual bool writable() const { return false; }

  /// Bits per slice a writable source holds before its next append moves
  /// the words to a bigger block; 0 for a read-only source.
  virtual size_t append_capacity() const { return 0; }
};

/// The append-stable in-memory backend. The words of every slice lie in
/// one block, `capacity` bits per slice, and the writer sets transaction
/// n's bits in place. Appending bit n never changes a bit below n, so
/// every full word below word n/64 is immutable once written.
///
/// Freeze() turns that into an O(num_slices) publication: the view shares
/// the block and reads the full words in place, and it keeps its own copy
/// of the one partial word per slice (the boundary word), because the
/// writer may still be setting bits there. When n % 64 == 0 there is no
/// partial word and the view copies nothing. A view is read-only.
///
/// Growing keeps that contract: an append at capacity copies each slice's
/// words into a fresh block of twice the capacity and the writer moves to
/// it. The old block is never written again, and the views frozen from it
/// keep it alive.
class BlockSliceSource final : public SliceSource {
 public:
  /// A writable source of `num_slices` slices holding `bits` zero bits
  /// each, with room for `capacity` (>= bits). Capacity 0 allocates no
  /// block.
  BlockSliceSource(uint32_t num_slices, size_t capacity, size_t bits);

  const char* name() const override { return "resident"; }
  uint32_t num_slices() const override { return num_slices_; }
  size_t slice_bits() const override { return bits_; }
  size_t words_per_slice() const override {
    return (bits_ + BitVector::kWordBits - 1) / BitVector::kWordBits;
  }
  const Word* Words(uint32_t slice) const override {
    return block_->words + slice * block_->stride;
  }
  size_t stable_words() const override {
    return boundary_.empty() ? words_per_slice() : words_per_slice() - 1;
  }
  Word Boundary(uint32_t slice) const override { return boundary_[slice]; }
  size_t ApproxResidentBytes() const override;
  bool charges_synthetic_io() const override { return true; }
  std::unique_ptr<SliceSource> Clone() const override;
  std::unique_ptr<SliceSource> Freeze() const override;
  bool writable() const override { return !frozen_; }
  size_t append_capacity() const override {
    return frozen_ ? 0 : block_->capacity;
  }

  /// Grows every slice by one zero bit, moving to a block of twice the
  /// capacity when this one is full.
  void AppendZeroBit() {
    if (bits_ == block_->capacity) Reserve(GrownCapacity());
    ++bits_;
  }

  /// Moves the words to a block of exactly `capacity` bits per slice when
  /// that is more than the current capacity; no-op otherwise.
  void Reserve(size_t capacity);

  Word* MutableWords(uint32_t slice) {
    return block_->words + slice * block_->stride;
  }

 private:
  /// The slice words: slice s at words + s * stride, zero-initialized.
  struct Block {
    Block(uint32_t num_slices, size_t capacity);
    ~Block();
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    void* raw;
    Word* words;    // 64-byte aligned; null for capacity 0
    size_t stride;  // words per slice, a multiple of 8 (one cache line)
    size_t capacity;
  };

  BlockSliceSource(std::shared_ptr<Block> block, uint32_t num_slices,
                   size_t bits, std::vector<Word> boundary, bool frozen)
      : block_(std::move(block)),
        num_slices_(num_slices),
        bits_(bits),
        boundary_(std::move(boundary)),
        frozen_(frozen) {}

  /// Twice the capacity, and at least one cache line of bits per slice.
  size_t GrownCapacity() const;

  /// A block of `capacity` bits per slice holding a copy of the
  /// words_per_slice() written words of every slice.
  std::shared_ptr<Block> CopyBlock(size_t capacity) const;

  std::shared_ptr<Block> block_;
  uint32_t num_slices_;
  size_t bits_;
  // Frozen views only: the last word of every slice when bits_ % 64 != 0.
  std::vector<Word> boundary_;
  bool frozen_;
};

/// Zero-copy backend over an mmap'd v2 index file. Read-only; the mapping
/// is shared between clones.
class MmapSliceSource final : public SliceSource {
 public:
  MmapSliceSource(std::shared_ptr<MmapFile> file, uint64_t data_offset,
                  uint64_t stride_bytes, uint32_t num_slices,
                  size_t words_per_slice, size_t slice_bits)
      : file_(std::move(file)),
        data_offset_(data_offset),
        stride_bytes_(stride_bytes),
        num_slices_(num_slices),
        words_per_slice_(words_per_slice),
        slice_bits_(slice_bits) {}

  const char* name() const override { return "mmap"; }
  uint32_t num_slices() const override { return num_slices_; }
  size_t slice_bits() const override { return slice_bits_; }
  size_t words_per_slice() const override { return words_per_slice_; }
  const Word* Words(uint32_t slice) const override {
    return reinterpret_cast<const Word*>(file_->data() + data_offset_ +
                                         static_cast<uint64_t>(slice) *
                                             stride_bytes_);
  }
  size_t ApproxResidentBytes() const override { return 0; }
  bool charges_synthetic_io() const override { return false; }
  void AdviseSequentialScan() const override;
  std::unique_ptr<SliceSource> Clone() const override;

  const std::shared_ptr<MmapFile>& file() const { return file_; }

 private:
  std::shared_ptr<MmapFile> file_;
  uint64_t data_offset_;
  uint64_t stride_bytes_;
  uint32_t num_slices_;
  size_t words_per_slice_;
  size_t slice_bits_;
};

}  // namespace bbsmine

#endif  // BBSMINE_CORE_SLICE_SOURCE_H_
