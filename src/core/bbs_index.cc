#include "core/bbs_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <string_view>
#include <utility>

#include "storage/transaction_db.h"
#include "util/bitvector_kernels.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/mmap_file.h"

namespace bbsmine {

using Word = BitVector::Word;

namespace {

// v2: aligned layout (docs/FORMATS.md). Checksummed metadata block, then
// each slice's word array at a 64-byte-aligned file offset so the file can
// be mmap'd and handed to the SIMD kernels without copying.
constexpr char kMagicV2[8] = {'B', 'B', 'S', 'I', 'D', 'X', '0', '2'};
constexpr uint32_t kFormatVersionV2 = 2;

// Slice words go to and from the file (and its mapping) as they lie in
// memory, so the host's byte order must be the format's.
static_assert(std::endian::native == std::endian::little,
              "the v2 layout is little-endian");

/// On-disk alignment of every slice's word array (cache line / AVX-512).
constexpr uint64_t kSliceAlignment = 64;

/// Bytes of fixed v2 metadata between the 16-byte prelude and the
/// variable-length arrays (see the offsets table in docs/FORMATS.md).
constexpr uint64_t kV2FixedMetaBytes = 72;
constexpr uint64_t kV2ArraysOffset = 16 + kV2FixedMetaBytes;

constexpr uint64_t RoundUpToAlignment(uint64_t v) {
  return (v + kSliceAlignment - 1) / kSliceAlignment * kSliceAlignment;
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool ReadU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 4;
  *v = out;
  return true;
}

bool ReadU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

/// Parsed + structurally validated v2 header. Every field below is covered
/// by the header CRC, and the structural checks (exact offsets, strides and
/// file size) guarantee that slice reads stay inside the file — the mmap
/// path relies on that to never SIGBUS on a truncated map.
struct V2Header {
  BbsConfig config;
  uint32_t folded = 0;
  uint64_t num_transactions = 0;
  uint64_t words_per_slice = 0;
  uint64_t stride_bytes = 0;
  uint64_t data_offset = 0;
  uint64_t num_item_counts = 0;
  uint32_t data_crc = 0;

  uint32_t effective_bits() const {
    return folded != 0 ? folded : config.num_bits;
  }
};

/// `file` holds the file's first bytes: all of them through the slice data
/// offset when that offset lies inside the file (`file_size` bytes long).
Status ParseV2Header(std::string_view file, uint64_t file_size,
                     const std::string& path, V2Header* h) {
  if (file.size() < kV2ArraysOffset) {
    return Status::Corruption("truncated header in " + path);
  }
  size_t pos = 8;
  uint32_t version = 0;
  uint32_t header_crc = 0;
  uint32_t hash_kind = 0;
  uint32_t track = 0;
  if (!ReadU32(file, &pos, &version) || !ReadU32(file, &pos, &header_crc) ||
      !ReadU32(file, &pos, &h->config.num_bits) ||
      !ReadU32(file, &pos, &h->config.num_hashes) ||
      !ReadU32(file, &pos, &hash_kind) ||
      !ReadU64(file, &pos, &h->config.seed) ||
      !ReadU32(file, &pos, &track) || !ReadU32(file, &pos, &h->folded) ||
      !ReadU64(file, &pos, &h->num_transactions) ||
      !ReadU64(file, &pos, &h->words_per_slice) ||
      !ReadU64(file, &pos, &h->stride_bytes) ||
      !ReadU64(file, &pos, &h->data_offset) ||
      !ReadU64(file, &pos, &h->num_item_counts) ||
      !ReadU32(file, &pos, &h->data_crc)) {
    return Status::Corruption("truncated header in " + path);
  }
  if (version != kFormatVersionV2) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(version));
  }
  if (h->data_offset < kV2ArraysOffset || h->data_offset > file_size) {
    return Status::Corruption("slice data offset out of bounds in " + path);
  }
  // The header CRC covers everything between the prelude and the slice
  // data: fixed fields, the variable arrays, and the alignment padding —
  // so no metadata byte is unchecked.
  if (Crc32(std::string_view(file.data() + 16, h->data_offset - 16)) !=
      header_crc) {
    return Status::Corruption("header checksum mismatch in " + path);
  }

  if (hash_kind > static_cast<uint32_t>(HashKind::kModulo)) {
    return Status::Corruption("unknown hash kind in " + path);
  }
  h->config.hash_kind = static_cast<HashKind>(hash_kind);
  h->config.track_item_counts = track != 0;
  if (h->folded > h->config.num_bits) {
    return Status::Corruption("fold target exceeds num_bits in " + path);
  }

  // Structural checks. Bounds-check each array length before multiplying so
  // a crafted header cannot overflow the arithmetic below.
  const uint64_t avail = h->data_offset - kV2ArraysOffset;
  if (h->num_item_counts > avail / 8 ||
      h->num_transactions > avail / 4 + BitVector::kWordBits) {
    return Status::Corruption("metadata arrays exceed header in " + path);
  }
  const uint64_t expected_words =
      (h->num_transactions + BitVector::kWordBits - 1) / BitVector::kWordBits;
  if (h->words_per_slice != expected_words) {
    return Status::Corruption("slice word count mismatch in " + path);
  }
  if (h->stride_bytes != RoundUpToAlignment(h->words_per_slice *
                                            sizeof(Word))) {
    return Status::Corruption("bad slice stride in " + path);
  }
  const uint64_t meta_end = kV2ArraysOffset + 8 * h->num_item_counts +
                            8 * static_cast<uint64_t>(h->effective_bits()) +
                            4 * h->num_transactions;
  if (h->data_offset != RoundUpToAlignment(meta_end)) {
    return Status::Corruption("misaligned slice data offset in " + path);
  }
  const uint64_t data_bytes = file_size - h->data_offset;
  if (h->stride_bytes == 0) {
    if (data_bytes != 0) {
      return Status::Corruption("index size mismatch in " + path);
    }
  } else if (data_bytes / h->stride_bytes != h->effective_bits() ||
             data_bytes % h->stride_bytes != 0) {
    return Status::Corruption("index size mismatch in " + path);
  }
  return Status::Ok();
}

/// Reads the v2 metadata arrays (item counts, slice popcounts, signature
/// bits) that sit between the fixed header and the slice data.
Status ReadV2Arrays(std::string_view file, const std::string& path,
                    const V2Header& h, std::vector<uint64_t>* item_counts,
                    std::vector<size_t>* popcounts,
                    std::vector<uint32_t>* signature_bits) {
  size_t pos = kV2ArraysOffset;
  item_counts->resize(h.num_item_counts);
  for (uint64_t& count : *item_counts) {
    if (!ReadU64(file, &pos, &count)) {
      return Status::Corruption("truncated item counts in " + path);
    }
  }
  popcounts->resize(h.effective_bits());
  for (size_t& count : *popcounts) {
    uint64_t v = 0;
    if (!ReadU64(file, &pos, &v)) {
      return Status::Corruption("truncated slice popcounts in " + path);
    }
    count = static_cast<size_t>(v);
  }
  signature_bits->resize(h.num_transactions);
  for (uint32_t& bits : *signature_bits) {
    if (!ReadU32(file, &pos, &bits)) {
      return Status::Corruption("truncated signature bits in " + path);
    }
  }
  return Status::Ok();
}

/// Offset of the data_offset field in the fixed header.
constexpr size_t kDataOffsetField = 68;

/// Collects a WriteImage into one string (Serialize).
struct StringSink {
  std::string* out;
  Status Append(std::string_view bytes) {
    out->append(bytes);
    return Status::Ok();
  }
};

ChunkedArray<uint32_t> ToChunked(const std::vector<uint32_t>& values) {
  ChunkedArray<uint32_t> out;
  for (uint32_t v : values) out.push_back(v);
  return out;
}

}  // namespace

BbsIndex::BbsIndex(const BbsConfig& config, BloomHashFamily family,
                   uint32_t folded, std::unique_ptr<SliceSource> source)
    : config_(config),
      family_(std::move(family)),
      folded_bits_(folded),
      source_(std::move(source)) {
  if (source_ == nullptr) {
    source_ = std::make_unique<BlockSliceSource>(num_bits(), 0, 0);
  }
  slice_popcount_.resize(num_bits(), 0);
}

BbsIndex::BbsIndex(const BbsIndex& other)
    : config_(other.config_),
      family_(other.family_),
      folded_bits_(other.folded_bits_),
      num_transactions_(other.num_transactions_),
      source_(other.source_->Clone()),
      slice_popcount_(other.slice_popcount_),
      item_counts_(other.item_counts_),
      signature_bits_(other.signature_bits_) {}

BbsIndex& BbsIndex::operator=(const BbsIndex& other) {
  if (this != &other) {
    BbsIndex copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Result<BbsIndex> BbsIndex::Create(const BbsConfig& config) {
  Result<BloomHashFamily> family = BloomHashFamily::Create(
      config.num_bits, config.num_hashes, config.hash_kind, config.seed);
  if (!family.ok()) return family.status();
  return BbsIndex(config, std::move(family).value(), /*folded=*/0);
}

void BbsIndex::Insert(const Itemset& items) {
  BlockSliceSource& block = WritableBlock();
  const size_t position = num_transactions_;
  ++num_transactions_;
  block.AppendZeroBit();

  const size_t word = position / BitVector::kWordBits;
  const Word mask = Word{1} << (position % BitVector::kWordBits);
  uint32_t signature_bits = 0;
  for (ItemId item : items) {
    for (uint32_t raw : family_.Positions(item)) {
      uint32_t pos = folded_bits_ != 0 ? raw % folded_bits_ : raw;
      Word& bits = block.MutableWords(pos)[word];
      if ((bits & mask) == 0) {
        bits |= mask;
        ++slice_popcount_[pos];
        ++signature_bits;
      }
    }
    if (config_.track_item_counts) {
      if (item >= item_counts_.size()) item_counts_.resize(item + 1, 0);
      ++item_counts_[item];
    }
  }
  signature_bits_.push_back(signature_bits);
}

void BbsIndex::InsertAll(const TransactionDatabase& db) {
  WritableBlock().Reserve(num_transactions_ + db.size());
  for (size_t i = 0; i < db.size(); ++i) Insert(db.At(i).items);
}

void BbsIndex::ItemPositions(ItemId item, std::vector<uint32_t>* out) const {
  out->clear();
  for (uint32_t raw : family_.Positions(item)) {
    out->push_back(folded_bits_ != 0 ? raw % folded_bits_ : raw);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

BitVector BbsIndex::MakeSignature(const Itemset& items) const {
  BitVector signature(num_bits());
  for (ItemId item : items) {
    for (uint32_t raw : family_.Positions(item)) {
      signature.Set(folded_bits_ != 0 ? raw % folded_bits_ : raw);
    }
  }
  return signature;
}

HashedItemset BbsIndex::Hash(const Itemset& items) const {
  HashedItemset query(items.size() * family_.num_hashes());
  uint32_t* out = query.raw_.data();
  for (ItemId item : items) {
    const std::vector<uint32_t>& raw = family_.Positions(item);
    assert(raw.size() == family_.num_hashes());
    out = std::copy(raw.begin(), raw.end(), out);
  }
  uint32_t* first = query.raw_.data();
  std::sort(first, out);
  query.raw_.Truncate(static_cast<size_t>(std::unique(first, out) - first));
  return query;
}

PositionList BbsIndex::PlanPositions(const HashedItemset& query) const {
  PositionList positions(query.size());
  uint32_t* first = positions.data();
  if (folded_bits_ == 0) {
    std::copy(query.begin(), query.end(), first);
  } else {
    // Folding maps distinct raw positions onto shared slices: dedupe again.
    uint32_t* last = std::transform(
        query.begin(), query.end(), first,
        [this](uint32_t raw) { return raw % folded_bits_; });
    std::sort(first, last);
    positions.Truncate(static_cast<size_t>(std::unique(first, last) - first));
  }
  // Sparsest slice first: ANDing the most selective slice early shrinks the
  // intermediate result fastest.
  std::sort(first, first + positions.size(),
            [this](uint32_t a, uint32_t b) {
              return slice_popcount_[a] < slice_popcount_[b];
            });
  return positions;
}

// Words per block of the multi-way AND below: 1 KiB-word blocks keep a
// handful of slice streams cache-resident while giving the early-abort a
// fine enough grain to pay off.
static constexpr size_t kCountBlockWords = 1024;

size_t BbsIndex::CountWithSeed(const PositionList& positions,
                               const BitVector* seed, BitVector* result,
                               IoStats* io, uint64_t min_count) const {
  if (positions.empty()) {
    // Empty itemset: every transaction matches (optionally constrained).
    if (result == nullptr) {
      return seed != nullptr ? seed->Count() : num_transactions_;
    }
    if (seed != nullptr) {
      *result = *seed;
    } else {
      *result = BitVector(num_transactions_);
      result->SetAll();
    }
    return result->Count();
  }

  // One blocked pass over all selected slices at once instead of k full
  // sweeps: per block, the running AND is reduced while the streams are
  // still cache-hot. After each block the loop aborts as soon as even an
  // all-ones remainder could not lift the count back to min_count — the
  // dense early-abort the filter phase relies on. On abort `result` is only
  // partially written, which the CountItemSetAtLeast contract allows. The
  // blocks cover the stable words; a published tail's frozen boundary word
  // (SliceSource::Boundary) is ANDed last, on its own.
  // Trivial, so SmallArray value-initializes only the k operands in use.
  struct Operand {
    const Word* words;
    size_t touched;  // words streamed
  };
  const size_t k = positions.size();
  SmallArray<Operand, kInlinePositions> ops(k);
  for (size_t i = 0; i < k; ++i) ops[i].words = source_->Words(positions[i]);
  const Word* seed_words = seed != nullptr ? seed->words().data() : nullptr;

  Word* out_words = nullptr;
  if (result != nullptr) {
    result->Resize(num_transactions_);
    out_words = result->MutableWords();
  }
  // Without a result vector each block is ANDed here. Left uninitialized:
  // every block's first kernel call writes it before anything reads it, and
  // zeroing 8 KiB per call would cost more than a small segment's AND.
  std::array<Word, kCountBlockWords> block_buffer;
  const size_t stable = source_->stable_words();

  size_t count = 0;
  bool aborted = false;
  for (size_t base = 0; base < stable; base += kCountBlockWords) {
    const size_t len = std::min(kCountBlockWords, stable - base);
    Word* dst = out_words != nullptr ? out_words + base : block_buffer.data();
    uint64_t block;
    size_t op;
    if (seed_words != nullptr) {
      block = kernels::AssignAndCount(dst, seed_words + base,
                                      ops[0].words + base, len);
      ops[0].touched += len;
      op = 1;
    } else if (k >= 2) {
      block = kernels::AssignAndCount(dst, ops[0].words + base,
                                      ops[1].words + base, len);
      ops[0].touched += len;
      ops[1].touched += len;
      op = 2;
    } else {
      block = kernels::AssignAndCount(dst, ops[0].words + base,
                                      ops[0].words + base, len);
      ops[0].touched += len;
      op = 1;
    }
    // A block whose running AND goes all-zero skips its remaining slices:
    // further ANDs cannot resurrect bits and dst is already correct there.
    for (; op < k && block != 0; ++op) {
      block = kernels::AndCount(dst, ops[op].words + base, len);
      ops[op].touched += len;
    }
    count += static_cast<size_t>(block);

    const size_t bits_done = std::min((base + len) * BitVector::kWordBits,
                                      num_transactions_);
    const size_t remaining_bits = num_transactions_ - bits_done;
    if (count + remaining_bits < min_count) {
      aborted = true;
      break;
    }
  }
  if (!aborted && stable < WordsPerSlice()) {
    Word last = seed_words != nullptr ? seed_words[stable] : ~Word{0};
    for (size_t i = 0; i < k && last != 0; ++i) {
      last &= source_->Boundary(positions[i]);
      ++ops[i].touched;
    }
    if (out_words != nullptr) out_words[stable] = last;
    count += static_cast<size_t>(std::popcount(last));
  }

  if (io != nullptr) {
    // Charge only what was actually streamed (the abort above may leave
    // whole slice suffixes unread), capped at the slice's serialized size.
    // Backends that fault real pages (mmap) skip the synthetic block
    // charge — getrusage sees the true cost — but the words-streamed
    // instrumentation stays backend-agnostic.
    const bool bill = source_->charges_synthetic_io();
    for (const Operand& operand : ops) {
      if (bill) {
        uint64_t bytes = std::min<uint64_t>(
            static_cast<uint64_t>(operand.touched) * sizeof(Word),
            SliceBytes());
        io->sequential_reads += BlocksFor(bytes, 4096);
      }
      io->slice_words_touched += operand.touched;
    }
  }
  return count;
}

size_t BbsIndex::CountHashed(const HashedItemset& query, IoStats* io) const {
  return CountWithSeed(PlanPositions(query), /*seed=*/nullptr,
                       /*result=*/nullptr, io);
}

size_t BbsIndex::CountItemSet(const Itemset& items, BitVector* result,
                              IoStats* io) const {
  return CountWithSeed(PlanPositions(Hash(items)), /*seed=*/nullptr, result,
                       io);
}

size_t BbsIndex::CountItemSetAtLeast(const Itemset& items, uint64_t tau,
                                     BitVector* result, IoStats* io) const {
  const PositionList positions = PlanPositions(Hash(items));
  if (!positions.empty()) {
    // The sparsest selected slice (positions are popcount-ordered) bounds
    // the estimate from above: below tau means no AND is needed at all.
    size_t bound = slice_popcount_[positions.front()];
    if (bound < tau) {
      if (io != nullptr && source_->charges_synthetic_io()) {
        io->sequential_reads += BlocksFor(SliceBytes(), 4096);
      }
      return bound;
    }
  }
  return CountWithSeed(positions, /*seed=*/nullptr, result, io,
                       /*min_count=*/tau);
}

size_t BbsIndex::CountItemSetConstrained(const Itemset& items,
                                         const BitVector& constraint,
                                         BitVector* result,
                                         IoStats* io) const {
  assert(constraint.size() == num_transactions_);
  return CountWithSeed(PlanPositions(Hash(items)), &constraint, result, io);
}

size_t BbsIndex::AndItemSlices(ItemId item, BitVector* result,
                               IoStats* io) const {
  assert(result->size() == num_transactions_);
  std::vector<uint32_t> positions;
  ItemPositions(item, &positions);
  // ANDing zero slices leaves `result` unchanged, so the count is the
  // vector's own popcount — not 0.
  if (positions.empty()) return result->Count();
  size_t count = 0;
  size_t slices_read = 0;
  for (size_t i = 0; i < positions.size(); ++i) {
    count = Slice(positions[i]).AndInto(result->MutableWords());
    ++slices_read;
    if (count == 0) break;
  }
  if (io != nullptr && source_->charges_synthetic_io()) {
    // Charge only the slices the loop actually streamed; the count == 0
    // break above leaves the rest unread.
    io->sequential_reads += slices_read * BlocksFor(SliceBytes(), 4096);
  }
  return count;
}

uint64_t BbsIndex::ExactItemCount(ItemId item) const {
  assert(config_.track_item_counts);
  return item < item_counts_.size() ? item_counts_[item] : 0;
}

BbsIndex BbsIndex::Fold(uint32_t new_bits) const {
  assert(new_bits > 0 && new_bits <= num_bits());
  auto block = std::make_unique<BlockSliceSource>(new_bits, num_transactions_,
                                                  num_transactions_);
  for (uint32_t pos = 0; pos < num_bits(); ++pos) {
    Slice(pos).OrInto(block->MutableWords(pos % new_bits));
  }
  BbsIndex folded(config_, family_, new_bits, std::move(block));
  folded.num_transactions_ = num_transactions_;
  for (uint32_t pos = 0; pos < new_bits; ++pos) {
    folded.slice_popcount_[pos] = folded.Slice(pos).Count();
  }
  folded.item_counts_ = item_counts_;
  folded.RecomputeSignatureBits();
  return folded;
}

BbsIndex BbsIndex::ToTail(uint64_t capacity) const {
  auto tail = std::make_unique<BlockSliceSource>(
      num_bits(), std::max<uint64_t>(capacity, num_transactions_),
      num_transactions_);
  for (uint32_t pos = 0; pos < num_bits(); ++pos) {
    Slice(pos).CopyTo(tail->MutableWords(pos));
  }
  BbsIndex out(config_, family_, folded_bits_, std::move(tail));
  out.num_transactions_ = num_transactions_;
  out.slice_popcount_ = slice_popcount_;
  out.item_counts_ = item_counts_;
  out.signature_bits_ = signature_bits_;
  return out;
}

BbsIndex BbsIndex::Freeze() const {
  BbsIndex out(config_, family_, folded_bits_, source_->Freeze());
  out.num_transactions_ = num_transactions_;
  out.slice_popcount_ = slice_popcount_;
  out.item_counts_ = item_counts_;
  out.signature_bits_ = signature_bits_.SharedPrefix(num_transactions_);
  return out;
}

std::vector<uint32_t> BbsIndex::ComputeSignatureBits() const {
  std::vector<uint32_t> bits(num_transactions_, 0);
  const size_t wps = WordsPerSlice();
  for (uint32_t pos = 0; pos < num_bits(); ++pos) {
    const SliceView slice = Slice(pos);
    for (size_t w = 0; w < wps; ++w) {
      Word x = slice.word(w);
      while (x != 0) {
        const size_t t = w * BitVector::kWordBits +
                         static_cast<size_t>(std::countr_zero(x));
        ++bits[t];
        x &= x - 1;
      }
    }
  }
  return bits;
}

void BbsIndex::RecomputeSignatureBits() {
  signature_bits_ = ToChunked(ComputeSignatureBits());
}

void BbsIndex::ChargeFullScan(IoStats* io, uint32_t block_size) const {
  // A full filter pass reads every slice front to back — tell the backend
  // (mmap readahead) regardless of whether the synthetic model is billed.
  source_->AdviseSequentialScan();
  if (io != nullptr && source_->charges_synthetic_io()) {
    io->sequential_reads += BlocksFor(SerializedBytes(), block_size);
  }
}

BbsIndex::MemoryBytes BbsIndex::Memory() const {
  MemoryBytes bytes;
  bytes.slices = source_->ApproxResidentBytes();
  bytes.signature_bits = signature_bits_.StorageBytes();
  bytes.popcounts = slice_popcount_.capacity() * sizeof(size_t);
  bytes.item_counts = item_counts_.capacity() * sizeof(uint64_t);
  return bytes;
}

template <typename Sink>
Status BbsIndex::WriteImage(Sink* out) const {
  const uint32_t bits = num_bits();
  const size_t wps = WordsPerSlice();
  const uint64_t stride = RoundUpToAlignment(wps * sizeof(Word));
  const uint64_t meta_end = kV2ArraysOffset + 8 * item_counts_.size() +
                            8 * static_cast<uint64_t>(bits) +
                            4 * num_transactions_;
  const uint64_t data_offset = RoundUpToAlignment(meta_end);

  // One slice's on-disk bytes at a time: its words, zero-padded to the
  // 64-byte stride. The slice area's checksum is embedded in the metadata,
  // which precedes it, so a first pass computes it and a second writes.
  std::vector<Word> piece(stride / sizeof(Word), 0);
  auto slice_piece = [&](uint32_t pos) {
    Slice(pos).CopyTo(piece.data());  // words past wps stay zero
    return std::string_view(reinterpret_cast<const char*>(piece.data()),
                            stride);
  };
  uint32_t data_crc = 0;
  for (uint32_t pos = 0; pos < bits; ++pos) {
    data_crc = Crc32(slice_piece(pos), data_crc);
  }

  std::string meta;
  meta.reserve(static_cast<size_t>(data_offset - 16));
  AppendU32(&meta, config_.num_bits);
  AppendU32(&meta, config_.num_hashes);
  AppendU32(&meta, static_cast<uint32_t>(config_.hash_kind));
  AppendU64(&meta, config_.seed);
  AppendU32(&meta, config_.track_item_counts ? 1 : 0);
  AppendU32(&meta, folded_bits_);
  AppendU64(&meta, num_transactions_);
  AppendU64(&meta, wps);
  AppendU64(&meta, stride);
  AppendU64(&meta, data_offset);
  AppendU64(&meta, item_counts_.size());
  AppendU32(&meta, data_crc);
  for (uint64_t count : item_counts_) AppendU64(&meta, count);
  for (uint32_t pos = 0; pos < bits; ++pos) {
    AppendU64(&meta, slice_popcount_[pos]);
  }
  for (size_t t = 0; t < num_transactions_; ++t) {
    AppendU32(&meta, signature_bits_[t]);
  }
  meta.append(static_cast<size_t>(data_offset - meta_end), '\0');

  std::string prelude(kMagicV2, sizeof(kMagicV2));
  AppendU32(&prelude, kFormatVersionV2);
  AppendU32(&prelude, Crc32(meta));
  BBSMINE_RETURN_IF_ERROR(out->Append(prelude));
  BBSMINE_RETURN_IF_ERROR(out->Append(meta));
  for (uint32_t pos = 0; pos < bits; ++pos) {
    BBSMINE_RETURN_IF_ERROR(out->Append(slice_piece(pos)));
  }
  return Status::Ok();
}

std::string BbsIndex::Serialize() const {
  std::string file;
  file.reserve(static_cast<size_t>(kV2ArraysOffset + SerializedBytes()));
  StringSink sink{&file};
  (void)WriteImage(&sink);  // appending to a string cannot fail
  return file;
}

Status BbsIndex::Save(const std::string& path, const WriteFileOptions& options,
                      uint32_t* file_crc) const {
  Result<FileWriter> out = FileWriter::Open(path, options);
  if (!out.ok()) return out.status();
  BBSMINE_RETURN_IF_ERROR(WriteImage(&*out));
  const uint32_t crc = out->crc();
  BBSMINE_RETURN_IF_ERROR(out->Commit());
  if (file_crc != nullptr) *file_crc = crc;
  return Status::Ok();
}

Result<BbsIndex> BbsIndex::Load(const std::string& path, uint64_t capacity,
                                uint32_t* file_crc) {
  Result<FileReader> in = FileReader::Open(path);
  if (!in.ok()) return in.status();
  const uint64_t file_size = in->size();
  std::string head(std::min<uint64_t>(file_size, kV2ArraysOffset), '\0');
  BBSMINE_RETURN_IF_ERROR(in->Read(head.data(), head.size(), "header"));
  if (head.size() < sizeof(kMagicV2) ||
      std::memcmp(head.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  // The metadata arrays run up to the slice data. Read them only when that
  // offset lies inside the file; ParseV2Header rejects any other offset.
  if (head.size() == kV2ArraysOffset) {
    size_t pos = kDataOffsetField;
    uint64_t data_offset = 0;
    ReadU64(head, &pos, &data_offset);
    if (data_offset > kV2ArraysOffset && data_offset <= file_size) {
      head.resize(static_cast<size_t>(data_offset));
      BBSMINE_RETURN_IF_ERROR(in->Read(head.data() + kV2ArraysOffset,
                                       head.size() - kV2ArraysOffset,
                                       "header"));
    }
  }
  V2Header header;
  BBSMINE_RETURN_IF_ERROR(ParseV2Header(head, file_size, path, &header));
  std::vector<uint64_t> item_counts;
  std::vector<size_t> popcounts;
  std::vector<uint32_t> signature_bits;
  BBSMINE_RETURN_IF_ERROR(ReadV2Arrays(head, path, header, &item_counts,
                                       &popcounts, &signature_bits));

  Result<BloomHashFamily> family = BloomHashFamily::Create(
      header.config.num_bits, header.config.num_hashes,
      header.config.hash_kind, header.config.seed);
  if (!family.ok()) return family.status();

  const size_t n = header.num_transactions;
  auto slices = std::make_unique<BlockSliceSource>(
      header.effective_bits(), std::max<uint64_t>(capacity, n), n);
  BlockSliceSource* block = slices.get();
  BbsIndex index(header.config, std::move(family).value(), header.folded,
                 std::move(slices));
  index.num_transactions_ = n;
  index.item_counts_ = std::move(item_counts);

  // Slice by slice: the words go straight to their place in the block, and
  // the padding up to the stride to a scratch line, so the block's spare
  // words stay zero for later inserts. Both checksums see the bytes
  // exactly as the file holds them.
  const size_t wps = header.words_per_slice;
  const size_t slice_bytes = wps * sizeof(Word);
  const size_t pad_bytes = header.stride_bytes - slice_bytes;
  char pad[kSliceAlignment];
  uint32_t data_crc = 0;
  uint32_t whole_crc = file_crc != nullptr ? Crc32(head) : 0;
  for (uint32_t pos = 0; pos < index.num_bits(); ++pos) {
    Word* words = block->MutableWords(pos);
    BBSMINE_RETURN_IF_ERROR(in->Read(words, slice_bytes, "slice data"));
    BBSMINE_RETURN_IF_ERROR(in->Read(pad, pad_bytes, "slice data"));
    data_crc = Crc32(words, slice_bytes, data_crc);
    data_crc = Crc32(pad, pad_bytes, data_crc);
    if (file_crc != nullptr) {
      whole_crc = Crc32(words, slice_bytes, whole_crc);
      whole_crc = Crc32(pad, pad_bytes, whole_crc);
    }
    if (n % BitVector::kWordBits != 0) {
      // Bits past the last transaction are ignored.
      words[wps - 1] &= (Word{1} << (n % BitVector::kWordBits)) - 1;
    }
  }
  // Resident loads read every slice anyway, so the full data checksum is
  // verified here. The mmap path skips this (it would fault every page) and
  // relies on the header CRC + structural bounds instead.
  if (data_crc != header.data_crc) {
    return Status::Corruption("slice data checksum mismatch in " + path);
  }
  for (uint32_t pos = 0; pos < index.num_bits(); ++pos) {
    // The stored popcounts are what query planning trusts — cross-check
    // them against the actual slice data (load parity fix-up).
    if (index.Slice(pos).Count() != popcounts[pos]) {
      return Status::Corruption("slice popcount mismatch in " + path);
    }
  }
  index.slice_popcount_ = std::move(popcounts);
  if (index.ComputeSignatureBits() != signature_bits) {
    return Status::Corruption("signature bits mismatch in " + path);
  }
  index.signature_bits_ = ToChunked(signature_bits);
  if (file_crc != nullptr) *file_crc = whole_crc;
  return index;
}

Result<BbsIndex> BbsIndex::OpenMmap(const std::string& path) {
  Result<std::shared_ptr<MmapFile>> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  std::string_view file(reinterpret_cast<const char*>((*map)->data()),
                        (*map)->size());

  if (file.size() < sizeof(kMagicV2) ||
      std::memcmp(file.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }

  // Validates magic/version/header CRC and every structural bound — in
  // particular that the file covers all slices, so demand faults can never
  // run past the mapping (truncation is a clean Corruption, not a SIGBUS).
  // Only metadata pages are touched; slice data faults in lazily and its
  // checksum is deliberately not verified here.
  V2Header header;
  BBSMINE_RETURN_IF_ERROR(ParseV2Header(file, file.size(), path, &header));

  std::vector<uint64_t> item_counts;
  std::vector<size_t> popcounts;
  std::vector<uint32_t> signature_bits;
  BBSMINE_RETURN_IF_ERROR(ReadV2Arrays(file, path, header, &item_counts,
                                       &popcounts, &signature_bits));

  Result<BloomHashFamily> family = BloomHashFamily::Create(
      header.config.num_bits, header.config.num_hashes,
      header.config.hash_kind, header.config.seed);
  if (!family.ok()) return family.status();

  BbsIndex index(header.config, std::move(family).value(), header.folded);
  index.num_transactions_ = header.num_transactions;
  index.slice_popcount_ = std::move(popcounts);
  index.item_counts_ = std::move(item_counts);
  index.signature_bits_ = ToChunked(signature_bits);
  index.source_ = std::make_unique<MmapSliceSource>(
      *map, header.data_offset, header.stride_bytes, header.effective_bits(),
      header.words_per_slice, header.num_transactions);
  // Point queries touch scattered slices; suppress the kernel's default
  // readahead until a full scan announces itself (AdviseSequentialScan).
  (*map)->AdviseRandom(header.data_offset, file.size() - header.data_offset);
  return index;
}

bool BbsIndex::operator==(const BbsIndex& other) const {
  if (!(config_ == other.config_) || folded_bits_ != other.folded_bits_ ||
      num_transactions_ != other.num_transactions_ ||
      item_counts_ != other.item_counts_) {
    return false;
  }
  const size_t wps = WordsPerSlice();
  for (uint32_t pos = 0; pos < num_bits(); ++pos) {
    const SliceView a = Slice(pos);
    const SliceView b = other.Slice(pos);
    const size_t stable = std::min(a.stable_words, b.stable_words);
    if (stable > 0 &&
        std::memcmp(a.words, b.words, stable * sizeof(Word)) != 0) {
      return false;
    }
    for (size_t w = stable; w < wps; ++w) {
      if (a.word(w) != b.word(w)) return false;
    }
  }
  return true;
}

}  // namespace bbsmine
