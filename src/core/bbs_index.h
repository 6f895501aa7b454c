// The Bit-Sliced Bloom-Filtered Signature File (BBS) — the paper's core
// contribution (Section 2).
//
// Every transaction is encoded as an m-bit Bloom filter of its items (k hash
// functions per item); the file stores the *transpose*: m bit-slices, each
// with one bit per transaction. Counting the occurrences of an itemset
// (algorithm CountItemSet, Figure 1 of the paper) ANDs the slices selected by
// the itemset's query vector and popcounts the result. The count never
// misses a containing transaction (Lemma 3) and never underestimates
// (Lemma 4); it may overestimate (false drops).
//
// The structure is dynamic and persistent: Insert appends one transaction
// (bit per slice) without rebuilding anything, and Save/Load round-trips the
// index through a checksummed file.
//
// Counting hashes an itemset once (Hash: the deduplicated raw Bloom
// positions of its items) and then, per index, maps those positions through
// the index's fold and orders them sparsest slice first (CountHashed). A
// query over many indexes built from one BbsConfig — the segments of a
// SegmentedBbs or of a served snapshot — pays for the hash once, and its
// per-index scratch lives on the stack (util/small_array.h) unless the
// itemset's signature is longer than kInlinePositions.
//
// Slice words live behind a SliceSource (core/slice_source.h): the resident
// backend (one append-stable block for all slices, mutable, doubled when
// full, published in O(num_bits) by Freeze) or the mmap backend (zero-copy
// over the v2 aligned on-disk layout, read-only — OpenMmap). The query path
// is backend-agnostic and bit-identical across backends; only the resident
// backend supports Insert, and never through a Freeze() view.
//
// Thread safety: all const methods (the whole query path — CountItemSet and
// friends, ItemPositions, AndItemSlices, Fold, Save) are safe to call
// concurrently from any number of threads, including for items the index
// has never looked up: the only state they share is the hash family's
// position table, which is race-free by construction (core/bloom_hash.h).
// Insert/InsertAll require exclusive access, as usual. A Freeze() view may
// be read from any thread while the index it came from keeps inserting.

#ifndef BBSMINE_CORE_BBS_INDEX_H_
#define BBSMINE_CORE_BBS_INDEX_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/bbs_config.h"
#include "core/bloom_hash.h"
#include "core/slice_source.h"
#include "storage/transaction.h"
#include "util/bitvector.h"
#include "util/chunked_array.h"
#include "util/file_io.h"
#include "util/iomodel.h"
#include "util/small_array.h"
#include "util/status.h"

namespace bbsmine {

/// Positions the count path keeps on the stack per query; a longer itemset
/// signature (more distinct positions) spills its tables to the heap.
inline constexpr size_t kInlinePositions = 64;

/// A list of slice positions, inline up to kInlinePositions.
using PositionList = SmallArray<uint32_t, kInlinePositions>;

/// An itemset hashed once for counting (BbsIndex::Hash): the deduplicated
/// raw Bloom positions of all its items, ascending, in [0, config.num_bits).
/// Any index built from the same BbsConfig — folded or not, on any backend —
/// counts it without hashing again (BbsIndex::CountHashed).
class HashedItemset {
 public:
  size_t size() const { return raw_.size(); }
  const uint32_t* begin() const { return raw_.begin(); }
  const uint32_t* end() const { return raw_.end(); }

 private:
  friend class BbsIndex;
  explicit HashedItemset(size_t capacity) : raw_(capacity) {}

  PositionList raw_;
};

/// The bit-sliced Bloom-filtered signature file.
class BbsIndex {
 public:
  /// Validates `config` and constructs an empty index (resident backend,
  /// no slice block until the first Insert).
  static Result<BbsIndex> Create(const BbsConfig& config);

  // Deep-copies a writable index's slice words; Freeze() views and mmap
  // copies share the block or file mapping (SliceSource::Clone), which is
  // how snapshots of sealed mmap segments stay O(1). Copies share the
  // hash-position table.
  BbsIndex(const BbsIndex& other);
  BbsIndex& operator=(const BbsIndex& other);
  BbsIndex(BbsIndex&&) = default;
  BbsIndex& operator=(BbsIndex&&) = default;

  const BbsConfig& config() const { return config_; }

  /// Effective number of bit-slices: config().num_bits normally, or the fold
  /// target after Fold().
  uint32_t num_bits() const {
    return folded_bits_ != 0 ? folded_bits_ : config_.num_bits;
  }

  /// True if this index is a folded (MemBBS) view produced by Fold().
  bool is_folded() const { return folded_bits_ != 0; }

  /// Number of transactions inserted.
  size_t num_transactions() const { return num_transactions_; }

  /// True when the index accepts Insert: its slice words are in a
  /// resident block and it is not a Freeze() view.
  bool resident() const { return source_->writable(); }

  /// Backend name as reported by stats: "resident" or "mmap".
  const char* backend_name() const { return source_->name(); }

  /// Heap bytes pinned by the slice data: the full slice payload for the
  /// resident backend, 0 for mmap (pages are clean, file-backed, and
  /// reclaimable by the OS).
  size_t ApproxResidentBytes() const {
    return source_->ApproxResidentBytes();
  }

  /// Transactions this index can hold before an Insert moves its slice
  /// words to a bigger block: the block capacity of a writable index
  /// (ToTail, Load's capacity), 0 for mmap and Freeze() views.
  uint64_t append_capacity() const { return source_->append_capacity(); }

  /// Heap bytes this index holds, part by part (the daemon's STATS
  /// "memory" section). A Freeze() view shares its slice block and
  /// signature chunks with the index it came from and reports them too.
  struct MemoryBytes {
    uint64_t slices = 0;          ///< ApproxResidentBytes()
    uint64_t signature_bits = 0;  ///< per-transaction signature popcounts
    uint64_t popcounts = 0;       ///< cached slice popcounts
    uint64_t item_counts = 0;     ///< exact 1-itemset counts
  };
  MemoryBytes Memory() const;

  /// The hash family (its position memo is shared by every copy).
  const BloomHashFamily& hash_family() const { return family_; }

  /// Appends one transaction. `items` must be canonical. At
  /// append_capacity() the slices move to a block of twice the capacity;
  /// Freeze() views taken before keep reading the old one.
  /// Precondition: resident().
  void Insert(const Itemset& items);

  /// Bulk helper: inserts every transaction of `db` in order, into a block
  /// grown once to exactly num_transactions() + db.size().
  void InsertAll(const class TransactionDatabase& db);

  /// The effective hash positions (deduplicated, ascending) of `item`.
  void ItemPositions(ItemId item, std::vector<uint32_t>* out) const;

  /// Builds the m-bit signature / query vector of a canonical itemset
  /// (the bit at every hash position of every item is set).
  BitVector MakeSignature(const Itemset& items) const;

  /// Bit-slice at position `pos` (one bit per transaction). The view
  /// borrows the backend's words and stays valid while the index is alive.
  SliceView Slice(uint32_t pos) const { return source_->View(pos); }

  /// Cached popcount of slice `pos`.
  size_t SlicePopcount(uint32_t pos) const { return slice_popcount_[pos]; }

  /// Hashes `items` once for CountHashed on this index or on any other
  /// index built from the same config.
  HashedItemset Hash(const Itemset& items) const;

  /// CountItemSet of an itemset hashed by Hash (on this index or any index
  /// with the same config), without a result vector: the same estimate and
  /// the same `io` charges as CountItemSet(items, nullptr, io), with no
  /// re-hashing and no heap allocation unless the signature is longer than
  /// kInlinePositions.
  size_t CountHashed(const HashedItemset& query, IoStats* io = nullptr) const;

  /// Algorithm CountItemSet (paper Figure 1): estimated number of
  /// transactions containing `items`. Never less than the true support.
  /// If `result` is non-null it receives the resulting transaction bit
  /// vector (bit t set => transaction t is a potential container).
  /// If `io` is non-null, one sequential slice read is charged per slice
  /// touched (for the non-memory-resident cost model). Backends that do
  /// real I/O (mmap) skip the synthetic charge — see slice_source.h.
  size_t CountItemSet(const Itemset& items, BitVector* result = nullptr,
                      IoStats* io = nullptr) const;

  /// Threshold-aware CountItemSet: returns the exact estimate when it is at
  /// least `tau`; otherwise returns *some* value below tau (the computation
  /// aborts as soon as the estimate provably cannot reach the threshold,
  /// and `result` is left unspecified). Used by the filtering phase, which
  /// only distinguishes "reaches tau" from "does not".
  size_t CountItemSetAtLeast(const Itemset& items, uint64_t tau,
                             BitVector* result = nullptr,
                             IoStats* io = nullptr) const;

  /// CountItemSet restricted by a constraint slice (Section 3.4): only
  /// transactions whose bit is set in `constraint` are counted.
  size_t CountItemSetConstrained(const Itemset& items,
                                 const BitVector& constraint,
                                 BitVector* result = nullptr,
                                 IoStats* io = nullptr) const;

  /// Incremental extension used by the recursive miners: ANDs the slices of
  /// `item` into `result` (which must have num_transactions() bits) and
  /// returns the popcount of the updated vector. Equivalent to CountItemSet
  /// of (parent itemset + item) when `result` holds the parent's vector.
  size_t AndItemSlices(ItemId item, BitVector* result,
                       IoStats* io = nullptr) const;

  /// Whether exact 1-itemset counts are maintained (DualFilter support).
  bool tracks_item_counts() const { return config_.track_item_counts; }

  /// Number of distinct bits set in transaction `position`'s signature.
  /// Maintained on Insert; used by the approximate miner's false-drop
  /// probability model (core/approximate.h).
  uint32_t SignatureBits(size_t position) const {
    return signature_bits_[position];
  }

  /// Exact number of transactions containing `item` (0 for unseen items).
  /// Requires tracks_item_counts().
  uint64_t ExactItemCount(ItemId item) const;

  /// Builds a folded MemBBS view with `new_bits` slices: the slice at
  /// position p of this index is folded into position (p % new_bits)
  /// (preprocessing phase of the adaptive filter, Section 3.1). Counts from
  /// the folded index are still upper bounds on true support. The result is
  /// always resident, in a block of exactly its transactions — folding is
  /// the compaction path for cold segments.
  /// Precondition: 0 < new_bits <= num_bits().
  BbsIndex Fold(uint32_t new_bits) const;

  /// Writable resident copy, in one block with room for
  /// max(capacity, num_transactions()) transactions. The one way to make a
  /// writable copy of any index (block, mmap or Freeze() view): the
  /// snapshot manager's writer-side tail, a new segment opened at segment
  /// capacity, and an mmap'd segment that takes inserts. Inserts up to the
  /// capacity set bits in place and never move a word. Throws
  /// std::bad_alloc when the block cannot be allocated.
  BbsIndex ToTail(uint64_t capacity) const;

  /// An immutable view of this index as it is now, safe to read from any
  /// thread while this index keeps inserting. It costs O(num_bits()): it
  /// shares the slice words (block or mapping) and signature bits, copies
  /// the slice popcounts and exact item counts, and freezes the one
  /// partial word per slice of a resident block.
  BbsIndex Freeze() const;

  /// Size of one serialized slice, in bytes.
  uint64_t SliceBytes() const { return (num_transactions_ + 7) / 8; }

  /// Total serialized size of all slices, in bytes.
  uint64_t SerializedBytes() const {
    return static_cast<uint64_t>(num_bits()) * SliceBytes();
  }

  /// Approximate resident memory of the slice data, in bytes.
  size_t MemoryUsage() const { return source_->ApproxResidentBytes(); }

  /// Charges a full sequential pass over all slices to `io` (resident cost
  /// model) and hints the backend that a sequential scan is coming (mmap
  /// readahead).
  void ChargeFullScan(IoStats* io, uint32_t block_size = 4096) const;

  /// The v2 aligned on-disk byte layout (docs/FORMATS.md) as one string:
  /// checksummed metadata, then each slice's word array 64-byte-aligned so
  /// the file can be mmap'd and fed to the SIMD kernels directly. Save
  /// streams the same bytes to a file without building the string.
  std::string Serialize() const;

  /// Writes the index to `path` (atomic replace; see util/file_io.h) in
  /// slice-sized pieces, never holding the whole image. `file_crc`, when
  /// non-null, receives the CRC-32 of the complete file on success.
  Status Save(const std::string& path,
              const WriteFileOptions& options = WriteFileOptions(),
              uint32_t* file_crc = nullptr) const;

  /// Reads an index previously written by Save (resident backend) in
  /// bounded pieces, verifying the slice data checksum as it streams. The
  /// slices land straight in one block with room for max(capacity,
  /// transactions in the file), so the index costs its block and nothing
  /// per slice, and spare capacity takes Insert in place
  /// (append_capacity()). `file_crc`, when non-null, receives the CRC-32 of
  /// the complete file. Any magic but v2's, including the retired v1 packed
  /// layout's "BBSIDX01", is Corruption.
  static Result<BbsIndex> Load(const std::string& path,
                               uint64_t capacity = 0,
                               uint32_t* file_crc = nullptr);

  /// Opens a v2 index file zero-copy via mmap. Only the metadata prefix is
  /// validated and faulted in (magic, version, header checksum, structural
  /// bounds — including that the file covers every slice, so a truncated
  /// map fails cleanly instead of SIGBUSing); slice pages fault in on
  /// demand.
  static Result<BbsIndex> OpenMmap(const std::string& path);

  /// Structural equality (config, transactions, slice contents); backend
  /// agnostic, so an mmap'd index equals its resident twin.
  bool operator==(const BbsIndex& other) const;

 private:
  /// The v2 image in pieces to `out` (anything with
  /// Status Append(std::string_view)): Serialize and Save.
  template <typename Sink>
  Status WriteImage(Sink* out) const;

  /// An empty index over `source` (an empty resident block when null).
  BbsIndex(const BbsConfig& config, BloomHashFamily family, uint32_t folded,
           std::unique_ptr<SliceSource> source = nullptr);

  /// The writable block. Precondition: resident() (the block is the only
  /// writable backend).
  BlockSliceSource& WritableBlock() {
    assert(source_->writable() && "Insert requires a writable index");
    return static_cast<BlockSliceSource&>(*source_);
  }

  /// Words per slice: ceil(num_transactions / 64).
  size_t WordsPerSlice() const {
    return (num_transactions_ + BitVector::kWordBits - 1) /
           BitVector::kWordBits;
  }

  /// Per-transaction signature popcounts recomputed from the slice data.
  std::vector<uint32_t> ComputeSignatureBits() const;

  /// Rebuilds signature_bits_ by summing slice columns (after Fold/Load).
  void RecomputeSignatureBits();

  /// `query`'s distinct effective slice positions in this index (mapped
  /// through the fold), sorted by ascending slice popcount (sparsest-first
  /// AND order).
  PositionList PlanPositions(const HashedItemset& query) const;

  /// Shared implementation of the CountItemSet overloads. The AND loop
  /// aborts once the running count drops below `min_count` (the running
  /// count only shrinks, so the final estimate is provably below it too).
  /// With a null `result` the AND runs in a block-sized stack buffer.
  size_t CountWithSeed(const PositionList& positions, const BitVector* seed,
                       BitVector* result, IoStats* io,
                       uint64_t min_count = 1) const;

  BbsConfig config_;
  BloomHashFamily family_;
  uint32_t folded_bits_;  // 0 = unfolded
  size_t num_transactions_ = 0;
  std::unique_ptr<SliceSource> source_;  // owns the num_bits() slices
  std::vector<size_t> slice_popcount_;   // cached popcounts
  std::vector<uint64_t> item_counts_;    // exact 1-itemset counts (optional)
  // Per-transaction signature popcounts; append-only, so Freeze() shares a
  // prefix of them.
  ChunkedArray<uint32_t> signature_bits_;
};

}  // namespace bbsmine

#endif  // BBSMINE_CORE_BBS_INDEX_H_
