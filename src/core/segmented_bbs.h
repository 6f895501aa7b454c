// A segmented BBS: the index partitioned into fixed-capacity transaction
// segments, each a self-contained BbsIndex.
//
// Motivation (paper Section 3.1, postprocessing phase): "we read sufficient
// vectors of BBS that fit into the memory ... we repeat this process by
// reading the next portion of BBS, and accumulating the counts". A
// monolithic bit-sliced file cannot be appended to on disk (every slice
// grows by one bit per transaction), but a segmented file can: only the
// open tail segment changes, sealed segments are immutable. Segments are
// also the unit of streaming — CountItemSet accumulates per-segment counts,
// touching one segment's slices at a time, which is exactly the chunked
// pass the adaptive algorithm describes.
//
// SegmentedBbs mirrors the counting API of BbsIndex and adds segment-level
// persistence (one file per segment plus a manifest).
//
// A count hashes the itemset once (BbsIndex::Hash) and every segment maps
// those raw positions through its own fold (CountSegmentRange, the one
// per-segment count loop, which SegmentedBbs, the service's Snapshot and
// its batch scheduler share). The query path is thread-safe: concurrent
// counting calls from many threads are fine; Insert requires exclusive
// access. Every segment is a resident block of segment capacity (the one
// the snapshot manager adopts and serves) or, after Load with the mmap
// backend, a zero-copy mapping.

#ifndef BBSMINE_CORE_SEGMENTED_BBS_H_
#define BBSMINE_CORE_SEGMENTED_BBS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/bbs_index.h"
#include "util/file_io.h"

namespace bbsmine {

/// Counts `query` over segments [first, last) of `segments` — a SegmentedBbs
/// or a service::Snapshot, anything with segment(i) — charging each
/// segment's slice reads to `io` (when non-null). `query` comes from Hash on
/// any of the segments (they share one config), so the range costs one
/// CountHashed per segment and no hashing or allocation per segment.
template <typename Segments>
size_t CountSegmentRange(const Segments& segments, const HashedItemset& query,
                         size_t first, size_t last, IoStats* io) {
  size_t total = 0;
  for (size_t idx = first; idx < last; ++idx) {
    total += segments.segment(idx).CountHashed(query, io);
  }
  return total;
}

/// Estimated number of transactions of `segments` containing `items`
/// (0 without segments): the itemset hashed once, then CountSegmentRange
/// over every segment.
template <typename Segments>
size_t CountSegments(const Segments& segments, const Itemset& items,
                     IoStats* io) {
  const size_t n = segments.num_segments();
  if (n == 0) return 0;
  return CountSegmentRange(segments, segments.segment(0).Hash(items), 0, n,
                           io);
}

/// One segment file's manifest entry: its transaction count and the CRC-32
/// of the complete serialized file. The CRC binds manifest and segment
/// files into one generation — a manifest paired with a stale or
/// mixed-generation segment set fails Load with Corruption instead of
/// silently combining files from different saves.
struct SegmentFileInfo {
  uint64_t num_transactions = 0;
  uint32_t crc = 0;
};

/// Path of segment `idx` under `prefix` ("<prefix>.seg<idx>").
std::string SegmentFilePath(const std::string& prefix, size_t idx);

/// Writes `<prefix>.manifest` (atomic replace) describing already-written
/// segment files. The manifest is the commit point of a multi-file save:
/// callers write every segment first, then publish them all at once here.
/// `epoch` stamps the generation (0 for offline saves; checkpoint saves
/// record the covered snapshot epoch).
Status WriteSegmentedManifest(const std::string& prefix, uint64_t capacity,
                              uint64_t num_transactions, uint64_t epoch,
                              const std::vector<SegmentFileInfo>& segments,
                              const WriteFileOptions& options =
                                  WriteFileOptions());

/// A BBS split into fixed-capacity segments.
class SegmentedBbs {
 public:
  /// Creates an empty segmented index; each segment holds up to
  /// `segment_capacity` transactions, in a block allocated when the
  /// segment opens. Fails on invalid config, zero capacity, or a capacity
  /// whose block cannot be allocated.
  static Result<SegmentedBbs> Create(const BbsConfig& config,
                                     uint64_t segment_capacity);

  const BbsConfig& config() const { return config_; }
  uint64_t segment_capacity() const { return segment_capacity_; }

  /// Total transactions across all segments.
  size_t num_transactions() const { return num_transactions_; }

  /// Number of segments (including the open tail segment).
  size_t num_segments() const { return segments_.size(); }

  /// Read access to one segment.
  const BbsIndex& segment(size_t idx) const { return segments_[idx]; }

  /// Moves the segments out (oldest first), leaving this index without
  /// any: the way a new owner adopts them without copying a slice.
  std::vector<BbsIndex> TakeSegments() &&;

  /// Appends one transaction (canonical itemset) to the tail segment,
  /// opening a new segment when the tail is full. Fails only if a new
  /// segment cannot be created.
  Status Insert(const Itemset& items);

  /// Inserts every transaction of `batch` in order. Fails only if a new
  /// segment cannot be created; on failure the transactions before the
  /// failing one remain inserted.
  Status InsertBatch(const std::vector<Itemset>& batch);

  /// Bulk helper: inserts every transaction of `db` in order (parity with
  /// BbsIndex::InsertAll). Fails only if a new segment cannot be created;
  /// on failure the transactions before the failing one remain inserted.
  Status InsertAll(const class TransactionDatabase& db);

  /// Range variant: inserts the `count` transactions of `db` starting at
  /// position `first`. Used by incremental workloads (e.g. one day's batch
  /// of a growing log) that append a suffix of a shared database.
  Status InsertAll(const class TransactionDatabase& db, size_t first,
                   size_t count);

  /// Estimated number of transactions containing `items`, accumulated
  /// segment by segment (never an underestimate, as for BbsIndex). If `io`
  /// is non-null each segment's touched slices are charged
  /// (CountSegments).
  size_t CountItemSet(const Itemset& items, IoStats* io = nullptr) const;

  /// Per-segment counts for `items` (diagnostics / targeted probing: the
  /// caller learns which segments can contain matches).
  std::vector<size_t> CountPerSegment(const Itemset& items) const;

  /// Exact occurrence count of a single item across segments.
  /// Requires config().track_item_counts.
  uint64_t ExactItemCount(ItemId item) const;

  /// Total serialized size of all segments, in bytes.
  uint64_t SerializedBytes() const;

  /// Writes the index as one `<prefix>.seg<N>` file per segment plus
  /// `<prefix>.manifest`. The segment files are written first and the
  /// manifest last (atomically), so a crash mid-save leaves either the
  /// previous complete generation or the new one — never a manifest
  /// pointing at missing or stale segments. Sealed segments whose files
  /// already exist are rewritten (callers may skip unchanged ones by
  /// managing prefixes per epoch).
  Status Save(const std::string& prefix) const;

  /// Reads an index previously written by Save (or by a checkpoint).
  /// With the resident backend, each segment streams into one block
  /// (BbsIndex::Load: full segments at their exact size, the last
  /// one with room for the manifest capacity, so inserts extend it in
  /// place), each segment file's CRC is verified against the manifest, and
  /// Load fails with Corruption on an epoch-inconsistent (mixed-generation)
  /// segment set. With the mmap backend, segments are
  /// opened zero-copy (BbsIndex::OpenMmap): each file's v2 header checksum
  /// and structural bounds are verified and its transaction count is
  /// cross-checked against the manifest, but the full-file CRC binding is
  /// deliberately skipped — verifying it would fault in every slice page
  /// and defeat lazy serving (docs/FORMATS.md covers the trade-off).
  /// `epoch`, when non-null, receives the generation stamp the manifest
  /// was saved with.
  static Result<SegmentedBbs> Load(
      const std::string& prefix, uint64_t* epoch = nullptr,
      IndexBackend backend = IndexBackend::kResident);

  /// Fold compaction of one sealed segment (cold-tier rewrite): replaces
  /// segment `idx` with its Fold(new_bits) image, a resident block. Counts from
  /// the folded segment remain upper bounds, so the filter-and-refine
  /// pipeline keeps working; the segment's serialized size shrinks by
  /// roughly num_bits/new_bits. Fails on the open tail segment (it still
  /// takes inserts at full width), on an already-narrower segment, or on
  /// an out-of-range target.
  Status FoldSegment(size_t idx, uint32_t new_bits);

  bool operator==(const SegmentedBbs& other) const;

 private:
  SegmentedBbs(const BbsConfig& config, uint64_t segment_capacity)
      : config_(config), segment_capacity_(segment_capacity) {}

  /// `segment` copied into a block of segment capacity (BbsIndex::ToTail),
  /// or OutOfRange when that block cannot be allocated.
  Result<BbsIndex> WritableTail(const BbsIndex& segment) const;

  Status AppendSegment();

  BbsConfig config_;
  uint64_t segment_capacity_;
  size_t num_transactions_ = 0;
  std::vector<BbsIndex> segments_;
};

}  // namespace bbsmine

#endif  // BBSMINE_CORE_SEGMENTED_BBS_H_
