#include "core/segmented_bbs.h"

#include <new>
#include <string>

#include "storage/transaction_db.h"
#include "util/crc32.h"
#include "util/file_io.h"

namespace bbsmine {

namespace {

// "BBSSEG02": v2 adds a save-epoch stamp and per-segment {txn count, file
// CRC} entries so Load can prove the manifest and the segment files belong
// to the same save generation.
constexpr char kManifestMagic[8] = {'B', 'B', 'S', 'S', 'E', 'G', '0', '2'};
constexpr size_t kManifestFixedPayload = 32;  // capacity, count, txns, epoch
constexpr size_t kManifestPerSegment = 12;    // txn count u64 + file crc u32

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t ParseU32(const std::string& in, size_t* pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 4;
  return v;
}

uint64_t ParseU64(const std::string& in, size_t* pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 8;
  return v;
}

}  // namespace

std::string SegmentFilePath(const std::string& prefix, size_t idx) {
  return prefix + ".seg" + std::to_string(idx);
}

Status WriteSegmentedManifest(const std::string& prefix, uint64_t capacity,
                              uint64_t num_transactions, uint64_t epoch,
                              const std::vector<SegmentFileInfo>& segments,
                              const WriteFileOptions& options) {
  std::string payload;
  payload.reserve(kManifestFixedPayload +
                  kManifestPerSegment * segments.size());
  AppendU64(&payload, capacity);
  AppendU64(&payload, segments.size());
  AppendU64(&payload, num_transactions);
  AppendU64(&payload, epoch);
  for (const SegmentFileInfo& info : segments) {
    AppendU64(&payload, info.num_transactions);
    AppendU32(&payload, info.crc);
  }

  std::string file;
  file.append(kManifestMagic, sizeof(kManifestMagic));
  AppendU32(&file, Crc32(payload));
  file += payload;
  return WriteBinaryFile(prefix + ".manifest", file, options);
}

Result<SegmentedBbs> SegmentedBbs::Create(const BbsConfig& config,
                                          uint64_t segment_capacity) {
  if (segment_capacity == 0) {
    return Status::InvalidArgument("segment_capacity must be positive");
  }
  // Validates the config by building the first segment.
  SegmentedBbs out(config, segment_capacity);
  BBSMINE_RETURN_IF_ERROR(out.AppendSegment());
  return out;
}

Result<BbsIndex> SegmentedBbs::WritableTail(const BbsIndex& segment) const {
  try {
    return segment.ToTail(segment_capacity_);
  } catch (const std::bad_alloc&) {
    return Status::OutOfRange("cannot allocate a segment of " +
                              std::to_string(segment_capacity_) +
                              " transactions");
  }
}

Status SegmentedBbs::AppendSegment() {
  Result<BbsIndex> segment = BbsIndex::Create(config_);
  if (!segment.ok()) return segment.status();
  Result<BbsIndex> tail = WritableTail(*segment);
  if (!tail.ok()) return tail.status();
  segments_.push_back(std::move(tail).value());
  return Status::Ok();
}

Status SegmentedBbs::Insert(const Itemset& items) {
  if (segments_.back().num_transactions() >= segment_capacity_) {
    BBSMINE_RETURN_IF_ERROR(AppendSegment());
  }
  // A tail opened from an mmap'd file is read-only; the first insert
  // copies it into a block of segment capacity (sealed segments stay
  // zero-copy).
  if (!segments_.back().resident()) {
    Result<BbsIndex> tail = WritableTail(segments_.back());
    if (!tail.ok()) return tail.status();
    segments_.back() = std::move(tail).value();
  }
  segments_.back().Insert(items);
  ++num_transactions_;
  return Status::Ok();
}

Status SegmentedBbs::InsertBatch(const std::vector<Itemset>& batch) {
  for (const Itemset& items : batch) BBSMINE_RETURN_IF_ERROR(Insert(items));
  return Status::Ok();
}

Status SegmentedBbs::InsertAll(const TransactionDatabase& db) {
  return InsertAll(db, 0, db.size());
}

Status SegmentedBbs::InsertAll(const TransactionDatabase& db, size_t first,
                               size_t count) {
  if (first > db.size() || count > db.size() - first) {
    return Status::OutOfRange("InsertAll range past end of database");
  }
  for (size_t t = first; t < first + count; ++t) {
    BBSMINE_RETURN_IF_ERROR(Insert(db.At(t).items));
  }
  return Status::Ok();
}

size_t SegmentedBbs::CountItemSet(const Itemset& items, IoStats* io) const {
  return CountSegments(*this, items, io);
}

std::vector<size_t> SegmentedBbs::CountPerSegment(const Itemset& items) const {
  const HashedItemset query = segments_.front().Hash(items);
  std::vector<size_t> counts;
  counts.reserve(segments_.size());
  for (const BbsIndex& segment : segments_) {
    counts.push_back(segment.CountHashed(query));
  }
  return counts;
}

uint64_t SegmentedBbs::ExactItemCount(ItemId item) const {
  uint64_t total = 0;
  for (const BbsIndex& segment : segments_) {
    total += segment.ExactItemCount(item);
  }
  return total;
}

uint64_t SegmentedBbs::SerializedBytes() const {
  uint64_t total = 0;
  for (const BbsIndex& segment : segments_) {
    total += segment.SerializedBytes();
  }
  return total;
}

Status SegmentedBbs::Save(const std::string& prefix) const {
  // Segments first, manifest last: the manifest's atomic rename is the
  // commit point, and until it lands any previous manifest keeps describing
  // the previous (still intact, CRC-verified) generation.
  std::vector<SegmentFileInfo> infos(segments_.size());
  for (size_t idx = 0; idx < segments_.size(); ++idx) {
    infos[idx].num_transactions = segments_[idx].num_transactions();
    BBSMINE_RETURN_IF_ERROR(segments_[idx].Save(
        SegmentFilePath(prefix, idx), WriteFileOptions(), &infos[idx].crc));
  }
  return WriteSegmentedManifest(prefix, segment_capacity_, num_transactions_,
                                /*epoch=*/0, infos);
}

std::vector<BbsIndex> SegmentedBbs::TakeSegments() && {
  num_transactions_ = 0;
  return std::move(segments_);
}

Status SegmentedBbs::FoldSegment(size_t idx, uint32_t new_bits) {
  if (idx >= segments_.size()) {
    return Status::OutOfRange("no segment " + std::to_string(idx));
  }
  if (idx + 1 == segments_.size()) {
    return Status::InvalidArgument(
        "cannot fold the open tail segment (it still takes inserts)");
  }
  BbsIndex& segment = segments_[idx];
  if (new_bits == 0 || new_bits > segment.num_bits()) {
    return Status::InvalidArgument("fold target must be in (0, num_bits]");
  }
  if (segment.is_folded() && segment.num_bits() <= new_bits) {
    return Status::InvalidArgument("segment already folded at least as far");
  }
  segment = segment.Fold(new_bits);
  return Status::Ok();
}

Result<SegmentedBbs> SegmentedBbs::Load(const std::string& prefix,
                                        uint64_t* epoch,
                                        IndexBackend backend) {
  Result<std::string> contents = ReadBinaryFile(prefix + ".manifest");
  if (!contents.ok()) return contents.status();
  const std::string& file = *contents;
  const size_t header = sizeof(kManifestMagic) + 4;
  if (file.size() < header + kManifestFixedPayload ||
      file.compare(0, sizeof(kManifestMagic), kManifestMagic,
                   sizeof(kManifestMagic)) != 0) {
    return Status::Corruption("bad manifest " + prefix);
  }
  size_t pos = sizeof(kManifestMagic);
  uint32_t expected_crc = ParseU32(file, &pos);
  if (Crc32(std::string_view(file.data() + pos, file.size() - pos)) !=
      expected_crc) {
    return Status::Corruption("manifest checksum mismatch " + prefix);
  }
  uint64_t capacity = ParseU64(file, &pos);
  uint64_t segment_count = ParseU64(file, &pos);
  uint64_t num_transactions = ParseU64(file, &pos);
  uint64_t save_epoch = ParseU64(file, &pos);
  if (capacity == 0 || segment_count == 0) {
    return Status::Corruption("degenerate manifest " + prefix);
  }
  if (file.size() !=
      header + kManifestFixedPayload + kManifestPerSegment * segment_count) {
    return Status::Corruption("manifest size disagrees with segment count " +
                              prefix);
  }

  std::vector<BbsIndex> segments;
  segments.reserve(segment_count);
  uint64_t loaded_transactions = 0;
  for (size_t idx = 0; idx < segment_count; ++idx) {
    uint64_t manifest_txns = ParseU64(file, &pos);
    uint32_t manifest_crc = ParseU32(file, &pos);
    const std::string path = SegmentFilePath(prefix, idx);
    Result<BbsIndex> segment = Status::Internal("unset");
    if (backend == IndexBackend::kMmap) {
      // Zero-copy open: header CRC + structural bounds only. The full-file
      // CRC below would fault in every slice page, so the mmap path trades
      // the whole-generation binding for lazy serving (see header comment).
      segment = BbsIndex::OpenMmap(path);
    } else {
      // One block per segment, filled straight from the file: full
      // segments get exactly their transactions' room, the last one the
      // manifest capacity, so inserts (WAL replay, the snapshot manager's
      // tail) extend it in place.
      const bool last = idx + 1 == segment_count;
      uint32_t file_crc = 0;
      segment = BbsIndex::Load(path, last ? capacity : manifest_txns,
                               &file_crc);
      if (!segment.ok()) return segment.status();
      // The file CRC ties this segment to this manifest's generation: a
      // segment left over from (or overwritten by) a different save fails
      // here even though it is a perfectly valid BbsIndex on its own.
      if (file_crc != manifest_crc) {
        return Status::Corruption("segment file " + path +
                                  " does not match manifest (stale or "
                                  "mixed-generation segment set)");
      }
    }
    if (!segment.ok()) return segment.status();
    if (segment->num_transactions() != manifest_txns) {
      return Status::Corruption("segment " + path +
                                " transaction count disagrees with manifest");
    }
    loaded_transactions += segment->num_transactions();
    segments.push_back(std::move(segment).value());
  }
  if (loaded_transactions != num_transactions) {
    return Status::Corruption("segment transaction counts disagree with "
                              "manifest for " + prefix);
  }

  if (epoch != nullptr) *epoch = save_epoch;
  SegmentedBbs out(segments.front().config(), capacity);
  out.segments_ = std::move(segments);
  out.num_transactions_ = loaded_transactions;
  return out;
}

bool SegmentedBbs::operator==(const SegmentedBbs& other) const {
  return config_ == other.config_ &&
         segment_capacity_ == other.segment_capacity_ &&
         segments_ == other.segments_;
}

}  // namespace bbsmine
