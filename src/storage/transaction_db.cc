#include "storage/transaction_db.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "util/crc32.h"
#include "util/file_io.h"

namespace bbsmine {

namespace {

constexpr char kMagic[8] = {'B', 'B', 'S', 'T', 'X', 'D', 'B', '1'};
constexpr uint32_t kFormatVersion = 1;

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t LoadU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const char* in) {
  return LoadU32(in) | static_cast<uint64_t>(LoadU32(in + 4)) << 32;
}

// Record items are read straight into their Itemset: the file stores them
// as little-endian uint32, the host's own layout.
static_assert(std::endian::native == std::endian::little &&
              sizeof(ItemId) == 4);

}  // namespace

uint64_t TidIndex::BlockSpan(size_t position, uint32_t block_size) const {
  uint64_t first = OffsetOf(position) / block_size;
  uint64_t last_byte = OffsetOf(position) + SizeOf(position) - 1;
  return last_byte / block_size - first + 1;
}

void DatabaseView::ForEach(
    IoStats* io, const std::function<void(const Transaction&)>& fn) const {
  if (io != nullptr) {
    io->sequential_reads += BlocksFor(serialized_bytes_, block_size_);
  }
  for (size_t begin = 0; begin < size_; begin += kChunkRecords) {
    const auto& chunk = *(*records_)[begin / kChunkRecords];
    const size_t end = std::min(kChunkRecords, size_ - begin);
    for (size_t i = 0; i < end; ++i) fn(chunk[i]);
  }
}

Tid TransactionDatabase::Append(Itemset items) {
  Tid tid = empty() ? 0 : At(size() - 1).tid + 1;
  AppendTransaction(Transaction{tid, std::move(items)});
  return tid;
}

void TransactionDatabase::AppendTransaction(Transaction txn) {
  Canonicalize(&txn.items);
  if (!txn.items.empty()) {
    item_universe_ = std::max(item_universe_, txn.items.back() + 1);
  }
  tid_index_.Append(RecordBytes(txn));
  records_.push_back(std::move(txn));
}

DatabaseView TransactionDatabase::Prefix(size_t n) const {
  DatabaseView view;
  view.records_ = records_.directory();
  view.size_ = n;
  view.serialized_bytes_ = tid_index_.PrefixBytes(n);
  view.block_size_ = block_size_;
  return view;
}

TransactionDatabase::MemoryBytes TransactionDatabase::Memory() const {
  MemoryBytes bytes;
  bytes.records = records_.StorageBytes();
  Prefix().ForEach(nullptr, [&](const Transaction& txn) {
    bytes.records += txn.items.capacity() * sizeof(ItemId);
  });
  bytes.tid_offsets = tid_index_.StorageBytes();
  return bytes;
}

Itemset TransactionDatabase::DistinctItems() const {
  Itemset all;
  ForEach(nullptr, [&](const Transaction& txn) {
    all.insert(all.end(), txn.items.begin(), txn.items.end());
  });
  Canonicalize(&all);
  return all;
}

const Transaction& TransactionDatabase::Probe(size_t position,
                                              IoStats* io) const {
  if (io != nullptr) {
    io->random_reads += tid_index_.BlockSpan(position, block_size_);
  }
  return At(position);
}

void TransactionDatabase::ChargeFullScan(IoStats* io) const {
  if (io != nullptr) {
    io->sequential_reads += BlocksFor(SerializedBytes(), block_size_);
  }
}

bool TransactionDatabase::operator==(const TransactionDatabase& other) const {
  if (size() != other.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (!(At(i) == other.At(i))) return false;
  }
  return true;
}

template <typename Emit>
Status TransactionDatabase::SerializePayload(const Emit& emit) const {
  constexpr size_t kPieceBytes = 64 << 10;
  const DatabaseView view = Prefix();
  std::string piece;
  piece.reserve(kPieceBytes + 64);
  AppendU64(&piece, view.size());
  AppendU32(&piece, item_universe_);
  AppendU32(&piece, block_size_);
  for (size_t i = 0; i < view.size(); ++i) {
    const Transaction& txn = view.At(i);
    AppendU64(&piece, txn.tid);
    AppendU32(&piece, static_cast<uint32_t>(txn.items.size()));
    for (ItemId item : txn.items) AppendU32(&piece, item);
    if (piece.size() >= kPieceBytes) {
      BBSMINE_RETURN_IF_ERROR(emit(std::string_view(piece)));
      piece.clear();
    }
  }
  return emit(std::string_view(piece));
}

Status TransactionDatabase::Save(const std::string& path) const {
  // The header's CRC covers the payload after it, so one pass over the
  // records computes it and a second streams them out, one bounded piece
  // at a time.
  uint32_t crc = 0;
  BBSMINE_RETURN_IF_ERROR(SerializePayload([&](std::string_view piece) {
    crc = Crc32(piece, crc);
    return Status::Ok();
  }));
  Result<FileWriter> out = FileWriter::Open(path);
  if (!out.ok()) return out.status();
  std::string header(kMagic, sizeof(kMagic));
  AppendU32(&header, kFormatVersion);
  AppendU32(&header, crc);
  BBSMINE_RETURN_IF_ERROR(out->Append(header));
  BBSMINE_RETURN_IF_ERROR(SerializePayload(
      [&](std::string_view piece) { return out->Append(piece); }));
  return out->Commit();
}

Result<TransactionDatabase> TransactionDatabase::Load(
    const std::string& path) {
  Result<FileReader> in = FileReader::Open(path);
  if (!in.ok()) return in.status();
  char header[sizeof(kMagic) + 8];
  if (in->size() < sizeof(header)) {
    return Status::Corruption("bad magic in " + path);
  }
  BBSMINE_RETURN_IF_ERROR(in->Read(header, sizeof(header), "header"));
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  const uint32_t version = LoadU32(header + sizeof(kMagic));
  const uint32_t expected_crc = LoadU32(header + sizeof(kMagic) + 4);
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(version));
  }

  // The payload is parsed as it streams in and checksummed on the way; the
  // database is returned only once the checksum over all of it matches.
  uint32_t crc = 0;
  auto read = [&](void* dst, size_t size, const char* what) -> Status {
    BBSMINE_RETURN_IF_ERROR(in->Read(dst, size, what));
    crc = Crc32(dst, size, crc);
    return Status::Ok();
  };
  constexpr uint64_t kMinRecordBytes = 8 + 4;
  TransactionDatabase db;
  Status parsed = [&]() -> Status {
    char fixed[16];
    BBSMINE_RETURN_IF_ERROR(read(fixed, sizeof(fixed), "payload"));
    const uint64_t count = LoadU64(fixed);
    const uint32_t universe = LoadU32(fixed + 8);
    const uint32_t block_size = LoadU32(fixed + 12);
    if (block_size == 0) {
      return Status::Corruption("zero block size in " + path);
    }
    // Every length field is checked against the bytes left before anything
    // is sized by it.
    if (count > in->remaining() / kMinRecordBytes) {
      return Status::Corruption("truncated record in " + path);
    }
    db.block_size_ = block_size;
    for (uint64_t i = 0; i < count; ++i) {
      char record[kMinRecordBytes];
      BBSMINE_RETURN_IF_ERROR(read(record, sizeof(record), "record"));
      const uint32_t num_items = LoadU32(record + 8);
      if (uint64_t{num_items} * sizeof(ItemId) > in->remaining()) {
        return Status::Corruption("truncated record items in " + path);
      }
      Transaction txn;
      txn.tid = LoadU64(record);
      txn.items.resize(num_items);
      BBSMINE_RETURN_IF_ERROR(read(txn.items.data(),
                                   num_items * sizeof(ItemId),
                                   "record items"));
      db.AppendTransaction(std::move(txn));
    }
    if (db.item_universe_ < universe) db.item_universe_ = universe;
    return Status::Ok();
  }();
  if (parsed.code() == StatusCode::kIoError) return parsed;
  // Whatever follows the records is covered by the checksum too, and a
  // payload that fails it reports the mismatch rather than what it broke.
  char rest[4096];
  while (in->remaining() > 0) {
    const size_t size =
        static_cast<size_t>(std::min<uint64_t>(sizeof(rest), in->remaining()));
    BBSMINE_RETURN_IF_ERROR(read(rest, size, "payload"));
  }
  if (crc != expected_crc) {
    return Status::Corruption("checksum mismatch in " + path);
  }
  if (!parsed.ok()) return parsed;
  return db;
}

}  // namespace bbsmine
