#include "storage/transaction_db.h"

#include <algorithm>
#include <cstdio>
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

bool ReadU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 4;
  *v = out;
  return true;
}

bool ReadU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(in[*pos + i])) << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

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

Status TransactionDatabase::Save(const std::string& path) const {
  // One buffer holds the whole image: the header is reserved up front and
  // its CRC (over everything after it) is patched in once the records are
  // written.
  constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 4;
  std::string file;
  file.reserve(kHeaderBytes + 16 + SerializedBytes());
  file.append(kMagic, sizeof(kMagic));
  AppendU32(&file, kFormatVersion);
  AppendU32(&file, 0);  // CRC placeholder
  AppendU64(&file, size());
  AppendU32(&file, item_universe_);
  AppendU32(&file, block_size_);
  ForEach(nullptr, [&](const Transaction& txn) {
    AppendU64(&file, txn.tid);
    AppendU32(&file, static_cast<uint32_t>(txn.items.size()));
    for (ItemId item : txn.items) AppendU32(&file, item);
  });
  const uint32_t crc = Crc32(std::string_view(file).substr(kHeaderBytes));
  for (int i = 0; i < 4; ++i) {
    file[kHeaderBytes - 4 + i] = static_cast<char>(crc >> (8 * i));
  }
  return WriteBinaryFile(path, file);
}

Result<TransactionDatabase> TransactionDatabase::Load(
    const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> fp(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (fp == nullptr) {
    return StatusFromErrno("cannot open for reading: " + path);
  }
  std::string file;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), fp.get())) > 0) {
    file.append(buf, n);
  }
  if (std::ferror(fp.get())) {
    return Status::IoError("read error: " + path);
  }

  if (file.size() < sizeof(kMagic) + 8 ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  size_t pos = sizeof(kMagic);
  uint32_t version = 0;
  uint32_t expected_crc = 0;
  if (!ReadU32(file, &pos, &version) || !ReadU32(file, &pos, &expected_crc)) {
    return Status::Corruption("truncated header in " + path);
  }
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(version));
  }
  std::string_view payload(file.data() + pos, file.size() - pos);
  if (Crc32(payload) != expected_crc) {
    return Status::Corruption("checksum mismatch in " + path);
  }

  TransactionDatabase db;
  uint64_t count = 0;
  uint32_t universe = 0;
  uint32_t block_size = 0;
  if (!ReadU64(file, &pos, &count) || !ReadU32(file, &pos, &universe) ||
      !ReadU32(file, &pos, &block_size)) {
    return Status::Corruption("truncated payload in " + path);
  }
  if (block_size == 0) {
    return Status::Corruption("zero block size in " + path);
  }
  db.block_size_ = block_size;
  for (uint64_t i = 0; i < count; ++i) {
    Transaction txn;
    uint64_t tid = 0;
    uint32_t num_items = 0;
    if (!ReadU64(file, &pos, &tid) || !ReadU32(file, &pos, &num_items)) {
      return Status::Corruption("truncated record in " + path);
    }
    txn.tid = tid;
    txn.items.reserve(num_items);
    for (uint32_t j = 0; j < num_items; ++j) {
      uint32_t item = 0;
      if (!ReadU32(file, &pos, &item)) {
        return Status::Corruption("truncated record items in " + path);
      }
      txn.items.push_back(item);
    }
    db.AppendTransaction(std::move(txn));
  }
  if (db.item_universe_ < universe) db.item_universe_ = universe;
  return db;
}

}  // namespace bbsmine
