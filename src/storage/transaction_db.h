// The transaction database: an append-only collection of transactions with a
// binary on-disk format and position-based record addressing.
//
// The database plays two roles in the paper's architecture:
//   * it is the ground truth that refinement (SequentialScan / Probe) checks
//     candidate patterns against, and
//   * it is the unit of I/O cost — Apriori re-scans it once per pass, the
//     Probe refinement fetches individual records through the TID-position
//     index ("the key of the index is the relative position of the
//     transaction from the beginning of the file", Section 3.2).
//
// For reproducibility on modern hardware the database is held in memory and
// every access that *would* hit disk on the paper's machine charges blocks to
// an IoStats (see util/iomodel.h). The on-disk format (Save/Load) is real,
// with a checksummed header, so databases can be persisted between runs.

#ifndef BBSMINE_STORAGE_TRANSACTION_DB_H_
#define BBSMINE_STORAGE_TRANSACTION_DB_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/transaction.h"
#include "util/chunked_array.h"
#include "util/iomodel.h"
#include "util/status.h"

namespace bbsmine {

/// Maps a record's ordinal position to its byte offset in the serialized
/// file, and byte offsets to block numbers. This is the paper's probe index.
/// It stores each record's end offset in a ChunkedArray, so the offsets of a
/// published prefix never change as records are appended.
class TidIndex {
 public:
  /// Records that the transaction at the next position occupies
  /// `record_bytes` bytes.
  void Append(uint64_t record_bytes) {
    ends_.push_back(total_bytes() + record_bytes);
  }

  size_t size() const { return ends_.size(); }

  /// Byte offset of record `position` in the data region.
  uint64_t OffsetOf(size_t position) const {
    return position == 0 ? 0 : ends_[position - 1];
  }

  /// Serialized size of record `position`, in bytes.
  uint64_t SizeOf(size_t position) const {
    return ends_[position] - OffsetOf(position);
  }

  /// First block (of `block_size` bytes) touched by record `position`.
  uint64_t BlockOf(size_t position, uint32_t block_size) const {
    return OffsetOf(position) / block_size;
  }

  /// Number of blocks spanned by record `position`.
  uint64_t BlockSpan(size_t position, uint32_t block_size) const;

  /// Total bytes of all records appended so far.
  uint64_t total_bytes() const {
    return size() == 0 ? 0 : ends_[size() - 1];
  }

  /// Total bytes of records [0, n). Safe while the writer appends, for any
  /// `n` already published.
  uint64_t PrefixBytes(size_t n) const {
    return n == 0 ? 0 : ChunkedArray<uint64_t>::Get(*ends_.directory(), n - 1);
  }

  /// Heap bytes of the offsets. Safe while the writer appends.
  size_t StorageBytes() const { return ends_.StorageBytes(); }

 private:
  ChunkedArray<uint64_t> ends_;
};

/// A read-only view of the database prefix [0, n), taken by
/// TransactionDatabase::Prefix. It shares the database's chunks: later
/// appends never move, change or race with what it sees, and it stays
/// valid after the database itself is gone.
class DatabaseView {
 public:
  /// An empty view.
  DatabaseView() = default;

  size_t size() const { return size_; }

  /// Record access by position, without I/O accounting.
  const Transaction& At(size_t position) const {
    return ChunkedArray<Transaction>::Get(*records_, position);
  }

  /// Full sequential scan of the prefix in position order, charging one
  /// sequential pass over its bytes to `io` (if non-null).
  void ForEach(IoStats* io,
               const std::function<void(const Transaction&)>& fn) const;

 private:
  friend class TransactionDatabase;

  std::shared_ptr<const ChunkedArray<Transaction>::Directory> records_;
  size_t size_ = 0;
  uint64_t serialized_bytes_ = 0;  // of the prefix's records
  uint32_t block_size_ = 4096;
};

/// Append-only transaction store. One writer appends; any number of readers
/// may call size() and Prefix() and work on the views concurrently. Every
/// other member is for the writer's thread (or for a database nobody is
/// appending to).
class TransactionDatabase {
 public:
  TransactionDatabase() = default;

  /// Appends a transaction with an auto-assigned TID (previous max + 1, or
  /// `tid_base` for the first record). Items are canonicalized.
  /// Returns the assigned TID.
  Tid Append(Itemset items);

  /// Appends a transaction with an explicit TID. Items are canonicalized.
  void AppendTransaction(Transaction txn);

  /// Number of transactions.
  size_t size() const { return records_.size(); }
  bool empty() const { return size() == 0; }

  /// The published prefix [0, size()) as an immutable view. Safe to call
  /// while another thread appends.
  DatabaseView Prefix() const { return Prefix(size()); }

  /// The prefix [0, n), for `n` <= size(). Safe while another thread
  /// appends.
  DatabaseView Prefix(size_t n) const;

  /// Direct record access by position, without I/O accounting. Use this for
  /// building indexes and in tests; mining code should use Probe/ForEach.
  const Transaction& At(size_t position) const { return records_[position]; }

  /// The number of distinct item ids that *may* appear: max item id + 1.
  /// Zero for an empty database.
  ItemId item_universe() const { return item_universe_; }

  /// The set of distinct items actually present, in ascending order.
  /// O(total items) — computed on demand.
  Itemset DistinctItems() const;

  /// Full sequential scan: calls `fn` for every transaction in order and
  /// charges one sequential pass over the file to `io` (if non-null).
  void ForEach(IoStats* io,
               const std::function<void(const Transaction&)>& fn) const {
    Prefix().ForEach(io, fn);
  }

  /// Random access by position through the TID index. Charges the record's
  /// block span as random reads to `io` (if non-null).
  const Transaction& Probe(size_t position, IoStats* io) const;

  /// Charges one full sequential pass over the file to `io` without visiting
  /// records; used by algorithms that stream the file in external phases.
  void ChargeFullScan(IoStats* io) const;

  /// The probe index (position -> offset/blocks).
  const TidIndex& tid_index() const { return tid_index_; }

  /// Serialized size of the data region, in bytes.
  uint64_t SerializedBytes() const { return tid_index_.total_bytes(); }

  /// Heap bytes of the database: the record chunks plus every record's
  /// items, and the TID offsets. Safe while another thread appends (it
  /// reads the published prefix).
  struct MemoryBytes {
    uint64_t records = 0;
    uint64_t tid_offsets = 0;
  };
  MemoryBytes Memory() const;

  /// Block size used for I/O accounting (and Save framing).
  uint32_t block_size() const { return block_size_; }
  void set_block_size(uint32_t block_size) { block_size_ = block_size; }

  /// Writes the database to `path` (header + records + CRC) in bounded
  /// pieces, never holding the whole image.
  Status Save(const std::string& path) const;

  /// Reads a database previously written by Save, parsing it in bounded
  /// pieces and checksumming the bytes as they go by. A checksum mismatch
  /// is Corruption and yields no database.
  static Result<TransactionDatabase> Load(const std::string& path);

  bool operator==(const TransactionDatabase& other) const;

 private:
  /// The Save payload (everything after the header) in bounded pieces,
  /// each passed to `emit(std::string_view) -> Status`.
  template <typename Emit>
  Status SerializePayload(const Emit& emit) const;

  /// Serialized size of one record: tid (8) + count (4) + items (4 each).
  static uint64_t RecordBytes(const Transaction& txn) {
    return 8 + 4 + 4 * static_cast<uint64_t>(txn.items.size());
  }

  // tid_index_ is appended before records_, whose size is the published
  // count: a reader that sees record n also sees its offsets.
  ChunkedArray<Transaction> records_;
  TidIndex tid_index_;
  ItemId item_universe_ = 0;
  uint32_t block_size_ = 4096;
};

}  // namespace bbsmine

#endif  // BBSMINE_STORAGE_TRANSACTION_DB_H_
