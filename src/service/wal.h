// Append-only write-ahead log for the INSERT verb.
//
// The durability contract of bbsmined is write-ahead logging: an INSERT is
// acknowledged only after its record is in the WAL (fsynced per policy), so
// a crash at any later point — before the in-memory index applied it,
// before the next checkpoint — loses nothing that was acknowledged.
//
// On-disk layout (little-endian, docs/FORMATS.md):
//
//   header:  magic "BBSWAL01" | u32 version | u32 crc32(payload)
//            payload: u64 base_txn_count
//   record:  u32 len | u32 crc32(payload) | payload
//            payload: u32 txn_count, then per transaction
//                     u32 item_count + item_count * u32 items
//
// `base_txn_count` is the number of transactions already covered by the
// checkpoint the log extends; record i's transactions are numbers
// base + (sum of earlier record sizes) onward. One record per INSERT
// request batch makes the request the atomic durability unit.
//
// Torn-tail tolerance (the crash-recovery invariant): a kill -9 leaves the
// file an exact prefix of the bytes appended, so at most the final record
// is incomplete. Replay() accepts a well-formed prefix, physically
// truncates a torn tail (an incomplete frame, or a CRC-bad record that
// extends exactly to EOF), and reports how many bytes it discarded. A bad
// record with *more data after it* cannot be a torn append — that is real
// corruption and Replay fails with Corruption rather than silently
// dropping acknowledged records.
//
// fsync policy trades durability domain for throughput: kAlways survives
// power loss per acknowledged insert; kEveryN bounds power-loss exposure
// to N inserts; kNone still survives process crashes (the page cache holds
// written bytes) but not power loss. All three survive kill -9 identically.
//
// Thread safety: none. The service serializes Append/Truncate under its
// write mutex, matching SegmentedBbs's writer contract.

#ifndef BBSMINE_SERVICE_WAL_H_
#define BBSMINE_SERVICE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/transaction.h"
#include "util/heap_bytes.h"
#include "util/socket.h"
#include "util/status.h"

namespace bbsmine::service {

enum class FsyncPolicy {
  kAlways,  ///< fsync after every append
  kEveryN,  ///< fsync after every N appends
  kNone,    ///< never fsync (crash-safe, not power-loss-safe)
};

struct WalOptions {
  FsyncPolicy policy = FsyncPolicy::kAlways;
  /// For kEveryN: appends between fsyncs.
  uint64_t sync_every = 8;
};

/// Parses a --fsync flag value: "always", "none", or "every=N" (N >= 1).
Status ParseFsyncSpec(const std::string& spec, WalOptions* options);

/// Renders the policy for reports/logs: "always", "none", "every:N".
std::string FsyncPolicyName(const WalOptions& options);

class WriteAheadLog {
 public:
  /// What Replay found in an existing log.
  struct ReplayStats {
    uint64_t base_txn_count = 0;
    uint64_t records = 0;          ///< valid records delivered
    uint64_t transactions = 0;     ///< transactions across those records
    uint64_t torn_tail_bytes = 0;  ///< bytes discarded from a torn tail
    bool tail_truncated = false;
  };

  /// Creates a fresh log at `path` (atomically replacing any existing
  /// file) whose records extend a state covering `base_txn_count`
  /// transactions.
  static Result<WriteAheadLog> Create(const std::string& path,
                                      uint64_t base_txn_count,
                                      const WalOptions& options);

  /// Opens an existing log for appending. The caller must have validated
  /// the file with Replay() first (which truncates any torn tail); this
  /// only re-checks the header and seeks to the end.
  static Result<WriteAheadLog> OpenForAppend(const std::string& path,
                                             const WalOptions& options);

  /// Reads just the header's base transaction count (recovery planning,
  /// before the replay pass). NotFound if the file does not exist.
  static Result<uint64_t> ReadBaseTxnCount(const std::string& path);

  /// Scans the log at `path`, invoking `apply` once per valid record with
  /// that record's transactions, in order. Physically truncates a torn
  /// tail; fails with Corruption for damage before the tail; NotFound if
  /// the file does not exist.
  static Result<ReplayStats> Replay(
      const std::string& path,
      const std::function<Status(const std::vector<Itemset>&)>& apply);

  /// One chunk of verbatim `[len | crc | payload]` record bytes, as read
  /// for replication shipping (the WALSTREAM verb). `data` concatenates
  /// whole records only; the first record's first transaction is number
  /// `start_txn`, and the chunk covers `transactions` transactions across
  /// `records` records. `log_end_txn` is where the log's valid prefix ends
  /// (start of any torn tail), so a caller can report shipping lag even
  /// when `data` is capped short of it.
  struct StreamChunk {
    uint64_t start_txn = 0;
    uint64_t transactions = 0;
    uint64_t records = 0;
    uint64_t log_end_txn = 0;
    /// Valid record bytes in the log from `start_txn` to the log's end —
    /// including `data` — so a caller can report byte lag past the cap.
    uint64_t bytes_remaining = 0;
    std::string data;
  };

  /// A resume position for repeated ReadRecordsFrom polls over a live log.
  /// A caller that hands the same cursor back on every call lets the scan
  /// seek straight to the first unread record instead of re-reading and
  /// re-parsing the whole file from its base — a tailing source polls tens
  /// of times a second, and the replication floor can hold the log long, so
  /// the steady-state poll must cost O(new records), not O(WAL). The cursor
  /// is validated before use (the header's base must match and the cached
  /// transaction must equal `from_txn`), so a checkpoint truncation — which
  /// atomically replaces the file with a new base — silently falls back to
  /// a full scan. Value-initialize and never touch the fields.
  struct StreamCursor {
    uint64_t base_txn = 0;  ///< log base the offset was computed against
    uint64_t txn = 0;       ///< first unread transaction
    uint64_t offset = 0;    ///< file offset of that transaction's record
  };

  /// Reads whole records starting at absolute transaction `from_txn` from
  /// the log at `path`, verbatim, up to ~`max_bytes` of record bytes (at
  /// least one record when any is available). Unlike Replay this NEVER
  /// truncates a torn tail — the writer may be mid-append; the scan just
  /// stops before it. Errors: NotFound when the file does not exist;
  /// InvalidArgument when `from_txn` precedes the log's base (the records
  /// were checkpointed away — the follower needs a fresh bootstrap) or
  /// lies past the log's end; Corruption when `from_txn` falls inside a
  /// record (batches are atomic — no valid watermark splits one).
  /// `cursor`, when non-null, is consulted to skip the already-streamed
  /// prefix and updated to the position after this chunk (left untouched
  /// on error).
  static Result<StreamChunk> ReadRecordsFrom(const std::string& path,
                                             uint64_t from_txn,
                                             uint64_t max_bytes,
                                             StreamCursor* cursor = nullptr);

  /// Validates and decodes concatenated `[len | crc | payload]` record
  /// bytes (the StreamChunk shape) into per-record transaction batches.
  /// Any CRC mismatch, malformed payload, or trailing partial record is
  /// Corruption — the stream ships whole records, so a receiver must
  /// reject the entire chunk rather than apply a prefix it cannot trust.
  static Status DecodeRecords(const std::string& data,
                              std::vector<std::vector<Itemset>>* batches);

  /// Appends one record holding `batch` and makes it durable per the fsync
  /// policy before returning. On failure the log is restored to its
  /// pre-append length (no torn record is left behind by a *reported*
  /// failure); if even that repair fails the log is marked broken and
  /// every later append fails fast.
  Status Append(const std::vector<Itemset>& batch);

  /// Explicit fsync (used at graceful shutdown regardless of policy).
  Status Sync();

  /// Atomically restarts the log after a checkpoint now covering
  /// `base_txn_count` transactions: a fresh header replaces the file in
  /// one rename.
  Status Truncate(uint64_t base_txn_count);

  uint64_t base_txn_count() const { return base_txn_count_; }
  uint64_t appended_records() const { return appended_records_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t fsyncs() const { return fsyncs_; }
  const std::string& path() const { return path_; }

  /// Heap bytes of the record buffer Append reuses.
  size_t buffer_bytes() const { return StringHeapBytes(record_); }

 private:
  WriteAheadLog() = default;

  Status SyncPerPolicy();

  std::string path_;
  WalOptions options_;
  OwnedFd fd_;
  uint64_t base_txn_count_ = 0;
  uint64_t offset_ = 0;  ///< current end-of-log file offset
  uint64_t appended_records_ = 0;
  uint64_t appended_bytes_ = 0;
  uint64_t appends_since_sync_ = 0;
  uint64_t fsyncs_ = 0;
  bool broken_ = false;
  // The framed record being appended; kept between appends (up to 1 MiB)
  // so a batch costs no allocation once the buffer has grown to fit it.
  std::string record_;
};

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_WAL_H_
