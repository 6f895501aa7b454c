// Checkpoint + WAL orchestration for bbsmined: crash-safe durability with
// bounded recovery time.
//
// Layout under the durable directory (--durable-dir):
//
//   DIR/checkpoint.manifest   SegmentedBbs manifest (epoch-stamped, v2)
//   DIR/checkpoint.seg<N>     one file per index segment
//   DIR/checkpoint.db         transaction database (only when MINE enabled)
//   DIR/wal                   the write-ahead log (service/wal.h)
//
// Write protocol (everything under the service write mutex):
//
//   INSERT      append one WAL record (fsynced per policy) -> apply to the
//               in-memory index/db -> acknowledge.
//   CHECKPOINT  write segment files -> write checkpoint.db -> write the
//               manifest (atomic rename = commit point) -> truncate the WAL
//               to base = checkpointed transaction count.
//
// Recovery (Open) inverts it: load the checkpoint (or adopt the caller's
// bootstrap state when none exists), replay the WAL suffix, truncate a torn
// tail. Because a crash can land between any two checkpoint steps, the
// on-disk index, db, and WAL may each cover a different prefix of the
// insert sequence; every WAL record carries its position (base + cumulative
// count), so replay applies each record only to the stores that have not
// seen it yet. Consistency is verified, not assumed — any state the write
// protocol cannot produce (WAL based past the checkpoint, a gap between
// checkpoint and WAL coverage, a checkpoint boundary splitting a record)
// fails with Corruption instead of guessing.
//
// Thread safety: none; the service serializes LogInsert/Checkpoint under
// its write mutex. Open runs before the service starts.

#ifndef BBSMINE_SERVICE_DURABILITY_H_
#define BBSMINE_SERVICE_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/segmented_bbs.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "storage/transaction_db.h"

namespace bbsmine::service {

struct DurabilityOptions {
  /// Directory holding checkpoint + WAL. Created if missing.
  std::string dir;
  /// WAL fsync policy (--fsync).
  WalOptions wal;
  /// Auto-checkpoint after this many inserted transactions since the last
  /// checkpoint; 0 disables automatic checkpoints (explicit CHECKPOINT verb
  /// and graceful shutdown still checkpoint).
  uint64_t checkpoint_every = 4096;
};

class DurabilityManager {
 public:
  /// What recovery found; surfaced in the service report and the startup
  /// log line.
  struct RecoveryInfo {
    bool checkpoint_loaded = false;
    uint64_t checkpoint_epoch = 0;
    uint64_t checkpoint_transactions = 0;
    /// Transactions replayed from the WAL into the index beyond the
    /// checkpoint.
    uint64_t recovered_records = 0;
    uint64_t wal_records_scanned = 0;
    uint64_t torn_tail_bytes = 0;
    bool wal_tail_truncated = false;
    double recovery_seconds = 0;
  };

  /// Recovers durable state from `options.dir`. `bootstrap` is the state
  /// the daemon would have started with absent durability (an empty index,
  /// or one loaded via --index): it is used as the base when the directory
  /// holds no checkpoint, and must then match the WAL's base count. `db`
  /// may be null (no MINE); when non-null its contents are replaced by the
  /// checkpointed database (if one exists) and extended by WAL replay.
  /// On success the recovered index is available via TakeRecoveredIndex().
  static Result<std::unique_ptr<DurabilityManager>> Open(
      const DurabilityOptions& options, SegmentedBbs bootstrap,
      TransactionDatabase* db);

  /// Moves the recovered index out (call exactly once, to seed the
  /// SnapshotManager).
  SegmentedBbs TakeRecoveredIndex() { return std::move(recovered_); }

  const RecoveryInfo& recovery() const { return recovery_; }

  /// Appends one INSERT batch to the WAL; durable per the fsync policy
  /// before returning. Call before applying the batch to the in-memory
  /// state — the WAL must never lag an acknowledged insert.
  Status LogInsert(const std::vector<Itemset>& batch);

  /// True when automatic checkpointing is due.
  bool ShouldCheckpoint() const {
    return options_.checkpoint_every > 0 &&
           txns_since_checkpoint_ >= options_.checkpoint_every;
  }

  /// Persists `snap` (and `db`, when non-null — its size must equal the
  /// snapshot's) as the new checkpoint, then truncates the WAL. The caller
  /// must hold the write mutex so `snap` is the newest state.
  Status Checkpoint(const Snapshot& snap, const TransactionDatabase* db);

  /// fsyncs the WAL regardless of policy (graceful-shutdown path).
  Status SyncWal() { return wal_->Sync(); }

  /// Arms the replication floor: once called, Checkpoint skips the WAL
  /// truncation while any record past the follower's acked watermark is
  /// still in the log — the WAL is the only copy of those records the
  /// follower can fetch, and Truncate (a whole-file restart) would drop
  /// them. Called by the replication source when a follower attaches, not
  /// at startup: a primary with no follower must keep truncating freely.
  void EnableReplicationRetention() {
    repl_retain_.store(true, std::memory_order_relaxed);
  }

  /// Advances the follower's durable watermark (monotonic max). One
  /// watermark means exactly ONE follower: the replication source rejects
  /// a second concurrent WALSTREAM connection, because a faster
  /// follower's acks would release WAL records a lagging follower still
  /// needs (and there is no bootstrap path once they are truncated away).
  void NoteReplicationAck(uint64_t txn) {
    uint64_t seen = repl_acked_txn_.load(std::memory_order_relaxed);
    while (txn > seen && !repl_acked_txn_.compare_exchange_weak(
                             seen, txn, std::memory_order_relaxed)) {
    }
  }

  uint64_t replication_acked_txn() const {
    return repl_acked_txn_.load(std::memory_order_relaxed);
  }
  /// Checkpoints whose WAL truncation was deferred by the floor.
  uint64_t wal_truncations_deferred() const { return wal_retained_; }
  std::string wal_path() const { return WalPath(); }

  // Lifetime counters for the service report.
  uint64_t wal_appends() const { return wal_->appended_records(); }
  uint64_t wal_bytes() const { return wal_->appended_bytes(); }
  uint64_t wal_fsyncs() const { return wal_->fsyncs(); }
  size_t wal_buffer_bytes() const { return wal_->buffer_bytes(); }
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t txns_since_checkpoint() const { return txns_since_checkpoint_; }
  uint64_t checkpoint_every() const { return options_.checkpoint_every; }
  std::string fsync_policy_name() const {
    return FsyncPolicyName(options_.wal);
  }

 private:
  DurabilityManager(const DurabilityOptions& options, SegmentedBbs recovered)
      : options_(options), recovered_(std::move(recovered)) {}

  /// False while the replication floor still needs WAL records that a
  /// truncation to `covered` would drop.
  bool CanTruncateWal(uint64_t covered) const;

  std::string CheckpointPrefix() const { return options_.dir + "/checkpoint"; }
  std::string DbPath() const { return options_.dir + "/checkpoint.db"; }
  std::string WalPath() const { return options_.dir + "/wal"; }

  DurabilityOptions options_;
  uint64_t capacity_ = 0;  ///< segment capacity; survives TakeRecoveredIndex
  SegmentedBbs recovered_;
  RecoveryInfo recovery_;
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t checkpoints_ = 0;
  uint64_t txns_since_checkpoint_ = 0;
  /// Replication floor (atomics: the source's stream thread reads/advances
  /// them while Checkpoint runs under the service write mutex).
  std::atomic<bool> repl_retain_{false};
  std::atomic<uint64_t> repl_acked_txn_{0};
  uint64_t wal_retained_ = 0;
};

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_DURABILITY_H_
