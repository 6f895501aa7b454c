#include "service/durability.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <chrono>

#include "util/fault_injector.h"

namespace bbsmine::service {

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status EnsureDirectory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::Ok();
  }
  return StatusFromErrno("cannot create durable directory: " + dir);
}

}  // namespace

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const DurabilityOptions& options, SegmentedBbs bootstrap,
    TransactionDatabase* db) {
  auto start = std::chrono::steady_clock::now();
  if (options.dir.empty()) {
    return Status::InvalidArgument("durable directory must not be empty");
  }
  BBSMINE_RETURN_IF_ERROR(EnsureDirectory(options.dir));

  std::unique_ptr<DurabilityManager> mgr(
      new DurabilityManager(options, std::move(bootstrap)));
  RecoveryInfo& info = mgr->recovery_;

  // 1. Checkpoint (or the caller's bootstrap when none exists).
  const std::string manifest = mgr->CheckpointPrefix() + ".manifest";
  if (FileExists(manifest)) {
    uint64_t epoch = 0;
    Result<SegmentedBbs> loaded =
        SegmentedBbs::Load(mgr->CheckpointPrefix(), &epoch);
    if (!loaded.ok()) return loaded.status();
    mgr->recovered_ = std::move(*loaded);
    info.checkpoint_loaded = true;
    info.checkpoint_epoch = epoch;
    info.checkpoint_transactions = mgr->recovered_.num_transactions();
    if (db != nullptr && FileExists(mgr->DbPath())) {
      Result<TransactionDatabase> loaded_db =
          TransactionDatabase::Load(mgr->DbPath());
      if (!loaded_db.ok()) return loaded_db.status();
      *db = std::move(*loaded_db);
    }
  }
  const uint64_t index_covered = mgr->recovered_.num_transactions();
  const uint64_t db_covered = db != nullptr ? db->size() : 0;

  // 2. WAL replay with per-store skip: each record's absolute position is
  // base + cumulative count, and it is applied only to stores that have
  // not already covered it. This absorbs every crash window of the
  // checkpoint protocol (between db save and manifest rename, between
  // manifest rename and WAL truncate).
  Result<uint64_t> base = WriteAheadLog::ReadBaseTxnCount(mgr->WalPath());
  if (base.ok()) {
    if (*base > index_covered) {
      return Status::Corruption(
          "WAL base " + std::to_string(*base) +
          " is ahead of the recovered index (" +
          std::to_string(index_covered) +
          " transactions): checkpoint files are stale or from another run");
    }
    if (db != nullptr && *base > db_covered) {
      return Status::Corruption(
          "WAL base " + std::to_string(*base) +
          " is ahead of the recovered database (" +
          std::to_string(db_covered) + " transactions)");
    }
    uint64_t cursor = *base;
    auto apply = [&](const std::vector<Itemset>& batch) -> Status {
      const uint64_t end = cursor + batch.size();
      if (cursor < index_covered && end > index_covered) {
        return Status::Corruption(
            "checkpoint boundary falls inside a WAL record (" +
            std::to_string(cursor) + ".." + std::to_string(end) + " vs " +
            std::to_string(index_covered) + ")");
      }
      if (db != nullptr && cursor < db_covered && end > db_covered) {
        return Status::Corruption(
            "database boundary falls inside a WAL record");
      }
      if (cursor >= index_covered) {
        BBSMINE_RETURN_IF_ERROR(mgr->recovered_.InsertBatch(batch));
      }
      if (db != nullptr && cursor >= db_covered) {
        for (const Itemset& items : batch) db->Append(items);
      }
      cursor = end;
      return Status::Ok();
    };
    Result<WriteAheadLog::ReplayStats> replayed =
        WriteAheadLog::Replay(mgr->WalPath(), apply);
    if (!replayed.ok()) return replayed.status();
    const uint64_t final_count = *base + replayed->transactions;
    if (final_count < index_covered ||
        (db != nullptr && final_count < db_covered)) {
      return Status::Corruption(
          "WAL ends at transaction " + std::to_string(final_count) +
          ", short of the recovered state — acknowledged records are "
          "missing");
    }
    info.wal_records_scanned = replayed->records;
    info.recovered_records = final_count - index_covered;
    info.torn_tail_bytes = replayed->torn_tail_bytes;
    info.wal_tail_truncated = replayed->tail_truncated;
    mgr->txns_since_checkpoint_ = final_count - index_covered;

    Result<WriteAheadLog> wal =
        WriteAheadLog::OpenForAppend(mgr->WalPath(), options.wal);
    if (!wal.ok()) return wal.status();
    mgr->wal_ = std::make_unique<WriteAheadLog>(std::move(*wal));
  } else if (base.status().code() == StatusCode::kNotFound) {
    // First start (or the WAL was checkpointed away and the process died
    // before Create — impossible with Truncate's atomic rename, so really
    // just first start). Without a WAL there is nothing to reconcile a
    // db/index divergence with.
    if (db != nullptr && db_covered != index_covered) {
      return Status::Corruption(
          "no WAL and database covers " + std::to_string(db_covered) +
          " transactions vs index " + std::to_string(index_covered));
    }
    Result<WriteAheadLog> wal =
        WriteAheadLog::Create(mgr->WalPath(), index_covered, options.wal);
    if (!wal.ok()) return wal.status();
    mgr->wal_ = std::make_unique<WriteAheadLog>(std::move(*wal));
  } else {
    return base.status();
  }

  if (db != nullptr &&
      db->size() != mgr->recovered_.num_transactions()) {
    return Status::Internal("recovery left database and index at different "
                            "transaction counts");
  }

  mgr->capacity_ = mgr->recovered_.segment_capacity();
  info.recovery_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return mgr;
}

Status DurabilityManager::LogInsert(const std::vector<Itemset>& batch) {
  BBSMINE_RETURN_IF_ERROR(wal_->Append(batch));
  txns_since_checkpoint_ += batch.size();
  return Status::Ok();
}

Status DurabilityManager::Checkpoint(const Snapshot& snap,
                                     const TransactionDatabase* db) {
  BBSMINE_RETURN_IF_ERROR(FaultInjector::Hit("checkpoint.save"));
  if (db != nullptr && db->size() != snap.num_transactions()) {
    return Status::Internal(
        "checkpoint snapshot and database disagree: " +
        std::to_string(snap.num_transactions()) + " vs " +
        std::to_string(db->size()));
  }
  if (snap.num_transactions() == 0) {
    // Nothing durable to write — snapshots never publish empty segments,
    // and the empty state is exactly what recovery bootstraps to. Restart
    // the WAL so its base stays in step (unless the replication floor
    // holds records a follower still needs).
    if (CanTruncateWal(snap.num_transactions())) {
      BBSMINE_RETURN_IF_ERROR(wal_->Truncate(0));
    } else {
      ++wal_retained_;
    }
    txns_since_checkpoint_ = 0;
    ++checkpoints_;
    return Status::Ok();
  }

  // Segment files first, then the database, then the manifest: its atomic
  // rename is the commit point, and until it lands the previous manifest
  // (if any) still describes a complete CRC-consistent generation.
  WriteFileOptions file_options;
  file_options.fault_point = "checkpoint";
  // Each segment streams to its file in slice-sized pieces, and the
  // manifest's per-file CRC is computed as the bytes go out.
  std::vector<SegmentFileInfo> infos(snap.num_segments());
  for (size_t idx = 0; idx < snap.num_segments(); ++idx) {
    infos[idx].num_transactions = snap.segment(idx).num_transactions();
    BBSMINE_RETURN_IF_ERROR(
        snap.segment(idx).Save(SegmentFilePath(CheckpointPrefix(), idx),
                               file_options, &infos[idx].crc));
  }
  if (db != nullptr) {
    BBSMINE_RETURN_IF_ERROR(db->Save(DbPath()));
  }
  BBSMINE_RETURN_IF_ERROR(WriteSegmentedManifest(
      CheckpointPrefix(), capacity_, snap.num_transactions(), snap.epoch(),
      infos, file_options));

  // Replication floor: Truncate restarts the whole file, so while a
  // follower still lacks records it stays untouched — recovery already
  // tolerates a WAL based earlier than the checkpoint (the per-store skip
  // above), so a retained log costs replay time, never correctness.
  if (CanTruncateWal(snap.num_transactions())) {
    BBSMINE_RETURN_IF_ERROR(wal_->Truncate(snap.num_transactions()));
  } else {
    ++wal_retained_;
  }
  txns_since_checkpoint_ = 0;
  ++checkpoints_;
  return Status::Ok();
}

bool DurabilityManager::CanTruncateWal(uint64_t covered) const {
  return !repl_retain_.load(std::memory_order_relaxed) ||
         repl_acked_txn_.load(std::memory_order_relaxed) >= covered;
}

}  // namespace bbsmine::service
