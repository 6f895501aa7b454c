#include "service/snapshot.h"

#include <utility>

namespace bbsmine::service {

size_t Snapshot::ApproxResidentBytes() const {
  size_t total = 0;
  for (const auto& segment : state_->segments) {
    total += segment->ApproxResidentBytes();
  }
  return total;
}

size_t Snapshot::CountItemSet(const Itemset& items, IoStats* io,
                              size_t num_threads) const {
  return CountSegments(*this, items, io, num_threads);
}

SnapshotManager::SnapshotManager(const BbsConfig& config,
                                 uint64_t segment_capacity)
    : config_(config), segment_capacity_(segment_capacity) {}

Result<SnapshotManager> SnapshotManager::Create(const BbsConfig& config,
                                                uint64_t segment_capacity) {
  if (segment_capacity == 0) {
    return Status::InvalidArgument("segment_capacity must be positive");
  }
  Result<BbsIndex> tail = BbsIndex::Create(config);
  if (!tail.ok()) return tail.status();
  SnapshotManager out(config, segment_capacity);
  out.tail_ = std::make_unique<BbsIndex>(tail->ToTail(segment_capacity));
  {
    std::lock_guard<std::mutex> lock(*out.mu_);
    out.PublishLocked();
  }
  return out;
}

Result<SnapshotManager> SnapshotManager::FromIndex(const SegmentedBbs& index) {
  Result<SnapshotManager> out =
      Create(index.config(), index.segment_capacity());
  if (!out.ok()) return out;
  {
    std::lock_guard<std::mutex> lock(*out->mu_);
    // Every segment but the last is sealed (full or not, it will never
    // grow again in `index`; adopting it as sealed only forgoes topping it
    // up). The last segment is the open tail: copy it into the
    // writer-private append-stable tail so future inserts extend it.
    for (size_t idx = 0; idx + 1 < index.num_segments(); ++idx) {
      out->sealed_.push_back(
          std::make_shared<const BbsIndex>(index.segment(idx)));
      out->sealed_epoch_.push_back(out->epoch_);
    }
    // The copy also materializes an mmap-backed tail (adopted sealed
    // segments above stay zero-copy — the BbsIndex copy shares the
    // mapping).
    *out->tail_ = index.segment(index.num_segments() - 1)
                      .ToTail(out->segment_capacity_);
    out->num_transactions_ = index.num_transactions();
    out->PublishLocked();
  }
  return out;
}

Result<SnapshotManager> SnapshotManager::FromIndex(const BbsIndex& index,
                                                   uint64_t segment_capacity) {
  Result<SnapshotManager> out = Create(index.config(), segment_capacity);
  if (!out.ok()) return out;
  {
    std::lock_guard<std::mutex> lock(*out->mu_);
    if (index.num_transactions() > 0) {
      out->sealed_.push_back(std::make_shared<const BbsIndex>(index));
      out->sealed_epoch_.push_back(out->epoch_);
      out->num_transactions_ = index.num_transactions();
    }
    out->PublishLocked();
  }
  return out;
}

Status SnapshotManager::MaybeSealLocked() {
  if (tail_->num_transactions() < segment_capacity_) return Status::Ok();
  Result<BbsIndex> fresh = BbsIndex::Create(config_);
  if (!fresh.ok()) return fresh.status();
  sealed_.push_back(std::make_shared<const BbsIndex>(std::move(*tail_)));
  sealed_epoch_.push_back(epoch_);
  *tail_ = fresh->ToTail(segment_capacity_);
  ++seals_;
  return Status::Ok();
}

size_t SnapshotManager::CompactColdSegments(const CompactionPolicy& policy) {
  if (!policy.enabled()) return 0;
  std::lock_guard<std::mutex> lock(*mu_);
  size_t folded = 0;
  for (size_t idx = 0; idx < sealed_.size(); ++idx) {
    const BbsIndex& segment = *sealed_[idx];
    if (segment.is_folded()) continue;
    if (policy.fold_bits >= segment.num_bits()) continue;
    if (epoch_ - sealed_epoch_[idx] < policy.cold_epochs) continue;
    // Replace the shared_ptr in place: snapshots already holding the
    // unfolded segment keep it alive; new acquisitions see the compact one.
    sealed_[idx] =
        std::make_shared<const BbsIndex>(segment.Fold(policy.fold_bits));
    ++folded;
  }
  if (folded > 0) {
    compactions_ += folded;
    PublishLocked();
  }
  return folded;
}

uint64_t SnapshotManager::compactions() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return compactions_;
}

uint64_t SnapshotManager::publications() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return publications_;
}

uint64_t SnapshotManager::seals() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return seals_;
}

void SnapshotManager::PublishLocked() {
  auto state = std::make_shared<Snapshot::State>();
  state->epoch = ++epoch_;
  state->num_transactions = num_transactions_;
  state->config = config_;
  state->segments = sealed_;  // shared by reference, never copied
  if (tail_->num_transactions() > 0) {
    // The view shares the tail's words and is retired automatically when
    // the last snapshot referencing it is released.
    state->segments.push_back(
        std::make_shared<const BbsIndex>(tail_->Freeze()));
  }
  published_->Store(std::move(state));
  ++publications_;
}

template <typename At>
Status SnapshotManager::InsertRange(size_t first, size_t last, const At& at) {
  std::lock_guard<std::mutex> lock(*mu_);
  for (size_t t = first; t < last; ++t) {
    // Publish what was absorbed so far even if a seal fails mid-batch.
    Status sealed = MaybeSealLocked();
    if (!sealed.ok()) {
      PublishLocked();
      return sealed;
    }
    tail_->Insert(at(t));
    ++num_transactions_;
  }
  PublishLocked();
  return Status::Ok();
}

Status SnapshotManager::Insert(const Itemset& items) {
  return InsertRange(0, 1, [&](size_t) -> const Itemset& { return items; });
}

Status SnapshotManager::InsertBatch(const std::vector<Itemset>& batch) {
  return InsertRange(0, batch.size(),
                     [&](size_t t) -> const Itemset& { return batch[t]; });
}

Status SnapshotManager::InsertAll(const TransactionDatabase& db) {
  return InsertAll(db, 0, db.size());
}

Status SnapshotManager::InsertAll(const TransactionDatabase& db, size_t first,
                                  size_t count) {
  if (first > db.size() || count > db.size() - first) {
    return Status::OutOfRange("InsertAll range past end of database");
  }
  return InsertRange(first, first + count, [&](size_t t) -> const Itemset& {
    return db.At(t).items;
  });
}

}  // namespace bbsmine::service
