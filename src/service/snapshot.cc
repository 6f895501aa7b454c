#include "service/snapshot.h"

#include <algorithm>
#include <utility>

namespace bbsmine::service {

size_t Snapshot::ApproxResidentBytes() const {
  size_t total = 0;
  for (const auto& segment : state_->segments) {
    total += segment->ApproxResidentBytes();
  }
  return total;
}

size_t Snapshot::CountItemSet(const Itemset& items, IoStats* io) const {
  return CountSegments(*this, items, io);
}

SnapshotManager::SnapshotManager(const BbsConfig& config,
                                 uint64_t segment_capacity)
    : config_(config), segment_capacity_(segment_capacity) {}

Result<SnapshotManager> SnapshotManager::Create(const BbsConfig& config,
                                                uint64_t segment_capacity) {
  Result<BbsIndex> empty = BbsIndex::Create(config);
  if (!empty.ok()) return empty.status();
  return Adopt({}, std::move(empty).value(), segment_capacity);
}

Result<SnapshotManager> SnapshotManager::FromIndex(SegmentedBbs index) {
  const uint64_t capacity = index.segment_capacity();
  std::vector<BbsIndex> segments = std::move(index).TakeSegments();
  if (segments.empty()) {
    return Status::InvalidArgument("segmented index has no segments");
  }
  // Every segment but the last is sealed (full or not, it will never grow
  // again in `index`; adopting it as sealed only forgoes topping it up).
  // The last segment is the open tail.
  BbsIndex tail = std::move(segments.back());
  segments.pop_back();
  return Adopt(std::move(segments), std::move(tail), capacity);
}

Result<SnapshotManager> SnapshotManager::FromIndex(BbsIndex index,
                                                   uint64_t segment_capacity) {
  Result<BbsIndex> empty = BbsIndex::Create(index.config());
  if (!empty.ok()) return empty.status();
  std::vector<BbsIndex> sealed;
  if (index.num_transactions() > 0) sealed.push_back(std::move(index));
  return Adopt(std::move(sealed), std::move(empty).value(), segment_capacity);
}

Result<SnapshotManager> SnapshotManager::Adopt(std::vector<BbsIndex> sealed,
                                               BbsIndex tail,
                                               uint64_t segment_capacity) {
  if (segment_capacity == 0) {
    return Status::InvalidArgument("segment_capacity must be positive");
  }
  SnapshotManager out(tail.config(), segment_capacity);
  {
    std::lock_guard<std::mutex> lock(*out.mu_);
    for (BbsIndex& segment : sealed) {
      out.num_transactions_ += segment.num_transactions();
      out.sealed_.push_back(
          std::make_shared<const BbsIndex>(std::move(segment)));
      out.sealed_epoch_.push_back(out.epoch_);
    }
    out.num_transactions_ += tail.num_transactions();
    // A tail block with room for a whole segment (every SegmentedBbs tail,
    // loaded or built) is adopted as is, so the tail seals at capacity and
    // never grows; an mmap'd tail or a smaller block is copied into one.
    out.tail_ = std::make_unique<BbsIndex>(
        tail.append_capacity() >= segment_capacity
            ? std::move(tail)
            : tail.ToTail(segment_capacity));
    out.PublishLocked();
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

IndexMemory SnapshotManager::Memory() const {
  std::lock_guard<std::mutex> lock(*mu_);
  const std::shared_ptr<const Snapshot::State> published = published_->Load();
  IndexMemory out;
  std::vector<const void*> memos;  // each shared position memo once
  auto add = [&](const BbsIndex& index, uint64_t* slices) {
    const BbsIndex::MemoryBytes bytes = index.Memory();
    *slices += bytes.slices;
    out.signature_bits += bytes.signature_bits;
    out.popcounts += bytes.popcounts;
    out.item_counts += bytes.item_counts;
    const BloomHashFamily& family = index.hash_family();
    if (std::find(memos.begin(), memos.end(), family.memo_id()) ==
        memos.end()) {
      memos.push_back(family.memo_id());
      out.hash_positions += family.MemoBytes();
    }
  };
  for (const auto& segment : sealed_) add(*segment, &out.sealed_slices);
  add(*tail_, &out.tail_slices);
  if (published->segments.size() > sealed_.size()) {
    // The tail's published view: its own bytes are the frozen boundary
    // words and its copies of the popcounts and item counts.
    const BbsIndex::MemoryBytes view = published->segments.back()->Memory();
    out.tail_slices += view.slices - tail_->ApproxResidentBytes();
    out.popcounts += view.popcounts;
    out.item_counts += view.item_counts;
  }
  return out;
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
