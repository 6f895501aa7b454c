// Snapshot isolation over a segmented BBS: immutable read snapshots that
// let inserts run concurrently with counting queries.
//
// SegmentedBbs's own contract is "concurrent queries fine, Insert requires
// exclusive access" — good enough for batch mining, fatal for a service
// that must answer COUNT while absorbing INSERT traffic. The structural
// observation that fixes it: sealed segments are already immutable, and
// only the open tail segment ever mutates. So the manager keeps the
// mutable tail private to the writer and *publishes* an epoch-stamped,
// fully immutable segment list after every mutation:
//
//   * sealed segments are shared by reference across epochs (never copied);
//   * the tail is published as a frozen view that shares the writer's
//     slice words instead of copying them (BbsIndex::Freeze). The writer's
//     tail allocates every slice's words once, at the segment capacity,
//     and sets transaction n's bits in place. Appending bit n never changes
//     a bit below n, so every full word below word n/64 is immutable once
//     written — the same invariant that lets a TransactionDatabase::Prefix
//     view share the records of a database that keeps appending. The view
//     reads those words in place and keeps its own copy of the one partial
//     word per slice (the boundary word), the only word the writer may
//     still change;
//   * publication swaps one shared_ptr under a leaf mutex whose critical
//     sections are pointer copies only — all insert work (hashing, slice
//     updates, freezing the tail) happens outside it, so readers are
//     never blocked behind index mutation. Readers acquire the current
//     list with one pointer copy and hold it for as long as they like
//     (Snapshot is a value type).
//
// (Why a leaf mutex and not std::atomic<std::shared_ptr>: libstdc++'s
// _Sp_atomic guards its pointer with an embedded lock bit released with
// memory_order_relaxed on the reader side, which ThreadSanitizer flags as
// a formal data race. A plain mutex with pointer-copy critical sections
// has identical blocking behavior — _Sp_atomic spins too — and is fully
// TSan-understood; the CI thread-sanitizer job runs the stress tests.)
//
// Reclamation is epoch-based in the refcounting sense: a superseded list
// (and the tail view only it references) is destroyed exactly when the
// last snapshot holding it is released; the shared slice words live until
// the last view of them and the writer (or sealed segment) are gone. There
// is no grace-period machinery to tune and no reader registration —
// inserts never block readers behind their work, which is the property
// the service-layer stress test pins under TSan.
//
// Consistency guarantee: every snapshot is a *prefix* of the insert
// sequence (insert i is visible iff all inserts < i are), and epochs and
// transaction counts are monotone across acquisitions. Counts computed
// against one snapshot are bit-identical to counting a SegmentedBbs built
// from that prefix.
//
// Costs: a publication copies O(num_bits) words — one boundary word per
// slice (none when the tail holds a multiple of 64 transactions) and the
// per-slice popcounts — plus the exact item counts when they are tracked.
// Per-transaction signature bits are append-only and shared by prefix.
// Nothing it allocates grows with the tail, and sealing moves the full tail
// into the sealed list without a copy. Single inserts publish every time;
// InsertBatch and InsertAll publish once per batch, which is what the
// daemon's INSERT verb, replication apply and WAL replay use.

#ifndef BBSMINE_SERVICE_SNAPSHOT_H_
#define BBSMINE_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/segmented_bbs.h"
#include "storage/transaction_db.h"

namespace bbsmine::service {

/// When and how far to fold cold sealed segments (the compact tier).
/// Disabled unless both fields are non-zero.
struct CompactionPolicy {
  /// A sealed segment is cold once this many publication epochs have
  /// passed since it was sealed (sealed segments never mutate again, so
  /// age-since-seal is the access-independent coldness signal).
  uint64_t cold_epochs = 0;
  /// Fold target: the cold segment is rewritten with this many slices
  /// (counts stay upper bounds — Section 3.1's MemBBS fold).
  uint32_t fold_bits = 0;

  bool enabled() const { return cold_epochs != 0 && fold_bits != 0; }
};

/// Heap bytes of the index a SnapshotManager holds, part by part, each
/// shared byte counted once (SnapshotManager::Memory).
struct IndexMemory {
  uint64_t sealed_slices = 0;   ///< slice data of the sealed segments
  uint64_t tail_slices = 0;     ///< the tail block + the published view's
                                ///< boundary words
  uint64_t signature_bits = 0;  ///< per-transaction signature popcounts
  uint64_t popcounts = 0;       ///< cached slice popcounts
  uint64_t item_counts = 0;     ///< exact 1-itemset counts
  uint64_t hash_positions = 0;  ///< the hash families' position memos
};

/// An immutable view of the index at one publication epoch. Cheap to copy
/// (one shared_ptr); safe to query from any thread; keeps the segments it
/// references alive for its own lifetime.
class Snapshot {
 public:
  Snapshot() = default;

  bool valid() const { return state_ != nullptr; }

  /// Publication epoch: strictly increasing across publications.
  uint64_t epoch() const { return state_->epoch; }

  /// Transactions visible in this snapshot (a prefix of the insert
  /// sequence).
  size_t num_transactions() const { return state_->num_transactions; }

  size_t num_segments() const { return state_->segments.size(); }
  const BbsIndex& segment(size_t idx) const { return *state_->segments[idx]; }
  const BbsConfig& config() const { return state_->config; }

  /// Heap bytes pinned by the visible segments' slice data (0 per mmap'd
  /// segment — their pages are file-backed and reclaimable).
  size_t ApproxResidentBytes() const;

  /// Estimated number of visible transactions containing `items`,
  /// accumulated segment by segment exactly like SegmentedBbs::CountItemSet
  /// (never an underestimate): the itemset is hashed once and counted by
  /// CountSegments.
  size_t CountItemSet(const Itemset& items, IoStats* io = nullptr) const;

 private:
  friend class SnapshotManager;

  struct State {
    uint64_t epoch = 0;
    size_t num_transactions = 0;
    BbsConfig config;
    // Sealed segments plus one frozen tail view; all strictly immutable.
    // Empty tails are not published, so segments may be empty at epoch 0.
    std::vector<std::shared_ptr<const BbsIndex>> segments;
  };

  explicit Snapshot(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

/// The writer side: owns the mutable tail, serializes writers internally,
/// and publishes immutable snapshots. Readers call Acquire() from any
/// thread at any time.
class SnapshotManager {
 public:
  /// An empty index; each segment holds up to `segment_capacity`
  /// transactions.
  static Result<SnapshotManager> Create(const BbsConfig& config,
                                        uint64_t segment_capacity);

  /// Adopts the segments of an existing segmented index (e.g. one loaded
  /// from disk) by move: pass std::move(index) and no slice is copied. The
  /// open tail stays in place when its block has room for a whole segment
  /// (as every SegmentedBbs tail has) and is copied into one otherwise. An
  /// lvalue argument is copied first.
  static Result<SnapshotManager> FromIndex(SegmentedBbs index);

  /// Adopts a monolithic BbsIndex (by move, as above) as one sealed
  /// segment; new inserts go to a fresh tail holding up to
  /// `segment_capacity` transactions each.
  static Result<SnapshotManager> FromIndex(BbsIndex index,
                                           uint64_t segment_capacity);

  SnapshotManager(SnapshotManager&&) = default;
  SnapshotManager& operator=(SnapshotManager&&) = default;

  /// One shared_ptr copy under the publication leaf mutex; never waits on
  /// insert work.
  Snapshot Acquire() const { return Snapshot(published_->Load()); }

  /// Appends one transaction and publishes the new epoch. Serialized with
  /// other writers; never blocks or waits for readers.
  Status Insert(const Itemset& items);

  /// Appends every transaction of `batch` and publishes once at the end:
  /// readers see all of the batch or none of it (unless a seal fails
  /// mid-batch, when what was absorbed so far is published).
  Status InsertBatch(const std::vector<Itemset>& batch);

  /// InsertBatch over every transaction of `db` (or the `count` starting
  /// at `first`).
  Status InsertAll(const TransactionDatabase& db);
  Status InsertAll(const TransactionDatabase& db, size_t first, size_t count);

  /// Writer-side totals (also visible through Acquire()).
  uint64_t epoch() const { return Acquire().epoch(); }
  size_t num_transactions() const { return Acquire().num_transactions(); }

  /// Number of publications so far == number of retired tail views + 1.
  /// Exposed as a service metric (snapshot.publishes).
  uint64_t publications() const;

  /// Number of tail seals (segments frozen because they reached capacity).
  uint64_t seals() const;

  /// Fold compaction of cold sealed segments. Every sealed segment that
  /// (a) is not yet folded, (b) was sealed at least `policy.cold_epochs`
  /// publications ago, and (c) is wider than `policy.fold_bits` is replaced
  /// with its Fold(policy.fold_bits) image and the result is published as a
  /// new epoch. Snapshots acquired earlier keep the unfolded originals
  /// alive until released; counts from folded segments remain upper bounds.
  /// Returns the number of segments compacted (0 when the policy is
  /// disabled or nothing is cold).
  size_t CompactColdSegments(const CompactionPolicy& policy);

  /// Total segments compacted by CompactColdSegments so far.
  uint64_t compactions() const;

  uint64_t segment_capacity() const { return segment_capacity_; }

  /// Heap bytes of the sealed segments, the writer's tail and its current
  /// published view (which shares the tail's block and signature chunks).
  /// Snapshots readers still hold of older epochs are not included.
  IndexMemory Memory() const;

 private:
  SnapshotManager(const BbsConfig& config, uint64_t segment_capacity);

  /// The one body behind Create and both FromIndex: `sealed` become
  /// sealed segments and `tail` the writer's tail, all by move.
  static Result<SnapshotManager> Adopt(std::vector<BbsIndex> sealed,
                                       BbsIndex tail,
                                       uint64_t segment_capacity);

  /// Seals the tail if full, opening a fresh one. Caller holds mu_.
  Status MaybeSealLocked();

  /// Appends transactions [first, last) of a batch (`at(i)` yields the
  /// items of transaction i) and publishes once. Caller holds no lock.
  template <typename At>
  Status InsertRange(size_t first, size_t last, const At& at);

  /// Publishes the current sealed list + a frozen view of the tail.
  /// Caller holds mu_.
  void PublishLocked();

  BbsConfig config_;
  uint64_t segment_capacity_ = 0;

  // Writer state; guarded by mu_. Readers never touch it.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::vector<std::shared_ptr<const BbsIndex>> sealed_;
  // sealed_epoch_[i]: the epoch current when sealed_[i] froze (parallel to
  // sealed_). Drives the CompactionPolicy coldness test.
  std::vector<uint64_t> sealed_epoch_;
  // Writer-private mutable tail, in append-stable storage (ToTail) so that
  // publishing it shares its words.
  std::unique_ptr<BbsIndex> tail_;
  size_t num_transactions_ = 0;
  uint64_t epoch_ = 0;
  uint64_t publications_ = 0;
  uint64_t seals_ = 0;
  uint64_t compactions_ = 0;

  // The published snapshot state: a shared_ptr slot behind a leaf mutex
  // whose critical sections are pointer copies only (see the file comment
  // for why this beats std::atomic<std::shared_ptr> here). unique_ptr-
  // wrapped so the manager stays movable.
  struct PublishedState {
    std::shared_ptr<const Snapshot::State> Load() const {
      std::lock_guard<std::mutex> lock(mu);
      return state;
    }
    void Store(std::shared_ptr<const Snapshot::State> next) {
      std::shared_ptr<const Snapshot::State> retired;
      {
        std::lock_guard<std::mutex> lock(mu);
        retired.swap(state);
        state = std::move(next);
      }
      // `retired` (possibly the last reference to a superseded tail view)
      // is released here, outside the leaf mutex.
    }
    mutable std::mutex mu;
    std::shared_ptr<const Snapshot::State> state;
  };
  std::unique_ptr<PublishedState> published_ =
      std::make_unique<PublishedState>();
};

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_SNAPSHOT_H_
