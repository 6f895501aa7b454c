// The Bloom-filter hash family mapping items to bit positions in [0, m).
//
// Paper, Section 4: "we take the four disjoint groups of bits from the
// 128-bit MD5 signature of the item name; if more bits are needed, we
// calculate the MD5 signature of the item name concatenated with itself."
// Item names here are the decimal renderings of the item ids.
//
// Positions are memoized per item: mining touches the same (few hundred)
// frequent items millions of times, so the MD5 cost is paid once per item,
// matching the paper's observation that "the computational overhead of MD5 is
// negligible". The memo is one append-stable table shared by every copy of a
// family (and so by every copy of a BbsIndex and every published snapshot of
// a tail segment): an entry never moves once written, so lookups from any
// number of threads are race-free while another thread adds items.

#ifndef BBSMINE_CORE_BLOOM_HASH_H_
#define BBSMINE_CORE_BLOOM_HASH_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bbs_config.h"
#include "storage/transaction.h"
#include "util/status.h"

namespace bbsmine {

/// A family of `num_hashes` hash functions h_j : ItemId -> [0, num_bits).
///
/// Thread-safe: Positions may be called from any number of threads at once,
/// including for items nobody has looked up yet. Copies share the position
/// memo (one shared_ptr), so copying a family is O(1).
class BloomHashFamily {
 public:
  /// Validates the parameters and constructs the family.
  /// Fails if num_bits == 0 or num_hashes == 0.
  static Result<BloomHashFamily> Create(uint32_t num_bits, uint32_t num_hashes,
                                        HashKind kind, uint64_t seed = 0);

  uint32_t num_bits() const { return num_bits_; }
  uint32_t num_hashes() const { return num_hashes_; }
  HashKind kind() const { return kind_; }
  uint64_t seed() const { return seed_; }

  /// The `num_hashes` positions of `item`, each in [0, num_bits).
  /// The returned reference stays valid while any copy of the family lives.
  const std::vector<uint32_t>& Positions(ItemId item) const {
    const std::vector<uint32_t>* hit = table_->Find(item);
    return hit != nullptr ? *hit : Memoize(item);
  }

  /// Number of items with memoized positions (diagnostics).
  size_t cached_items() const {
    return table_->filled.load(std::memory_order_relaxed);
  }

  /// Heap bytes of the position memo: its chunks, directories and every
  /// memoized position list. Every copy of this family shares the memo.
  size_t MemoBytes() const {
    std::lock_guard<std::mutex> lock(table_->mu);
    size_t bytes = table_->chunks.size() * sizeof(PositionTable::Chunk);
    for (const auto& dir : table_->directories) {
      bytes += dir->capacity() * sizeof(PositionTable::Chunk*);
    }
    for (const auto& chunk : table_->chunks) {
      for (const PositionTable::Entry& entry : *chunk) {
        bytes += entry.positions.capacity() * sizeof(uint32_t);
      }
    }
    return bytes;
  }

  /// Equal for copies of one family (they share one memo), so a caller
  /// summing MemoBytes over many indexes can count each memo once.
  const void* memo_id() const { return table_.get(); }

 private:
  /// The position memo: fixed chunks of kChunkItems entries that never move
  /// once allocated, reached through a chunk directory that is replaced
  /// (never edited) when it must grow. Superseded directories stay alive
  /// until the table dies, so a reader's directory pointer never dangles.
  /// An entry is written once, under `mu`, before its ready flag is
  /// released; Find is lock-free.
  struct PositionTable {
    static constexpr size_t kChunkItems = 64;
    struct Entry {
      std::atomic<bool> ready{false};
      std::vector<uint32_t> positions;
    };
    using Chunk = std::array<Entry, kChunkItems>;
    using Directory = std::vector<Chunk*>;

    const std::vector<uint32_t>* Find(ItemId item) const {
      const Directory* dir = directory.load(std::memory_order_acquire);
      const size_t chunk = item / kChunkItems;
      if (dir == nullptr || chunk >= dir->size()) return nullptr;
      const Entry& entry = (*(*dir)[chunk])[item % kChunkItems];
      return entry.ready.load(std::memory_order_acquire) ? &entry.positions
                                                         : nullptr;
    }

    std::atomic<const Directory*> directory{nullptr};
    std::atomic<size_t> filled{0};
    std::mutex mu;  // serializes Memoize
    std::vector<std::unique_ptr<Chunk>> chunks;           // guarded by mu
    std::vector<std::unique_ptr<Directory>> directories;  // guarded by mu
  };

  BloomHashFamily(uint32_t num_bits, uint32_t num_hashes, HashKind kind,
                  uint64_t seed)
      : num_bits_(num_bits),
        num_hashes_(num_hashes),
        kind_(kind),
        seed_(seed),
        table_(std::make_shared<PositionTable>()) {}

  /// The Positions miss path: computes and publishes `item`'s entry.
  const std::vector<uint32_t>& Memoize(ItemId item) const;

  /// Computes positions without consulting the cache.
  void ComputePositions(ItemId item, std::vector<uint32_t>* out) const;
  void ComputeMd5Positions(const std::string& name,
                           std::vector<uint32_t>* out) const;
  void ComputeMultiplyShiftPositions(ItemId item,
                                     std::vector<uint32_t>* out) const;

  uint32_t num_bits_;
  uint32_t num_hashes_;
  HashKind kind_;
  uint64_t seed_;

  std::shared_ptr<PositionTable> table_;
};

}  // namespace bbsmine

#endif  // BBSMINE_CORE_BLOOM_HASH_H_
