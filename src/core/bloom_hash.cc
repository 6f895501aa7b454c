#include "core/bloom_hash.h"

#include <algorithm>

#include "util/md5.h"

namespace bbsmine {

Result<BloomHashFamily> BloomHashFamily::Create(uint32_t num_bits,
                                                uint32_t num_hashes,
                                                HashKind kind, uint64_t seed) {
  if (num_bits == 0) {
    return Status::InvalidArgument("num_bits must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("num_hashes must be positive");
  }
  return BloomHashFamily(num_bits, num_hashes, kind, seed);
}

const std::vector<uint32_t>& BloomHashFamily::Memoize(ItemId item) const {
  PositionTable& table = *table_;
  std::lock_guard<std::mutex> lock(table.mu);
  // Another thread may have filled the entry while this one waited.
  if (const std::vector<uint32_t>* hit = table.Find(item)) return *hit;
  const size_t chunk = item / PositionTable::kChunkItems;
  const PositionTable::Directory* dir =
      table.directory.load(std::memory_order_relaxed);
  if (dir == nullptr || chunk >= dir->size()) {
    auto grown = std::make_unique<PositionTable::Directory>();
    if (dir != nullptr) *grown = *dir;
    const size_t size = std::max(chunk + 1, 2 * grown->size());
    while (grown->size() < size) {
      table.chunks.push_back(std::make_unique<PositionTable::Chunk>());
      grown->push_back(table.chunks.back().get());
    }
    dir = grown.get();
    table.directories.push_back(std::move(grown));
    table.directory.store(dir, std::memory_order_release);
  }
  PositionTable::Entry& entry =
      (*(*dir)[chunk])[item % PositionTable::kChunkItems];
  ComputePositions(item, &entry.positions);
  entry.ready.store(true, std::memory_order_release);
  table.filled.fetch_add(1, std::memory_order_relaxed);
  return entry.positions;
}

void BloomHashFamily::ComputePositions(ItemId item,
                                       std::vector<uint32_t>* out) const {
  out->clear();
  out->reserve(num_hashes_);
  switch (kind_) {
    case HashKind::kMd5: {
      std::string name = std::to_string(item);
      if (seed_ != 0) {
        name += '#';
        name += std::to_string(seed_);
      }
      ComputeMd5Positions(name, out);
      break;
    }
    case HashKind::kMultiplyShift:
      ComputeMultiplyShiftPositions(item, out);
      break;
    case HashKind::kModulo:
      for (uint32_t j = 0; j < num_hashes_; ++j) {
        out->push_back((item + j) % num_bits_);
      }
      break;
  }
}

void BloomHashFamily::ComputeMd5Positions(const std::string& name,
                                          std::vector<uint32_t>* out) const {
  // Each MD5 digest of the (repeatedly self-concatenated) item name yields
  // four disjoint 32-bit groups; each group mod m is one hash position.
  std::string message = name;
  while (out->size() < num_hashes_) {
    Md5Digest digest = Md5::Hash(message);
    for (int group = 0; group < 4 && out->size() < num_hashes_; ++group) {
      uint32_t value = 0;
      for (int byte = 0; byte < 4; ++byte) {
        value |= static_cast<uint32_t>(digest[4 * group + byte]) << (8 * byte);
      }
      out->push_back(value % num_bits_);
    }
    // "If more bits are needed, we calculate the MD5 signature of the item
    // name concatenated with itself."
    message += name;
  }
}

void BloomHashFamily::ComputeMultiplyShiftPositions(
    ItemId item, std::vector<uint32_t>* out) const {
  // Fibonacci-style multiply-shift mixing; one 64-bit product per function.
  uint64_t x = (static_cast<uint64_t>(item) + 1) ^ seed_;
  for (uint32_t j = 0; j < num_hashes_; ++j) {
    uint64_t z = x + 0x9e3779b97f4a7c15ull * (j + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    out->push_back(static_cast<uint32_t>(z % num_bits_));
  }
}

}  // namespace bbsmine
