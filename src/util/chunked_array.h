// ChunkedArray: an append-only array whose elements never move, so one
// writer can keep appending while readers on other threads use any prefix
// it has already published.

#ifndef BBSMINE_UTIL_CHUNKED_ARRAY_H_
#define BBSMINE_UTIL_CHUNKED_ARRAY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace bbsmine {

/// Records per storage chunk (see ChunkedArray). A constant, not an option:
/// it trades the slack of one partly filled chunk against the directory
/// length, and nothing observable depends on it.
inline constexpr size_t kChunkRecords = 4096;

/// An append-only array kept in fixed-capacity chunks, so an element never
/// moves once written. The chunk directory is replaced, never edited, and
/// only when a chunk is added: a reader holding a directory() snapshot can
/// read any position the writer has already published to it (see
/// TransactionDatabase::Prefix) while the single writer keeps appending.
/// Copies are deep: a copy never shares a chunk with its source (SharedPrefix
/// is the one way to share).
template <typename T>
class ChunkedArray {
 public:
  using Chunk = std::array<T, kChunkRecords>;
  using Directory = std::vector<std::shared_ptr<Chunk>>;

  ChunkedArray() = default;
  ChunkedArray(const ChunkedArray& other) {
    for (size_t i = 0; i < other.size(); ++i) push_back(other[i]);
  }
  ChunkedArray(ChunkedArray&& other) noexcept
      : directory_(std::move(other.directory_)),
        size_(other.size_.exchange(0, std::memory_order_relaxed)) {}
  ChunkedArray& operator=(ChunkedArray other) noexcept {
    directory_ = std::move(other.directory_);
    size_.store(other.size(), std::memory_order_release);
    return *this;
  }

  /// Elements published so far (acquire: every element below is readable
  /// through a directory() taken afterwards).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Writer-side access; readers on other threads go through directory().
  const T& operator[](size_t i) const { return Get(*directory_, i); }

  /// Appends `value` and publishes it. One writer at a time.
  void push_back(T value) {
    const size_t n = size_.load(std::memory_order_relaxed);
    if (n % kChunkRecords == 0) {
      auto grown = std::make_shared<Directory>();
      if (directory_ != nullptr) *grown = *directory_;
      grown->push_back(std::make_shared<Chunk>());
      std::lock_guard<std::mutex> lock(directory_mu_);
      directory_ = std::move(grown);
    }
    (*directory_->back())[n % kChunkRecords] = std::move(value);
    size_.store(n + 1, std::memory_order_release);
  }

  /// A read-only array of the first `n` elements (n <= size()) that shares
  /// this array's chunks instead of copying them: O(1) however long the
  /// prefix. Elements below `n` never change, so the prefix stays valid
  /// while this array keeps appending. Never push_back to the result (its
  /// next slot may belong to this array); copy it first.
  ChunkedArray SharedPrefix(size_t n) const {
    ChunkedArray out;
    out.directory_ = directory();
    out.size_.store(n, std::memory_order_relaxed);
    return out;
  }

  /// The current chunk directory; safe to call while the writer appends.
  /// Null while the array is empty.
  std::shared_ptr<const Directory> directory() const {
    std::lock_guard<std::mutex> lock(directory_mu_);
    return directory_;
  }

  /// Bytes of element storage held: every chunk, shared or not, plus the
  /// directory. Safe to call while the writer appends.
  size_t StorageBytes() const {
    const std::shared_ptr<const Directory> dir = directory();
    if (dir == nullptr) return 0;
    return dir->size() * sizeof(Chunk) +
           dir->capacity() * sizeof(std::shared_ptr<Chunk>);
  }

  static const T& Get(const Directory& directory, size_t i) {
    return (*directory[i / kChunkRecords])[i % kChunkRecords];
  }

 private:
  // Guards replacement of directory_ against directory() on reader threads.
  mutable std::mutex directory_mu_;
  std::shared_ptr<const Directory> directory_;
  std::atomic<size_t> size_{0};
};

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_CHUNKED_ARRAY_H_
