// Allocation guard for the served COUNT path: a count over a snapshot of
// 25 segments must make exactly as many heap allocations as one over a
// single segment holding the same transactions — per-query scratch is fine,
// per-segment scratch (re-hashing the itemset, a result vector, operand
// tables) is not. Global operator new is replaced below to count, so this
// test is its own binary; it is not built under the sanitizers, whose
// runtimes replace operator new themselves.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "service/scheduler.h"
#include "service/snapshot.h"
#include "testing/reference.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bbsmine::service {
namespace {

constexpr size_t kTransactions = 25 * 128;

/// A manager over `db` in segments of `capacity` transactions.
SnapshotManager Manager(const TransactionDatabase& db, uint64_t capacity) {
  BbsConfig config;
  config.num_bits = 512;
  config.num_hashes = 4;
  auto manager = SnapshotManager::Create(config, capacity);
  EXPECT_TRUE(manager.ok());
  EXPECT_TRUE(manager->InsertAll(db).ok());
  return std::move(manager).value();
}

/// Heap allocations made by `fn`.
template <typename Fn>
uint64_t AllocationsOf(const Fn& fn) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(CountAllocTest, CountsThisBinarysAllocations) {
  std::unique_ptr<int> p;
  EXPECT_GE(AllocationsOf([&] { p = std::make_unique<int>(7); }), 1u);
  EXPECT_EQ(*p, 7);
}

TEST(CountAllocTest, AllocationsDoNotGrowWithSegments) {
  const TransactionDatabase db = testing::RandomDb(5, kTransactions, 60, 6.0);
  SnapshotManager one = Manager(db, kTransactions);
  SnapshotManager many = Manager(db, kTransactions / 25);
  const Snapshot one_snap = one.Acquire();
  const Snapshot many_snap = many.Acquire();
  ASSERT_EQ(one_snap.num_segments(), 1u);
  ASSERT_EQ(many_snap.num_segments(), 25u);

  SchedulerOptions options;
  options.num_threads = 1;
  CountScheduler one_scheduler(&one, options, nullptr);
  CountScheduler many_scheduler(&many, options, nullptr);

  const std::vector<Itemset> queries = {{3}, {1, 4}, {2, 7, 9}};
  for (const Itemset& items : queries) {
    SCOPED_TRACE(std::to_string(items.size()) + " items");
    // Warm the shared hash-position table first: memoizing an item's
    // positions allocates once per item, not per count.
    ASSERT_EQ(one_snap.CountItemSet(items), many_snap.CountItemSet(items));

    IoStats io;
    const uint64_t snapshot_one =
        AllocationsOf([&] { one_snap.CountItemSet(items, &io); });
    const uint64_t snapshot_many =
        AllocationsOf([&] { many_snap.CountItemSet(items, &io); });
    EXPECT_EQ(snapshot_many, snapshot_one);

    CountResult result;
    const uint64_t scheduler_one = AllocationsOf(
        [&] { ASSERT_TRUE(one_scheduler.Count(items, &result).ok()); });
    const uint64_t scheduler_many = AllocationsOf(
        [&] { ASSERT_TRUE(many_scheduler.Count(items, &result).ok()); });
    EXPECT_EQ(scheduler_many, scheduler_one);
  }
}

}  // namespace
}  // namespace bbsmine::service
