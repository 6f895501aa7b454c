#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

namespace bbsmine {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // nothing queued: must not hang
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, PoolIsReusableAfterWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsZeroThreadsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, MemberParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, MemberParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, [&counter](size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTest, ConcurrentParallelForsCompleteIndependently) {
  // A's body blocks until B releases it. A's loop occupies the only
  // worker, so B's short loop can finish only if it runs on B's own
  // thread and waits for nothing but its own indices.
  ThreadPool pool(1);
  std::promise<void> release_a;
  std::shared_future<void> released = release_a.get_future().share();
  std::atomic<int> a_done{0};
  std::thread a([&] {
    pool.ParallelFor(2, [&](size_t) {
      released.wait();
      ++a_done;
    });
  });
  std::promise<void> b_returned;
  std::future<void> b_finished = b_returned.get_future();
  std::atomic<int> b_hits{0};
  std::thread b([&] {
    pool.ParallelFor(4, [&](size_t) { ++b_hits; });
    b_returned.set_value();
  });
  const bool b_first = b_finished.wait_for(std::chrono::seconds(10)) ==
                       std::future_status::ready;
  EXPECT_TRUE(b_first) << "B's ParallelFor waited on A's blocked work";
  EXPECT_EQ(a_done.load(), 0);
  release_a.set_value();  // B releases A (also unwedges a failing run)
  a.join();
  b.join();
  EXPECT_EQ(b_hits.load(), 4);
  EXPECT_EQ(a_done.load(), 2);
}

TEST(FreeParallelForTest, InlineWhenSingleThreaded) {
  // threads <= 1 must run on the calling thread, in index order.
  std::vector<size_t> order;
  ParallelFor(1, 10, [&order](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(FreeParallelForTest, CoversEveryIndexOnceMultiThreaded) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(4, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(FreeParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(16, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(FreeParallelForTest, SumMatchesSerial) {
  std::atomic<uint64_t> sum{0};
  ParallelFor(8, 10'000, [&sum](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 10'000ull * 9'999ull / 2);
}

TEST(ResolveThreadsTest, ZeroMeansHardware) {
  EXPECT_EQ(ResolveThreads(0), ThreadPool::DefaultThreads());
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(7), 7u);
}

}  // namespace
}  // namespace bbsmine
