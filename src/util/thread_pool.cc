#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace bbsmine {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    max_queue_depth_ = std::max<uint64_t>(max_queue_depth_, queue_.size());
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  // Completion is per call: the caller claims indices alongside the
  // helpers, then waits only for this loop's indices still running on a
  // worker — never for other callers' tasks. A helper that starts after
  // every index is claimed exits without touching `body`.
  struct Loop {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t done = 0;  // guarded by mu
  };
  auto loop = std::make_shared<Loop>();
  auto work = [loop, n, &body] {
    size_t ran = 0;
    for (size_t i = loop->next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = loop->next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->done += ran;
    if (loop->done == n) loop->done_cv.notify_all();
  };
  const size_t helpers = std::min(num_threads(), n - 1);
  for (size_t t = 0; t < helpers; ++t) Submit(work);
  work();
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->done_cv.wait(lock, [&loop, n] { return loop->done == n; });
}

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& body,
                 uint64_t* max_queue_depth) {
  size_t threads = std::min(ResolveThreads(num_threads), n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(threads - 1);  // the caller is the last thread
  pool.ParallelFor(n, body);
  if (max_queue_depth != nullptr) {
    *max_queue_depth = std::max(*max_queue_depth, pool.max_queue_depth());
  }
}

size_t ResolveThreads(size_t num_threads) {
  if (num_threads == 0) return ThreadPool::DefaultThreads();
  return num_threads;
}

}  // namespace bbsmine
