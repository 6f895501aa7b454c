// A minimal fixed-size thread pool and a ParallelFor helper.
//
// The mining engine parallelizes embarrassingly parallel fan-outs: per-segment
// counting in SegmentedBbs, the root-level subtrees of the filter walks, and
// the candidate loops of postprocessing/refinement. All of those reduce to
// "run body(i) for i in [0, n) on up to T threads", which is what ParallelFor
// provides. Work is distributed dynamically (atomic index), so uneven subtree
// sizes balance automatically.
//
// No external dependencies: std::thread + a mutex/condvar work queue. Tasks
// must not throw (the library reports errors via Status, not exceptions).

#ifndef BBSMINE_UTIL_THREAD_POOL_H_
#define BBSMINE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bbsmine {

/// A fixed set of worker threads draining a shared task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Tasks may be submitted from any thread, including
  /// from inside another task.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Deepest backlog the task queue has reached (watermark over the pool's
  /// lifetime): tasks waiting for a worker at the moment of a Submit. A
  /// value near num_threads() means the fan-out saturated the pool.
  uint64_t max_queue_depth() const {
    std::unique_lock<std::mutex> lock(mu_);
    return max_queue_depth_;
  }

  /// Runs body(i) for every i in [0, n), distributing indices dynamically
  /// across the calling thread and the pool's workers. Returns when this
  /// call's iterations are done, whatever else the pool is running, so
  /// concurrent callers never wait on each other's work.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// The number of hardware threads, or 1 when it cannot be determined.
  /// Used to resolve "num_threads = 0 means auto".
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // signaled when tasks arrive / shutdown
  std::condition_variable idle_cv_;  // signaled when the pool drains
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  uint64_t max_queue_depth_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(i) for every i in [0, n) on up to `num_threads` threads.
/// With num_threads <= 1 (or n <= 1) the loop runs inline on the calling
/// thread — zero threading overhead, and the serial path stays the serial
/// path. `num_threads == 0` means one thread per hardware thread.
///
/// When `max_queue_depth` is non-null it is raised (never lowered) to the
/// deepest task backlog the fan-out reached; the inline path leaves it
/// untouched (nothing ever queues).
void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& body,
                 uint64_t* max_queue_depth = nullptr);

/// Resolves a user-facing thread-count knob: 0 = auto (hardware threads),
/// otherwise the value itself, clamped to at least 1.
size_t ResolveThreads(size_t num_threads);

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_THREAD_POOL_H_
