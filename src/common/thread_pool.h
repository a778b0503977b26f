/**
 * @file thread_pool.h
 * Small fixed-size worker pool for CPU-side fan-out.
 *
 * The sharded retrieval tier fans every query batch out to per-shard
 * indexes (one logical server per shard); the optimizer's Algorithm-1
 * profiling and schedule enumeration are embarrassingly parallel too.
 * Both need only a worker pool behind ParallelFor, not a full task
 * graph. Determinism contract: callers write results into pre-sized slots
 * keyed by task index, so output is identical for any thread count
 * (including 1); the pool itself never reorders observable results.
 */
#ifndef RAGO_COMMON_THREAD_POOL_H
#define RAGO_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rago {

/// Fixed-size worker pool; work reaches it only through ParallelFor.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  friend void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& fn);

  /// Enqueues a task for execution on some worker. Tasks must not
  /// throw: ParallelFor's helpers catch every body exception.
  void Submit(std::function<void()> task);

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Hardware concurrency clamped to >= 1; what a 0-valued `num_threads`
/// knob resolves to.
int DefaultNumThreads();

/// Resolves a `num_threads` option: 0 means DefaultNumThreads().
int ResolveNumThreads(int num_threads);

/**
 * Runs fn(0) .. fn(n-1), work-stealing indexes from a shared counter.
 * The calling thread participates alongside up to num_threads helper
 * tasks, and the call never blocks on pool quiescence, so nesting a
 * ParallelFor inside another ParallelFor body on the same pool is safe:
 * helpers that never get scheduled are no-ops once the index counter is
 * exhausted. With `pool == nullptr` the loop runs inline.
 *
 * Every index is visited exactly once (so index-keyed outputs are
 * thread-count-invariant) unless a body throws: then remaining indexes
 * are abandoned and the lowest-index captured exception is rethrown on
 * the calling thread after all in-flight bodies finish.
 */
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace rago

#endif  // RAGO_COMMON_THREAD_POOL_H
