#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.h"

namespace rago {

ThreadPool::ThreadPool(int num_threads) {
  RAGO_REQUIRE(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void
ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    RAGO_CHECK(!shutdown_, "submit on a shut-down thread pool");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void
ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutdown with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int
DefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

int
ResolveNumThreads(int num_threads) {
  RAGO_REQUIRE(num_threads >= 0, "num_threads must be >= 0 (0 = auto)");
  return num_threads == 0 ? DefaultNumThreads() : num_threads;
}

namespace {

/**
 * Shared state of one ParallelFor wave. Helper tasks own it through a
 * shared_ptr, so a straggler that only gets scheduled after the caller
 * already returned finds an exhausted index counter and exits without
 * touching anything that could dangle.
 */
struct ParallelForState {
  ParallelForState(size_t n, std::function<void(size_t)> fn)
      : n(n), fn(std::move(fn)) {}

  const size_t n;
  const std::function<void(size_t)> fn;
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};

  std::mutex mutex;
  std::condition_variable idle;
  int active = 0;  ///< Helpers currently draining indexes.
  size_t error_index = std::numeric_limits<size_t>::max();
  std::exception_ptr error;

  /// Consumes indexes until exhaustion, a thrown body, or abort.
  void Drain() {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (abort.load(std::memory_order_acquire)) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        abort.store(true, std::memory_order_release);
        std::lock_guard<std::mutex> lock(mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        return;
      }
    }
  }
};

}  // namespace

void
ParallelFor(ThreadPool* pool, size_t n,
            const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (pool == nullptr || pool->num_threads() == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  auto state = std::make_shared<ParallelForState>(n, fn);
  // The caller drains too, so n-1 helpers saturate the wave; capping at
  // the worker count bounds queue growth under nested calls.
  const size_t helpers =
      std::min(n - 1, static_cast<size_t>(pool->num_threads()));
  for (size_t t = 0; t < helpers; ++t) {
    pool->Submit([state] {
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        ++state->active;
      }
      state->Drain();
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (--state->active == 0) {
          state->idle.notify_all();
        }
      }
    });
  }
  // Participating (instead of blocking until the pool is idle) is what
  // makes nested ParallelFor safe: the wave finishes even if every
  // helper is stuck behind other pool work, and a worker-thread caller
  // never waits for its own task to retire.
  state->Drain();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->idle.wait(lock, [&] { return state->active == 0; });
  if (state->error != nullptr) {
    std::rethrow_exception(state->error);
  }
}

}  // namespace rago
