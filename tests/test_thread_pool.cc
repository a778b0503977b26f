/**
 * @file test_thread_pool.cc
 * Tests for the common worker pool and its determinism contract:
 * index-keyed ParallelFor output must not depend on the thread count.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace rago {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), ConfigError);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    ParallelFor(&pool, 20, [&counter](size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPool, ParallelForPropagatesBodyExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 64,
                           [](size_t i) {
                             if (i == 13) {
                               throw ConfigError("bad index");
                             }
                           }),
               ConfigError);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  ParallelFor(&pool, visits.size(),
              [&](size_t i) { visits[i].fetch_add(1); });
  for (const auto& count : visits) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ThreadPool, ParallelForInlineWithoutPool) {
  std::vector<int> visits(64, 0);
  ParallelFor(nullptr, visits.size(), [&](size_t i) { visits[i] += 1; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 64);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool ran = false;
  ParallelFor(&pool, 0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  // n < num_threads must neither hang nor double-visit: the caller and
  // at most n-1 helpers share n indexes.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  ParallelFor(&pool, visits.size(),
              [&](size_t i) { visits[i].fetch_add(1); });
  for (const auto& count : visits) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Optimizer tasks call sub-shard searches: a ParallelFor body running
  // on a worker issues another ParallelFor on the same pool. The caller
  // participates in its own wave instead of blocking on pool
  // quiescence, so this must complete even when every worker is stuck
  // inside an outer body.
  ThreadPool pool(4);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 32;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  ParallelFor(&pool, kOuter, [&](size_t i) {
    ParallelFor(&pool, kInner, [&](size_t j) {
      visits[i * kInner + j].fetch_add(1);
    });
  });
  for (const auto& count : visits) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ThreadPool, DeeplyNestedParallelForStillCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 4, [&](size_t) {
      ParallelFor(&pool, 4, [&](size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerExceptions) {
  // An inner-wave exception must surface through the outer wave on the
  // original calling thread, not vanish or wedge the pool.
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 4,
                           [&](size_t i) {
                             ParallelFor(&pool, 8, [&](size_t j) {
                               if (i == 2 && j == 5) {
                                 throw ConfigError("inner failure");
                               }
                             });
                           }),
               ConfigError);
  // The pool survives for a clean follow-up wave.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 16, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, ParallelForSingleItemRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id executed;
  ParallelFor(&pool, 1, [&](size_t) { executed = std::this_thread::get_id(); });
  EXPECT_EQ(executed, caller);
}

TEST(ThreadPool, ResolveNumThreadsSemantics) {
  EXPECT_EQ(ResolveNumThreads(0), DefaultNumThreads());
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_GE(DefaultNumThreads(), 1);
  EXPECT_THROW(ResolveNumThreads(-1), ConfigError);
}

TEST(ThreadPool, IndexKeyedOutputIsThreadCountInvariant) {
  // The determinism contract: results written into index-keyed slots
  // are identical for any worker count.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> out(200);
    ParallelFor(&pool, out.size(), [&](size_t i) {
      Rng rng(Rng::DeriveSeed(42, i));
      out[i] = rng.NextU64();
    });
    return out;
  };
  const std::vector<uint64_t> serial = run(1);
  const std::vector<uint64_t> parallel = run(4);
  EXPECT_EQ(serial, parallel);
}

TEST(Rng, DeriveSeedDecorrelatesStreams) {
  // Distinct streams give distinct seeds; the mapping is pure.
  EXPECT_EQ(Rng::DeriveSeed(7, 0), Rng::DeriveSeed(7, 0));
  EXPECT_NE(Rng::DeriveSeed(7, 0), Rng::DeriveSeed(7, 1));
  EXPECT_NE(Rng::DeriveSeed(7, 0), Rng::DeriveSeed(8, 0));
}

}  // namespace
}  // namespace rago
