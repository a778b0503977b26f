/**
 * @file test_topk.cc
 * Tests for the bounded top-k accumulator: equivalence with
 * std::partial_sort under the Neighbor ordering across the reservoir's
 * compaction boundaries, heavy ties and +inf distances, reuse after
 * SortedTake, exact-size results, and empty/duplicate-score edge
 * cases.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/topk.h"
#include "tests/testing/test_support.h"

namespace rago::ann {
namespace {

/// Reference implementation: sort all candidates, keep the first k.
std::vector<Neighbor> PartialSortTopK(std::vector<Neighbor> candidates,
                                      size_t k) {
  const size_t keep = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end());
  candidates.resize(keep);
  return candidates;
}

TEST(TopK, RejectsZeroK) {
  EXPECT_THROW(TopK(0), rago::ConfigError);
}

TEST(TopK, EmptyHeapTakesNothing) {
  TopK topk(5);
  EXPECT_EQ(topk.size(), 0u);
  EXPECT_TRUE(topk.SortedTake().empty());
}

TEST(TopK, FewerCandidatesThanK) {
  TopK topk(10);
  topk.Push(3.0f, 7);
  topk.Push(1.0f, 9);
  const auto out = topk.SortedTake();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 9);
  EXPECT_EQ(out[1].id, 7);
}

using TopKSeeded = rago::testing::SeededTest;

TEST_F(TopKSeeded, MatchesPartialSortOnRandomStreams) {
  Rng& rng = this->rng();
  for (const size_t k : {1u, 3u, 10u, 64u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<Neighbor> candidates;
      const size_t n = 1 + rng.NextBounded(500);
      for (size_t i = 0; i < n; ++i) {
        candidates.push_back(
            {static_cast<float>(rng.NextUniform(0.0, 100.0)),
             static_cast<int64_t>(i)});
      }
      TopK topk(k);
      for (const Neighbor& c : candidates) {
        topk.Push(c.dist, c.id);
      }
      const auto result = topk.SortedTake();
      const auto reference = PartialSortTopK(candidates, k);
      ASSERT_EQ(result.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(result[i].id, reference[i].id);
        EXPECT_EQ(result[i].dist, reference[i].dist);
      }
    }
  }
}

/// Stream shapes for the property test.
enum class Stream { kUniform, kHeavyTies, kWithInfinities };

/// `n` candidates with shuffled ids. Heavy ties draw from at most 4
/// distinct distances; the +inf stream makes about a quarter of the
/// distances +inf.
std::vector<Neighbor> DrawStream(Rng& rng, Stream stream, size_t n) {
  std::vector<Neighbor> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].id = static_cast<int64_t>(i);
    switch (stream) {
      case Stream::kUniform:
        out[i].dist = static_cast<float>(rng.NextUniform(0.0, 100.0));
        break;
      case Stream::kHeavyTies:
        out[i].dist = static_cast<float>(rng.NextBounded(4));
        break;
      case Stream::kWithInfinities:
        out[i].dist = rng.NextBounded(4) == 0
                          ? std::numeric_limits<float>::infinity()
                          : static_cast<float>(rng.NextBounded(8));
        break;
    }
  }
  // Fisher-Yates over the ids, so ties never arrive in id order.
  for (size_t i = n; i > 1; --i) {
    std::swap(out[i - 1].id, out[rng.NextBounded(i)].id);
  }
  return out;
}

TEST_F(TopKSeeded, MatchesPartialSortAcrossCompactionBoundaries) {
  // n walks every edge of the 2k reservoir: empty, below, at and above
  // k, one short of, at and one past a compaction, and many
  // compactions. One accumulator per k is reused across every draw, so
  // SortedTake must leave it as new.
  Rng& rng = this->rng();
  for (const size_t k : {1u, 2u, 3u, 4u, 10u, 64u}) {
    TopK topk(k);
    for (const size_t n : {size_t{0}, size_t{1}, k - 1, k, k + 1,
                           2 * k - 1, 2 * k, 2 * k + 1, 10 * k}) {
      for (const Stream stream : {Stream::kUniform, Stream::kHeavyTies,
                                  Stream::kWithInfinities}) {
        const std::vector<Neighbor> candidates = DrawStream(rng, stream, n);
        for (const Neighbor& c : candidates) {
          topk.Push(c.dist, c.id);
        }
        const std::vector<Neighbor> out = topk.SortedTake();
        const std::vector<Neighbor> reference = PartialSortTopK(candidates, k);
        const std::string where = "k=" + std::to_string(k) +
                                  " n=" + std::to_string(n) + " stream=" +
                                  std::to_string(static_cast<int>(stream));
        ASSERT_EQ(out.size(), reference.size()) << where;
        EXPECT_EQ(out.capacity(), out.size()) << where;
        EXPECT_EQ(topk.size(), 0u) << where;
        for (size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(out[i].id, reference[i].id) << where << " rank " << i;
          EXPECT_EQ(out[i].dist, reference[i].dist) << where << " rank " << i;
        }
      }
    }
  }
}

TEST(TopK, MatchesPartialSortWithDuplicateScores) {
  // Heavily quantized distances force tie-breaks at the admission
  // bound; the accumulator must agree with the Neighbor ordering (lower
  // id wins) regardless of push order.
  Rng rng(99);
  std::vector<Neighbor> candidates;
  for (int64_t i = 0; i < 200; ++i) {
    candidates.push_back(
        {static_cast<float>(rng.NextBounded(5)), i});
  }
  for (const size_t k : {1u, 7u, 50u}) {
    TopK topk(k);
    for (const Neighbor& c : candidates) {
      topk.Push(c.dist, c.id);
    }
    const auto result = topk.SortedTake();
    const auto reference = PartialSortTopK(candidates, k);
    ASSERT_EQ(result.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(result[i].id, reference[i].id) << "k=" << k;
      EXPECT_EQ(result[i].dist, reference[i].dist) << "k=" << k;
    }
  }
}

TEST(TopK, ResultIndependentOfPushOrder) {
  std::vector<Neighbor> candidates = {
      {2.0f, 0}, {2.0f, 1}, {2.0f, 2}, {1.0f, 3}, {3.0f, 4}, {2.0f, 5}};
  std::vector<Neighbor> expected;
  {
    TopK topk(3);
    for (const Neighbor& c : candidates) {
      topk.Push(c.dist, c.id);
    }
    expected = topk.SortedTake();
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Neighbor& a, const Neighbor& b) { return b < a; });
  TopK reversed(3);
  for (const Neighbor& c : candidates) {
    reversed.Push(c.dist, c.id);
  }
  const auto out = reversed.SortedTake();
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i].id, expected[i].id);
    EXPECT_EQ(out[i].dist, expected[i].dist);
  }
}

TEST(TopK, SortedTakeEmptiesTheHeap) {
  TopK topk(3);
  topk.Push(1.0f, 1);
  topk.Push(2.0f, 2);
  EXPECT_EQ(topk.size(), 2u);
  EXPECT_EQ(topk.SortedTake().size(), 2u);
  EXPECT_EQ(topk.size(), 0u);
  EXPECT_TRUE(topk.SortedTake().empty());
}

}  // namespace
}  // namespace rago::ann
