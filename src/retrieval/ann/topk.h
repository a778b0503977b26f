/**
 * @file topk.h
 * Bounded top-k accumulator for nearest-neighbor search.
 *
 * TopK is a reservoir (FAISS's ReservoirTopN; André, Kermarrec & Le
 * Scouarnec, VLDB 2015): candidates are appended without a branch to a
 * buffer of 2k, and a full buffer is cut back to its k smallest with
 * one selection pass, which also tightens the admission bound. Its
 * result is the k smallest candidates under the total `(dist, id)`
 * order, which are unique, so it is order-independent: any push order
 * of the same candidates returns the same neighbors. Distances must be
 * finite or +inf; NaN has no place in the order and is never admitted.
 */
#ifndef RAGO_RETRIEVAL_ANN_TOPK_H
#define RAGO_RETRIEVAL_ANN_TOPK_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace rago::ann {

/// One search hit: distance (smaller is better) and database id.
struct Neighbor {
  float dist = 0.0f;
  int64_t id = -1;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) {
      return a.dist < b.dist;
    }
    return a.id < b.id;  // Deterministic tie-break.
  }

  friend bool operator>(const Neighbor& a, const Neighbor& b) {
    return b < a;
  }
};

/// Keeps the k smallest `(dist, id)` candidates seen so far.
class TopK {
 public:
  explicit TopK(size_t k)
      : k_(k), buffer_(2 * k), end_(buffer_.data()) {
    RAGO_REQUIRE(k > 0, "top-k requires k >= 1");
  }

  // The write cursor points into the buffer, so a copy would write
  // into its source; moving keeps the buffer and the cursor valid.
  TopK(const TopK&) = delete;
  TopK& operator=(const TopK&) = delete;
  TopK(TopK&&) = default;
  TopK& operator=(TopK&&) = default;

  /// Offers a candidate. Branch-free except for the compaction that
  /// runs once per k admissions at most.
  void Push(float dist, int64_t id) {
    *end_ = Neighbor{dist, id};
    // A candidate at the bound may still win its id tie-break.
    end_ += static_cast<std::ptrdiff_t>(dist <= bound_);
    if (end_ == buffer_.data() + buffer_.size()) {
      Compact();
    }
  }

  /// Candidates held: at least min(k, admitted), at most 2k - 1.
  size_t size() const { return static_cast<size_t>(end_ - buffer_.data()); }

  /// The k smallest candidates in ascending order, in a vector of
  /// exactly that size; empties the accumulator for reuse.
  std::vector<Neighbor> SortedTake() {
    Neighbor* begin = buffer_.data();
    Neighbor* kept = begin + std::min(size(), k_);
    std::nth_element(begin, kept, end_);
    std::sort(begin, kept);
    std::vector<Neighbor> out(begin, kept);
    end_ = begin;
    bound_ = std::numeric_limits<float>::infinity();
    return out;
  }

 private:
  /// Cuts the full buffer to its k smallest and sets the bound to the
  /// k-th distance: anything farther can never enter the result.
  void Compact() {
    Neighbor* begin = buffer_.data();
    Neighbor* kth = begin + (k_ - 1);
    std::nth_element(begin, kth, end_);
    bound_ = kth->dist;
    end_ = begin + k_;
  }

  size_t k_;
  float bound_ = std::numeric_limits<float>::infinity();
  std::vector<Neighbor> buffer_;  // 2k slots; [data(), end_) are live.
  Neighbor* end_;
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_TOPK_H
