#include "retrieval/ann/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>

#include "common/check.h"
#include "retrieval/ann/kernels/distance_kernels.h"

namespace rago::ann {

HnswIndex::HnswIndex(Matrix data, const HnswOptions& options, Rng& rng)
    : data_(std::move(data)), options_(options) {
  RAGO_REQUIRE(!data_.empty(), "HNSW requires a non-empty database");
  RAGO_REQUIRE(options_.max_degree >= 2, "max_degree must be at least 2");
  RAGO_REQUIRE(options_.ef_construction >= options_.max_degree,
               "ef_construction should be at least max_degree");
  level_multiplier_ = 1.0 / std::log(options_.max_degree);

  nodes_.resize(data_.rows());
  int64_t build_evals = 0;  // Build-time distance evals, not reported.
  Scratch scratch;          // Gather buffers shared by the whole build.
  for (size_t i = 0; i < data_.rows(); ++i) {
    const auto id = static_cast<int32_t>(i);
    const int level = DrawLevel(rng);
    Node& node = nodes_[i];
    node.level = level;
    node.links.resize(static_cast<size_t>(level) + 1);

    if (entry_point_ < 0) {
      entry_point_ = id;
      max_level_ = level;
      continue;
    }

    // Phase 1: greedy descent from the global entry down to level+1.
    int32_t entry = entry_point_;
    for (int layer = max_level_; layer > level; --layer) {
      entry = GreedyStep(data_.Row(i), entry, layer, build_evals, scratch);
    }

    // Phase 2: beam search and link at each layer from min(level,
    // max_level_) down to 0.
    for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
      const std::vector<Neighbor> found =
          SearchLayer(data_.Row(i), entry, options_.ef_construction,
                      layer, build_evals, scratch);
      // Base layer allows 2M links (standard HNSW practice).
      const int m = layer == 0 ? 2 * options_.max_degree
                               : options_.max_degree;
      const std::vector<int32_t> selected = SelectNeighbors(found, m);
      for (int32_t nb : selected) {
        node.links[static_cast<size_t>(layer)].push_back(nb);
        auto& back = nodes_[static_cast<size_t>(nb)]
                         .links[static_cast<size_t>(layer)];
        back.push_back(id);
        if (static_cast<int>(back.size()) > m) {
          // Re-prune the neighbor's links with the same diversity
          // heuristic used at insertion. Keeping only the m *nearest*
          // would sever inter-cluster bridges and disconnect the
          // graph on clustered data. The overflowing link list stages
          // through the gather buffers like any other candidate block.
          scratch.ids.assign(back.begin(), back.end());
          BatchDist(data_.Row(static_cast<size_t>(nb)), back.size(),
                    scratch, build_evals);
          std::vector<Neighbor> candidates;
          candidates.reserve(back.size());
          for (size_t j = 0; j < back.size(); ++j) {
            candidates.push_back(
                Neighbor{scratch.dists[j], scratch.ids[j]});
          }
          std::sort(candidates.begin(), candidates.end());
          back = SelectNeighbors(candidates, m);
        }
      }
      if (!found.empty()) {
        entry = static_cast<int32_t>(found.front().id);
      }
    }

    if (level > max_level_) {
      max_level_ = level;
      entry_point_ = id;
    }
  }
}

int
HnswIndex::DrawLevel(Rng& rng) const {
  const double u = std::max(rng.NextDouble(), 1e-12);
  return static_cast<int>(-std::log(u) * level_multiplier_);
}

float
HnswIndex::Dist(const float* query, int32_t id, int64_t& evals) const {
  ++evals;
  return kernels::DistanceOne(query, data_.Row(static_cast<size_t>(id)),
                              data_.dim());
}

void
HnswIndex::BatchDist(const float* query, size_t count, Scratch& scratch,
                     int64_t& evals) const {
  const size_t dim = data_.dim();
  if (scratch.rows.size() < count * dim) {
    scratch.rows.resize(count * dim);
  }
  if (scratch.dists.size() < count) {
    scratch.dists.resize(count);
  }
  for (size_t i = 0; i < count; ++i) {
    const float* row = data_.Row(static_cast<size_t>(scratch.ids[i]));
    std::copy(row, row + dim, scratch.rows.data() + i * dim);
  }
  kernels::DistanceBatch(query, scratch.rows.data(), count, dim,
                         scratch.dists.data());
  evals += static_cast<int64_t>(count);
}

int32_t
HnswIndex::GreedyStep(const float* query, int32_t entry, int layer,
                      int64_t& evals, Scratch& scratch) const {
  int32_t current = entry;
  float best = Dist(query, current, evals);
  bool improved = true;
  while (improved) {
    improved = false;
    const std::vector<int32_t>& links =
        nodes_[static_cast<size_t>(current)].links[static_cast<size_t>(
            layer)];
    if (links.empty()) {
      break;
    }
    scratch.ids.assign(links.begin(), links.end());
    BatchDist(query, scratch.ids.size(), scratch, evals);
    // Sequential running-best over the batch keeps the legacy
    // semantics: the first occurrence of the block's minimum wins.
    for (size_t i = 0; i < scratch.ids.size(); ++i) {
      if (scratch.dists[i] < best) {
        best = scratch.dists[i];
        current = scratch.ids[i];
        improved = true;
      }
    }
  }
  return current;
}

std::vector<Neighbor>
HnswIndex::SearchLayer(const float* query, int32_t entry, int ef,
                       int layer, int64_t& evals, Scratch& scratch) const {
  std::unordered_set<int32_t> visited = {entry};
  // Min-heap of candidates to expand; max-heap of the ef best results.
  // The walk stops and admits on the exact ef-th distance after every
  // admission, which the results heap keeps at its top.
  std::priority_queue<Neighbor, std::vector<Neighbor>,
                      std::greater<Neighbor>>
      candidates;
  std::priority_queue<Neighbor> results;
  const auto bound = static_cast<size_t>(ef);
  auto threshold = [&results, bound] {
    return results.size() < bound ? std::numeric_limits<float>::infinity()
                                  : results.top().dist;
  };
  // Called only below the threshold, so the newcomer always stays.
  auto admit = [&results, bound](const Neighbor& result) {
    results.push(result);
    if (results.size() > bound) {
      results.pop();
    }
  };
  const float entry_dist = Dist(query, entry, evals);
  candidates.push(Neighbor{entry_dist, entry});
  admit(Neighbor{entry_dist, entry});

  while (!candidates.empty()) {
    const Neighbor current = candidates.top();
    candidates.pop();
    if (current.dist > threshold()) {
      break;  // No candidate can improve the result set.
    }
    // Stage this hop's unvisited neighbors into the gather buffers
    // (link order preserved), then score the block in one kernel call.
    scratch.ids.clear();
    for (int32_t nb :
         nodes_[static_cast<size_t>(current.id)].links[static_cast<size_t>(
             layer)]) {
      if (visited.insert(nb).second) {
        scratch.ids.push_back(nb);
      }
    }
    if (scratch.ids.empty()) {
      continue;
    }
    BatchDist(query, scratch.ids.size(), scratch, evals);
    for (size_t i = 0; i < scratch.ids.size(); ++i) {
      const float d = scratch.dists[i];
      if (d < threshold()) {
        candidates.push(Neighbor{d, scratch.ids[i]});
        admit(Neighbor{d, scratch.ids[i]});
      }
    }
  }
  // The heap pops worst first; fill from the back for ascending order.
  std::vector<Neighbor> found(results.size());
  for (size_t i = found.size(); i > 0; results.pop()) {
    found[--i] = results.top();
  }
  return found;
}

std::vector<int32_t>
HnswIndex::SelectNeighbors(const std::vector<Neighbor>& found, int m) const {
  // Heuristic diversity selection: keep a candidate only if it is
  // closer to the query than to every already-selected neighbor.
  std::vector<int32_t> selected;
  for (const Neighbor& candidate : found) {
    if (static_cast<int>(selected.size()) >= m) {
      break;
    }
    bool diverse = true;
    for (int32_t chosen : selected) {
      const float to_chosen = kernels::DistanceOne(
          data_.Row(static_cast<size_t>(candidate.id)),
          data_.Row(static_cast<size_t>(chosen)), data_.dim());
      if (to_chosen < candidate.dist) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      selected.push_back(static_cast<int32_t>(candidate.id));
    }
  }
  // Fall back to plain nearest if diversity pruned too aggressively.
  for (const Neighbor& candidate : found) {
    if (static_cast<int>(selected.size()) >= m) {
      break;
    }
    if (std::find(selected.begin(), selected.end(),
                  static_cast<int32_t>(candidate.id)) == selected.end()) {
      selected.push_back(static_cast<int32_t>(candidate.id));
    }
  }
  return selected;
}

std::vector<Neighbor>
HnswIndex::Search(const float* query, size_t k, int ef_search,
                  int64_t* distance_evals) const {
  RAGO_REQUIRE(ef_search >= 1, "ef_search must be positive");
  int64_t evals = 0;
  Scratch scratch;
  int32_t entry = entry_point_;
  for (int layer = max_level_; layer > 0; --layer) {
    entry = GreedyStep(query, entry, layer, evals, scratch);
  }
  std::vector<Neighbor> found = SearchLayer(
      query, entry, std::max<int>(ef_search, static_cast<int>(k)), 0,
      evals, scratch);
  if (found.size() > k) {
    found.resize(k);
  }
  if (distance_evals != nullptr) {
    *distance_evals += evals;
  }
  return found;
}

int64_t
HnswIndex::GraphBytes() const {
  int64_t total = 0;
  for (const Node& node : nodes_) {
    for (const auto& layer : node.links) {
      total += static_cast<int64_t>(layer.size()) * sizeof(int32_t);
    }
  }
  return total;
}

std::vector<std::vector<Neighbor>>
HnswIndex::SearchBatch(const Matrix& queries, size_t k, int ef_search,
                       int64_t* distance_evals) const {
  RAGO_REQUIRE(queries.dim() == data_.dim(), "query dimensionality mismatch");
  std::vector<std::vector<Neighbor>> out(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    out[q] = Search(queries.Row(q), k, ef_search, distance_evals);
  }
  return out;
}

}  // namespace rago::ann
