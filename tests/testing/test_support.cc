#include "tests/testing/test_support.h"

#include <algorithm>
#include <cmath>

#include "retrieval/ann/dataset.h"
#include "retrieval/ann/flat_index.h"

namespace rago::testing {

ann::Matrix CopyMatrix(const ann::Matrix& m) { return m.Clone(); }

AnnTestBed MakeAnnTestBed(const AnnTestBedOptions& options) {
  AnnTestBed bed;
  Rng rng(options.seed);
  bed.data = ann::GenClustered(options.rows, options.dim, options.clusters,
                               options.spread, rng);
  bed.queries =
      ann::GenQueriesNear(bed.data, options.num_queries, options.query_noise,
                          rng);
  const ann::FlatIndex flat(CopyMatrix(bed.data));
  bed.truth.reserve(bed.queries.rows());
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    bed.truth.push_back(flat.Search(bed.queries.Row(q), options.truth_k));
  }
  return bed;
}

AnnTestBed MakeAnnTestBed(size_t rows, size_t dim, size_t num_queries,
                          uint64_t seed) {
  AnnTestBedOptions options;
  options.rows = rows;
  options.dim = dim;
  options.num_queries = num_queries;
  options.seed = seed;
  return MakeAnnTestBed(options);
}

core::RAGSchema TinyHyperscaleSchema() {
  return core::MakeHyperscaleSchema(8, 1);
}

core::RAGSchema TinyLongContextSchema(int64_t context_tokens) {
  return core::MakeLongContextSchema(8, context_tokens);
}

core::RAGSchema TinyIterativeSchema(int retrievals_per_sequence) {
  return core::MakeIterativeSchema(8, retrievals_per_sequence);
}

core::RAGSchema TinyRewriterRerankerSchema() {
  return core::MakeRewriterRerankerSchema(8);
}

core::PipelineModel TinyHyperscaleModel() {
  return core::PipelineModel(TinyHyperscaleSchema(), DefaultCluster());
}

opt::SearchOptions SmallSearchGrid() {
  opt::SearchOptions options;
  options.batch_sizes = {1, 8, 64};
  options.decode_batch_sizes = {8, 64, 256};
  return options;
}

::testing::AssertionResult RelNear(double actual, double expected,
                                   double rel_tol) {
  const double scale = std::max(std::fabs(expected), 1e-30);
  const double rel = std::fabs(actual - expected) / scale;
  if (rel <= rel_tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "actual " << actual << " vs expected " << expected
         << " differs by relative error " << rel << " > tolerance "
         << rel_tol;
}

}  // namespace rago::testing
