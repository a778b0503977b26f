#include "retrieval/ann/distance.h"

namespace rago::ann {

float
L2Sq(const float* a, const float* b, size_t dim) {
  float sum = 0.0f;
  for (size_t d = 0; d < dim; ++d) {
    const float diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

}  // namespace rago::ann
