/**
 * @file distance.h
 * Scalar distance reference for the functional ANN library.
 *
 * Every index ranks by squared L2 distance, smaller meaning more
 * similar. This per-pair function is the portable scalar reference.
 * Scan loops should use the batched kernel layer in
 * kernels/distance_kernels.h instead, which runs the same math through
 * runtime-dispatched SIMD variants (the scalar variant is bit-identical
 * to this loop).
 */
#ifndef RAGO_RETRIEVAL_ANN_DISTANCE_H
#define RAGO_RETRIEVAL_ANN_DISTANCE_H

#include <cstddef>

namespace rago::ann {

/// Squared L2 distance between two `dim`-wide vectors.
float L2Sq(const float* a, const float* b, size_t dim);

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_DISTANCE_H
