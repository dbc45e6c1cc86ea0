//===- stamp/TmHashMap.cpp -------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/TmHashMap.h"

using namespace gstm;

TmHashMap::TmHashMap(uint32_t NumBuckets) {
  uint32_t N = bucketCountFor(NumBuckets);
  Mask = N - 1;
  Buckets = std::make_unique<TmList[]>(N);
}
