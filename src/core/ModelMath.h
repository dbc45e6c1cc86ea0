//===- core/ModelMath.h - Shared edge-probability math -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two model computations every TSA consumer repeats, extracted to one
/// place so they cannot drift apart:
///
///  * frequency -> probability normalization (Algorithm 1's
///    `P(e_i) = f(e_i) / sum f(e_j)`), including the canonical ordering
///    (descending probability, ties by ascending destination id) that
///    makes "the head edge is Pmax" true everywhere, and
///  * the paper's high-probability destination selection D(s): the prefix
///    of edges whose probability is at least `Pmax / Tfactor` (Sec. IV).
///
/// Consumers: Tsa::successors (normalization), the Analyzer and
/// GuidedPolicy via highProbabilitySuccessors (selection), and
/// `tools/model_ctl info`. A unit test in
/// tests/model_lifecycle_test.cpp pins the old (pre-extraction) code
/// paths and these helpers to identical results.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_MODELMATH_H
#define GSTM_CORE_MODELMATH_H

#include "core/Tts.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace gstm {

/// One outbound edge of a TSA state. Probability is always derived from
/// Count via normalizeEdgeProbabilities — it is never stored or
/// serialized independently, so the two cannot disagree.
struct TsaEdge {
  StateId Dest;
  uint64_t Count;
  double Probability;
};

/// Fills every edge's Probability with Count / sum(Counts) and sorts the
/// edges into the canonical order: descending probability, ties broken by
/// ascending destination id. With all counts zero every probability is 0.
inline void normalizeEdgeProbabilities(std::vector<TsaEdge> &Edges) {
  uint64_t Total = 0;
  for (const TsaEdge &E : Edges)
    Total += E.Count;
  for (TsaEdge &E : Edges)
    E.Probability = Total ? static_cast<double>(E.Count) /
                                static_cast<double>(Total)
                          : 0.0;
  std::sort(Edges.begin(), Edges.end(),
            [](const TsaEdge &A, const TsaEdge &B) {
              if (A.Probability != B.Probability)
                return A.Probability > B.Probability;
              return A.Dest < B.Dest;
            });
}

/// Length of the high-probability prefix D(s) of \p Edges: the edges with
/// probability >= Pmax / Tfactor. \p Edges must already be in the
/// canonical normalized order (head edge = Pmax).
inline size_t highProbabilityPrefix(const std::vector<TsaEdge> &Edges,
                                    double Tfactor) {
  assert(Tfactor >= 1.0 && "Tfactor below 1 would reject the best edge");
  if (Edges.empty())
    return 0;
  double Threshold = Edges.front().Probability / Tfactor;
  size_t Keep = 0;
  while (Keep < Edges.size() && Edges[Keep].Probability >= Threshold)
    ++Keep;
  return Keep;
}

/// The paper's D(s) as a value: \p Edges truncated to the
/// high-probability prefix.
inline std::vector<TsaEdge> selectHighProbability(std::vector<TsaEdge> Edges,
                                                  double Tfactor) {
  Edges.resize(highProbabilityPrefix(Edges, Tfactor));
  return Edges;
}

} // namespace gstm

#endif // GSTM_CORE_MODELMATH_H
