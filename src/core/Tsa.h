//===- core/Tsa.h - Thread state automaton (the model) -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread state automaton (TSA) of paper Sec. III: states are interned
/// thread transactional states; an edge s -> d is weighted by the observed
/// transition frequency, and its probability is the frequency divided by
/// the sum of all outbound frequencies of s (Algorithm 1). The model is
/// built from the tuple sequences of one or more profiling runs, or
/// reconstructed state-by-state via internState/addTransition — the
/// surface model/Serialize.h uses to rebuild a Tsa from persisted
/// frequencies. On-disk persistence itself lives in model/Serialize.h
/// (one JSON document per model), not here.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_CORE_TSA_H
#define GSTM_CORE_TSA_H

#include "core/ModelMath.h"
#include "core/Tts.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace gstm {

/// The probabilistic thread state automaton.
class Tsa {
public:
  /// Adds one profiling run's tuple sequence: interns every state and
  /// counts the transitions between consecutive tuples. Runs are
  /// independent; no transition is counted across run boundaries.
  void addRun(const std::vector<StateTuple> &Run);

  /// Interns \p S (which must be canonicalized) and returns its dense id.
  /// Building block for reconstruction from serialized or learned
  /// frequencies; addRun is built on it.
  StateId internState(const StateTuple &S) { return intern(S); }

  /// Adds \p Count observations of the transition \p From -> \p To. Both
  /// ids must have been returned by internState/lookup.
  void addTransition(StateId From, StateId To, uint64_t Count);

  /// Number of distinct states in the model (paper Table III).
  size_t numStates() const { return States.size(); }

  /// Total transition observations.
  uint64_t numTransitions() const { return TotalTransitions; }

  const StateTuple &state(StateId Id) const { return States[Id]; }

  /// Returns the id of \p S if the model knows it.
  std::optional<StateId> lookup(const StateTuple &S) const;

  /// Outbound edges of \p Id with probabilities normalized over the
  /// state's total outbound frequency, in the canonical order of
  /// core/ModelMath.h (descending probability, ties by destination id).
  std::vector<TsaEdge> successors(StateId Id) const;

  /// Sum of outbound frequencies of \p Id.
  uint64_t outFrequency(StateId Id) const;

  /// Approximate in-memory footprint in bytes (paper quotes model sizes;
  /// reported by the table benches).
  size_t approxSizeBytes() const;

private:
  StateId intern(const StateTuple &S);

  std::vector<StateTuple> States;
  std::unordered_map<StateTuple, StateId, StateTupleHash> Index;
  /// Transitions[s]: dest -> count.
  std::vector<std::unordered_map<StateId, uint64_t>> Transitions;
  std::vector<uint64_t> OutTotals;
  uint64_t TotalTransitions = 0;
};

} // namespace gstm

#endif // GSTM_CORE_TSA_H
