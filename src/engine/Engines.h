//===- engine/Engines.h - The policy-templated engine family -------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header for the word-STM engine family: include this to get
/// both policies on the chassis — TL2 (lazy, commit-time locking) and
/// orec-eager (encounter-time locking, in place), both over the flat
/// runtime, where a word's orec is a table stripe and an object's its
/// own Meta word (LibTm, src/libtm, names that runtime under TL2). The
/// sharded tier (src/shard) runs the TL2 policy over partitioned
/// stripes; see DESIGN.md §4i for the full matrix.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_ENGINES_H
#define GSTM_ENGINE_ENGINES_H

#include "engine/OrecEager.h"
#include "engine/Tl2.h"

#endif // GSTM_ENGINE_ENGINES_H
