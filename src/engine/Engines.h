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
/// orec-eager (encounter-time locking, in place). The sharded tier
/// (src/shard) and LibTm (src/libtm) run the TL2 policy on their own
/// runtimes, over partitioned stripes and per-object orecs; see
/// DESIGN.md §4i for the full matrix.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_ENGINE_ENGINES_H
#define GSTM_ENGINE_ENGINES_H

#include "engine/OrecEager.h"
#include "engine/Tl2.h"

#endif // GSTM_ENGINE_ENGINES_H
