//===- libtm/LibTm.cpp - TL2 over per-object orecs ------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "libtm/LibTm.h"

namespace gstm {

template class EngineTxn<Tl2Policy, LibTm>;

} // namespace gstm
