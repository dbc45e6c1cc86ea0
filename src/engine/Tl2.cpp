//===- engine/Tl2.cpp - TL2 over the flat stripe table --------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "engine/Tl2.h"

namespace gstm {

template class EngineTxn<Tl2Policy>;

} // namespace gstm
