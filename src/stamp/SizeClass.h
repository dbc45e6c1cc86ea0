//===- stamp/SizeClass.h - Workload input size classes -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// STAMP inputs come in small/medium/large classes; the paper trains its
/// models on medium inputs and evaluates on other sizes. Each workload
/// maps these classes to its own parameters (scaled to finish in
/// milliseconds-to-seconds on one core; every bench exposes --size).
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_STAMP_SIZECLASS_H
#define GSTM_STAMP_SIZECLASS_H

#include <string>

namespace gstm {

enum class SizeClass { Small, Medium, Large };

inline const char *sizeClassName(SizeClass S) {
  switch (S) {
  case SizeClass::Small:
    return "small";
  case SizeClass::Medium:
    return "medium";
  case SizeClass::Large:
    return "large";
  }
  return "?";
}

/// The names sizeClassFromName knows, for messages.
inline constexpr const char *SizeClassNames = "small, medium or large";

/// Looks up "small", "medium" or "large"; false on any other name.
inline bool sizeClassFromName(const std::string &Name, SizeClass &Out) {
  for (SizeClass S : {SizeClass::Small, SizeClass::Medium, SizeClass::Large})
    if (Name == sizeClassName(S)) {
      Out = S;
      return true;
    }
  return false;
}

} // namespace gstm

#endif // GSTM_STAMP_SIZECLASS_H
