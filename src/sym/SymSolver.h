//===- sym/SymSolver.h - Path-condition decision procedure ------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The path-condition decision procedure of the symbolic refinement
/// backend. The engine reduces every path condition to a conjunction of
/// per-identity domain constraints (interval × congruence × may-undef, one
/// per symbolic value) and decides it with the built-in interval/congruence
/// procedure, which is exact for this constraint language: each conjunct
/// constrains one identity, and the engine has already met repeated
/// constraints on the same identity into one AbsDom, so the conjunction is
/// satisfiable iff no conjunct denotes the empty set.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SYM_SYMSOLVER_H
#define PSEQ_SYM_SYMSOLVER_H

#include "sym/SymState.h"

#include <vector>

namespace pseq::sym {

/// One conjunct: identity \p Id ranges over \p Dom.
struct SymConstraint {
  uint64_t Id = 0;
  analysis::AbsDom Dom;
};

/// Satisfiability of the conjunction ⋀ (Cs[i].Id ∈ Cs[i].Dom).
inline bool satisfiable(const std::vector<SymConstraint> &Cs) {
  for (const SymConstraint &C : Cs)
    if (C.Dom.isBottom())
      return false;
  return true;
}

} // namespace pseq::sym

#endif // PSEQ_SYM_SYMSOLVER_H
