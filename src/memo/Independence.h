//===- memo/Independence.h - Conservative step independence ----*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conservative conflict predicate the sleep-set pruning is built on.
/// A Footprint over-approximates everything one scheduling unit's next
/// step(s) can read, write, or observe:
///
///  * Locs — memory locations touched. For a PS^na thread this closes
///    over promise insertion points (any writable location) and the
///    certification search's read set whenever the thread may still
///    promise, because certification outcomes read arbitrary locations
///    the thread accesses (see DESIGN.md "Sleep sets").
///  * Output — appends to the globally-ordered print sequence; two
///    outputs never commute (their interleavings are distinct behaviors).
///  * Global — conflicts with everything (fences, held promises,
///    permission transfer; anything whose commutation we cannot argue).
///
/// Two steps are independent iff neither is Global, at most one prints,
/// and their location sets are disjoint. Disjointness is sufficient in
/// PS^na because message insertion, visibility, racy-read/racy-write
/// detection, and timestamp rank shifts are all per-location: steps at
/// disjoint locations produce order-isomorphic (hence, with dense ranks,
/// identical) states in either order.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_MEMO_INDEPENDENCE_H
#define PSEQ_MEMO_INDEPENDENCE_H

#include "support/LocSet.h"

namespace pseq {
namespace memo {

/// Over-approximation of one step's observable effect.
struct Footprint {
  LocSet Locs;
  bool Output = false;
  bool Global = false;

  static Footprint global() {
    Footprint F;
    F.Global = true;
    return F;
  }
};

inline bool independent(const Footprint &A, const Footprint &B) {
  if (A.Global || B.Global)
    return false;
  if (A.Output && B.Output)
    return false;
  return A.Locs.intersectWith(B.Locs).isEmpty();
}

inline bool conflicts(const Footprint &A, const Footprint &B) {
  return !independent(A, B);
}

} // namespace memo
} // namespace pseq

#endif // PSEQ_MEMO_INDEPENDENCE_H
