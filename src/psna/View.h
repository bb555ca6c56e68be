//===- psna/View.h - Thread and message views -------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timestamps and views of the promising semantics (Fig. 5): V ∈ (Loc →
/// Time) ∪ {⊥}. A view maps every location to the latest timestamp the
/// thread (or message) has observed. The paper's presented fragment uses a
/// single current view per thread; message views are optional (⊥ for
/// non-atomic messages) and live in the memory (psna/Memory.h).
///
/// The paper's Time = Q+ matters only up to its order per location, so a
/// timestamp here is a dense per-location rank: at every location the
/// message endpoints ∪ {0} are exactly 0..k. Inserting a message opens
/// fresh ranks and shifts every higher one (PsMachineState::insertMessage),
/// so order-isomorphic states are equal by construction.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_VIEW_H
#define PSEQ_PSNA_VIEW_H

#include <cstdint>
#include <string>
#include <vector>

namespace pseq {

/// A timestamp: a dense rank among its location's message endpoints.
using Time = uint32_t;

/// Aborts: a rank shift would leave the range of Time. As with any exact
/// timestamp arithmetic, wrapping around would reorder messages.
[[noreturn]] void rankOverflow();

/// \returns \p T + \p By, aborting via rankOverflow() when it overflows.
inline Time rankAdd(Time T, Time By) {
  if (T > UINT32_MAX - By)
    rankOverflow();
  return T + By;
}

/// A total view Loc → Time as a flat array (non-⊥ views default every
/// location to timestamp 0).
class View {
  std::vector<Time> T;

public:
  View() = default;

  /// The initial view: timestamp 0 everywhere.
  static View zero(unsigned NumLocs);

  unsigned numLocs() const { return static_cast<unsigned>(T.size()); }
  Time get(unsigned Loc) const { return T[Loc]; }
  void set(unsigned Loc, Time To) { T[Loc] = To; }
  const Time *data() const { return T.data(); }

  /// Pointwise join with the numLocs()-entry view \p O, in place.
  void join(const Time *O);

  /// Moves the timestamp at \p Loc up by \p By when it exceeds \p Base
  /// (a rank shift; see PsMachineState::insertMessage).
  void shift(unsigned Loc, Time Base, Time By) {
    if (T[Loc] > Base)
      T[Loc] += By;
  }

  bool operator==(const View &O) const { return T == O.T; }
  bool operator!=(const View &O) const { return !(*this == O); }
  uint64_t hash() const;
  std::string str() const;
};

/// Renders a numLocs-entry view as "[t0,t1,...]".
std::string viewStr(const Time *V, unsigned NumLocs);

} // namespace pseq

#endif // PSEQ_PSNA_VIEW_H
