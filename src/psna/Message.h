//===- psna/Message.h - Timestamped messages --------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Messages of PS^na (Fig. 5): valued messages m = ⟨x@t, v, V⟩ and the
/// valueless non-atomic messages u = x@t ∈ NAMsg introduced for race
/// detection. Following PS2/PS2.1 (and required for RMW atomicity), each
/// message additionally occupies a half-open timestamp *range* (From, To];
/// an RMW write attaches its From to the timestamp of the message it read,
/// so no later write can ever slide in between. A message's view is stored
/// by its memory (PsMemory::view); HasView = false is ⊥.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_MESSAGE_H
#define PSEQ_PSNA_MESSAGE_H

#include "lang/Value.h"
#include "psna/View.h"

namespace pseq {

/// One message in the PS^na memory.
struct PsMessage {
  unsigned Loc = 0;
  Time From = 0; ///< exclusive lower end of the occupied range
  Time To = 0;   ///< the message's timestamp t (inclusive upper end)
  bool Valueless = false; ///< u ∈ NAMsg (race-detection marker)
  bool HasView = false;   ///< false = ⊥ (all NAMsg and na writes)
  Value V;                ///< unused when Valueless

  /// The initialization message ⟨x@0, 0, ⊥⟩ (From = To = 0).
  static PsMessage init(unsigned Loc);

  bool isInit() const { return To == 0; }

  bool operator==(const PsMessage &O) const {
    return Loc == O.Loc && From == O.From && To == O.To &&
           Valueless == O.Valueless && HasView == O.HasView && V == O.V;
  }
  uint64_t hash() const;
};

/// Identifies a message (and hence a promise) by location and timestamp.
struct MsgId {
  unsigned Loc = 0;
  Time To = 0;

  bool operator==(const MsgId &O) const { return Loc == O.Loc && To == O.To; }
  bool operator<(const MsgId &O) const {
    if (Loc != O.Loc)
      return Loc < O.Loc;
    return To < O.To;
  }
  uint64_t hash() const;
};

} // namespace pseq

#endif // PSEQ_PSNA_MESSAGE_H
