//===- psna/Memory.h - The message memory -----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PS^na memory: per location, a list of messages with pairwise
/// disjoint (From, To] ranges, kept sorted by To. Initially every location
/// holds the initialization message ⟨x@0, 0, ⊥⟩ (Def 5.3). All messages
/// sit in one array sorted by (Loc, To), with their views in a parallel
/// flat array, so copying a memory is two allocations.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_MEMORY_H
#define PSEQ_PSNA_MEMORY_H

#include "psna/Message.h"

#include <optional>
#include <span>
#include <vector>

namespace pseq {

/// A placement for a new message at one location, in the ranks the
/// location has once the message is in: the message occupies (From, To],
/// and every timestamp above Base moves up by To - Base to make room. Base
/// is the read message's To for an RMW (From = Base), otherwise the lower
/// end of a gap or the location's maximum (From = Base + 1).
struct TimeSlot {
  Time Base = 0;
  Time From = 0;
  Time To = 0;
};

/// The message memory M.
class PsMemory {
  unsigned NumLocs = 0;
  std::vector<PsMessage> Msgs; // sorted by (Loc, To)
  std::vector<Time> Views;     // NumLocs entries per message; zeros for ⊥

public:
  PsMemory() = default;

  /// Memory with the initialization message for each of \p NumLocs.
  static PsMemory initial(unsigned NumLocs);

  unsigned numLocs() const { return NumLocs; }
  std::span<const PsMessage> msgs(unsigned Loc) const;

  /// \returns the view of \p M, which must be a message of this memory
  /// (from msgs() or find()), or nullptr for ⊥.
  const Time *view(const PsMessage &M) const {
    return M.HasView ? &Views[(&M - Msgs.data()) * NumLocs] : nullptr;
  }

  /// Stores \p M at \p Slot with view \p View (nullptr = ⊥), first moving
  /// every endpoint and view entry at the slot's location above
  /// Slot.Base up by Slot.To - Slot.Base. \p View must already be in the
  /// shifted ranks. Thread views and promises are the caller's to shift
  /// (PsMachineState::insertMessage).
  void insert(const TimeSlot &Slot, PsMessage M, const Time *View);

  /// \returns the message with the given timestamp, or nullptr.
  const PsMessage *find(MsgId Id) const;

  /// (lower): raises the value of message \p Id to undef and/or drops its
  /// view to ⊥.
  void lower(MsgId Id, bool ToUndef, bool ToBot);

  /// Enumerates the distinct placements for a new message at \p Loc whose
  /// timestamp must exceed \p After: one in each gap between messages
  /// above After, plus one past the maximal message.
  std::vector<TimeSlot> slotsAbove(unsigned Loc, Time After) const;

  /// \returns the slot immediately adjacent to the message with timestamp
  /// \p ReadTo (From = ReadTo), used by RMWs — or nothing when another
  /// message already occupies space directly above.
  std::optional<TimeSlot> adjacentSlot(unsigned Loc, Time ReadTo) const;

  bool operator==(const PsMemory &O) const {
    return Msgs == O.Msgs && Views == O.Views;
  }
  uint64_t hash() const;
  std::string str() const;
};

} // namespace pseq

#endif // PSEQ_PSNA_MEMORY_H
