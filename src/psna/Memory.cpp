//===- psna/Memory.cpp - The message memory -------------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "psna/Memory.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace pseq;

PsMemory PsMemory::initial(unsigned NumLocs) {
  PsMemory M;
  M.NumLocs = NumLocs;
  for (unsigned L = 0; L != NumLocs; ++L)
    M.Msgs.push_back(PsMessage::init(L));
  M.Views.assign(size_t(NumLocs) * NumLocs, 0);
  return M;
}

std::span<const PsMessage> PsMemory::msgs(unsigned Loc) const {
  assert(Loc < NumLocs && "location out of range");
  auto ByLoc = [](const PsMessage &M, unsigned L) { return M.Loc < L; };
  auto B = std::lower_bound(Msgs.begin(), Msgs.end(), Loc, ByLoc);
  auto E = std::lower_bound(B, Msgs.end(), Loc + 1, ByLoc);
  return {B, E};
}

void PsMemory::insert(const TimeSlot &Slot, PsMessage M, const Time *View) {
  assert(M.Loc < NumLocs && "location out of range");
  assert(Slot.Base <= Slot.From && Slot.From < Slot.To &&
         "empty or inverted message range");
  Time By = Slot.To - Slot.Base;
  (void)rankAdd(msgs(M.Loc).back().To, By); // the new top must fit
  size_t Pos = Msgs.size();
  for (size_t I = 0, E = Msgs.size(); I != E; ++I) {
    PsMessage &Old = Msgs[I];
    if (Old.Loc == M.Loc) {
      if (Old.From > Slot.Base)
        Old.From += By;
      if (Old.To > Slot.Base) {
        Old.To += By;
        Pos = std::min(Pos, I);
      }
    } else if (Old.Loc > M.Loc) {
      Pos = std::min(Pos, I);
    }
    // ⊥ views are all zeros, which never exceed Base.
    Time &T = Views[I * NumLocs + M.Loc];
    if (T > Slot.Base)
      T += By;
  }
  M.From = Slot.From;
  M.To = Slot.To;
  M.HasView = View != nullptr;
  Msgs.insert(Msgs.begin() + Pos, M);
  auto At = Views.begin() + Pos * NumLocs;
  if (View)
    Views.insert(At, View, View + NumLocs);
  else
    Views.insert(At, NumLocs, 0);
}

const PsMessage *PsMemory::find(MsgId Id) const {
  for (const PsMessage &M : msgs(Id.Loc))
    if (M.To == Id.To)
      return &M;
  return nullptr;
}

void PsMemory::lower(MsgId Id, bool ToUndef, bool ToBot) {
  const PsMessage *Found = find(Id);
  assert(Found && "lowering a missing message");
  size_t I = Found - Msgs.data();
  if (ToUndef)
    Msgs[I].V = Value::undef();
  if (ToBot) {
    Msgs[I].HasView = false;
    std::fill_n(Views.begin() + I * NumLocs, NumLocs, 0);
  }
}

std::vector<TimeSlot> PsMemory::slotsAbove(unsigned Loc, Time After) const {
  std::span<const PsMessage> Ms = msgs(Loc);
  std::vector<TimeSlot> Out;
  // Gaps between consecutive messages: ranks are dense, so a gap is one
  // rank wide and the new message takes the two fresh ranks above its
  // lower end. After is always an endpoint, hence never inside a gap.
  for (size_t I = 0; I + 1 < Ms.size(); ++I) {
    Time GapLo = Ms[I].To;
    if (GapLo == Ms[I + 1].From || GapLo < After)
      continue; // adjacent messages, or below the required lower bound
    Out.push_back({GapLo, rankAdd(GapLo, 1), rankAdd(GapLo, 2)});
  }
  // Past the maximal message.
  Time Max = Ms.back().To;
  Out.push_back({Max, rankAdd(Max, 1), rankAdd(Max, 2)});
  return Out;
}

std::optional<TimeSlot> PsMemory::adjacentSlot(unsigned Loc,
                                               Time ReadTo) const {
  std::span<const PsMessage> Ms = msgs(Loc);
  for (size_t I = 0, E = Ms.size(); I != E; ++I) {
    if (Ms[I].To != ReadTo)
      continue;
    if (I + 1 < E && Ms[I + 1].From == ReadTo)
      return std::nullopt; // something already attached above
    return TimeSlot{ReadTo, ReadTo, rankAdd(ReadTo, 1)};
  }
  return std::nullopt; // no message with that timestamp
}

uint64_t PsMemory::hash() const {
  uint64_t H = Msgs.size();
  for (const PsMessage &M : Msgs)
    H = hashCombine(H, M.hash());
  return hashRange(H, Views);
}

std::string PsMemory::str() const {
  std::string Out;
  for (const PsMessage &M : Msgs) {
    Out += "<x" + std::to_string(M.Loc) + "@(" + std::to_string(M.From) +
           "," + std::to_string(M.To) + "]";
    if (M.Valueless) {
      Out += " na> ";
      continue;
    }
    Out += ", " + M.V.str() + ", ";
    Out += M.HasView ? viewStr(view(M), NumLocs) : "bot";
    Out += "> ";
  }
  return Out;
}
