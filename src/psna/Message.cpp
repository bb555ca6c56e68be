//===- psna/Message.cpp - Timestamped messages ----------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "psna/Message.h"

#include "support/Hashing.h"

using namespace pseq;

PsMessage PsMessage::init(unsigned Loc) {
  PsMessage M;
  M.Loc = Loc;
  M.V = Value::of(0);
  return M;
}

uint64_t PsMessage::hash() const {
  uint64_t H = hashCombine(Loc, (uint64_t(From) << 32) | To);
  H = hashCombine(H, (Valueless ? 1 : 0) | (HasView ? 2 : 0));
  return hashCombine(H, V.hash());
}

uint64_t MsgId::hash() const { return hashCombine(Loc, To); }
