//===- psna/Machine.cpp - PS^na machine transitions -----------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "psna/Machine.h"

#include "obs/Telemetry.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace pseq;

//===----------------------------------------------------------------------===
// PsMachineState
//===----------------------------------------------------------------------===

bool PsMachineState::allDone() const {
  if (Bottom)
    return false;
  for (const PsThread &T : Threads)
    if (!T.Prog.isDone())
      return false;
  return true;
}

bool PsMachineState::operator==(const PsMachineState &O) const {
  return Hash == O.Hash && Bottom == O.Bottom && Outs == O.Outs &&
         Threads == O.Threads && Mem == O.Mem;
}

uint64_t PsMachineState::computeHash() const {
  uint64_t H = Bottom ? 0xb0770bULL : 1;
  H = hashCombine(H, Outs.size());
  for (Value V : Outs)
    H = hashCombine(H, V.hash());
  for (const PsThread &T : Threads)
    H = hashCombine(H, T.hash());
  H = hashCombine(H, Mem.hash());
  return H;
}

void PsMachineState::insertMessage(const TimeSlot &Slot, const PsMessage &M,
                                   const Time *View) {
  Time By = Slot.To - Slot.Base;
  for (PsThread &T : Threads) {
    T.V.shift(M.Loc, Slot.Base, By);
    // Promise ids stay sorted: the shift is monotone within a location.
    for (MsgId &Id : T.Promises)
      if (Id.Loc == M.Loc && Id.To > Slot.Base)
        Id.To += By;
  }
  Mem.insert(Slot, M, View);
}

std::string PsMachineState::str() const {
  std::string Out = Bottom ? "BOTTOM " : "";
  for (size_t I = 0, E = Threads.size(); I != E; ++I) {
    const PsThread &T = Threads[I];
    Out += "T" + std::to_string(I) + "(";
    switch (T.Prog.status()) {
    case ProgState::Status::Running:
      Out += "pc=" + std::to_string(T.Prog.pc());
      break;
    case ProgState::Status::Done:
      Out += "ret=" + T.Prog.retVal().str();
      break;
    case ProgState::Status::Error:
      Out += "bot";
      break;
    }
    Out += " V=" + T.V.str() + " |P|=" + std::to_string(T.Promises.size()) +
           ") ";
  }
  Out += "M: " + Mem.str();
  return Out;
}

//===----------------------------------------------------------------------===
// PsMachine
//===----------------------------------------------------------------------===

PsMachineState PsMachine::initialState() const {
  PsMachineState S;
  S.Mem = PsMemory::initial(Prog.numLocs());
  for (unsigned T = 0, E = Prog.numThreads(); T != E; ++T) {
    PsThread Th;
    Th.Prog = ProgState::initial(Prog, T);
    Th.V = View::zero(Prog.numLocs());
    S.Threads.push_back(std::move(Th));
  }
  S.rehash();
  return S;
}

std::vector<Value> PsMachine::readValues() const {
  std::vector<Value> Out;
  for (int64_t V : Cfg.Domain.values())
    Out.push_back(Value::of(V));
  Out.push_back(Value::undef());
  return Out;
}

bool PsMachine::isRacy(const PsMachineState &S, unsigned Tid, unsigned Loc,
                       bool AtomicAccess) const {
  const PsThread &T = S.Threads[Tid];
  for (const PsMessage &M : S.Mem.msgs(Loc)) {
    if (!(T.V.get(Loc) < M.To))
      continue;
    if (T.hasPromise(MsgId{Loc, M.To}))
      continue; // m ∈ M \ P: own promises do not race
    if (AtomicAccess && !M.Valueless)
      continue; // o ≠ na ⇒ m ∈ NAMsg
    return true;
  }
  return false;
}

namespace {

/// (racy-write)/(fail) side condition: ∀m ∈ P. V(m.loc) < m.t.
bool canFail(const PsThread &T) {
  for (const MsgId &Id : T.Promises)
    if (!(T.V.get(Id.Loc) < Id.To))
      return false;
  return true;
}

/// The view [x ↦ t]: zero everywhere except \p Loc.
View singleView(unsigned NumLocs, unsigned Loc, Time To) {
  View V = View::zero(NumLocs);
  V.set(Loc, To);
  return V;
}

/// True when \p M carries exactly the view [M.Loc ↦ M.To].
bool hasSingleView(const PsMemory &Mem, const PsMessage &M) {
  const Time *MV = Mem.view(M);
  if (!MV)
    return false;
  for (unsigned L = 0, E = Mem.numLocs(); L != E; ++L)
    if (MV[L] != (L == M.Loc ? M.To : 0))
      return false;
  return true;
}

/// Release side condition: ∀m ∈ P|Msg_x: m.view = ⊥ — an outstanding
/// valued promise to \p Loc (to any location when \p AnyLoc) with a
/// non-⊥ view blocks the release.
bool releaseBlocked(const PsMachineState &S, unsigned Tid, unsigned Loc,
                    bool AnyLoc) {
  for (const MsgId &Id : S.Threads[Tid].Promises) {
    if (!AnyLoc && Id.Loc != Loc)
      continue;
    const PsMessage *M = S.Mem.find(Id);
    if (!M->Valueless && M->HasView)
      return true;
  }
  return false;
}

} // namespace

void PsMachine::stepFail(const PsMachineState &S, unsigned Tid,
                         std::vector<PsMachineState> &Out) const {
  if (!canFail(S.Threads[Tid]))
    return;
  PsMachineState Next = S;
  Next.Threads[Tid].Prog.setError();
  Next.Bottom = true;
  Out.push_back(std::move(Next));
}

void PsMachine::stepRead(const PsMachineState &S, unsigned Tid,
                         const ProgState::Pending &Pend,
                         std::vector<PsMachineState> &Out,
                         bool ForCertification) const {
  const PsThread &T = S.Threads[Tid];
  unsigned X = Pend.Loc;
  bool Acq = Pend.RM == ReadMode::ACQ;

  // (read): any valued message at or above the view.
  for (const PsMessage &M : S.Mem.msgs(X)) {
    if (M.Valueless || M.To < T.V.get(X))
      continue;
    PsMachineState Next = S;
    PsThread &NT = Next.Threads[Tid];
    NT.Prog.applyRead(Prog, Tid, M.V);
    NT.V.set(X, M.To);
    if (Acq && M.HasView)
      NT.V.join(S.Mem.view(M));
    Out.push_back(std::move(Next));
  }

  // (racy-read): read undef without moving the view.
  if (isRacy(S, Tid, X, Pend.RM != ReadMode::NA)) {
    if (!ForCertification)
      ++RaceStepCount;
    PsMachineState Next = S;
    Next.Threads[Tid].Prog.applyRead(Prog, Tid, Value::undef());
    Out.push_back(std::move(Next));
  }
}

void PsMachine::stepWrite(const PsMachineState &S, unsigned Tid,
                          const ProgState::Pending &Pend,
                          std::vector<PsMachineState> &Out,
                          bool ForCertification) const {
  const PsThread &T = S.Threads[Tid];
  unsigned X = Pend.Loc;
  unsigned NumLocs = Prog.numLocs();
  Time Vx = T.V.get(X);

  // (racy-write): UB when racing.
  if (isRacy(S, Tid, X, Pend.WM != WriteMode::NA)) {
    if (!ForCertification)
      ++RaceStepCount;
    stepFail(S, Tid, Out);
  }

  // A write either stores a new message at \p Slot (with view \p MsgView)
  // or, with no slot, fulfills a promise at NewTo. Fulfilled promise ids
  // lie at or below every slot's Base, so the insert never moves them.
  auto emit = [&](Time NewTo, const std::vector<MsgId> &Fulfilled,
                  const TimeSlot *Slot, const Time *MsgView) {
    PsMachineState Next = S;
    if (Slot) {
      PsMessage M;
      M.Loc = X;
      M.V = Pend.WVal;
      Next.insertMessage(*Slot, M, MsgView);
    }
    PsThread &NT = Next.Threads[Tid];
    NT.Prog.applyWrite(Prog, Tid);
    NT.V.set(X, NewTo);
    for (const MsgId &Id : Fulfilled)
      NT.removePromise(Id);
    Out.push_back(std::move(Next));
  };

  switch (Pend.WM) {
  case WriteMode::NA: {
    // Own ⊥-view promises at x above the view are candidates for
    // fulfillment — either as the final message (matching value) or as
    // extra "split" messages below it (memory: na-write, Appendix B).
    std::vector<const PsMessage *> Cands;
    for (const MsgId &Id : T.Promises) {
      if (Id.Loc != X || !(Vx < Id.To))
        continue;
      const PsMessage *M = S.Mem.find(Id);
      assert(M && "promise without a message");
      if (M->HasView)
        continue; // na-write messages all carry view ⊥
      Cands.push_back(M);
    }
    // Enumerate subsets of candidates to fulfill as splits (≤ SplitBudget).
    unsigned N = static_cast<unsigned>(Cands.size());
    for (uint64_t Mask = 0; Mask < (uint64_t(1) << N); ++Mask) {
      if (static_cast<unsigned>(__builtin_popcountll(Mask)) >
          Cfg.SplitBudget)
        continue;
      Time MaxSplit = Vx;
      std::vector<MsgId> Splits;
      for (unsigned I = 0; I != N; ++I) {
        if (!((Mask >> I) & 1))
          continue;
        Splits.push_back(MsgId{X, Cands[I]->To});
        MaxSplit = std::max(MaxSplit, Cands[I]->To);
      }
      // Final message: fresh slot above every split...
      for (const TimeSlot &Slot : S.Mem.slotsAbove(X, MaxSplit))
        emit(Slot.To, Splits, &Slot, nullptr);
      // ... or fulfillment of a further ⊥-view promise with equal value.
      for (unsigned I = 0; I != N; ++I) {
        if ((Mask >> I) & 1)
          continue;
        const PsMessage *M = Cands[I];
        if (M->Valueless || M->V != Pend.WVal || !(MaxSplit < M->To))
          continue;
        std::vector<MsgId> All = Splits;
        All.push_back(MsgId{X, M->To});
        emit(M->To, All, nullptr, nullptr);
      }
    }
    return;
  }
  case WriteMode::RLX: {
    for (const TimeSlot &Slot : S.Mem.slotsAbove(X, Vx))
      emit(Slot.To, {}, &Slot, singleView(NumLocs, X, Slot.To).data());
    // (memory: fulfill) of an own promise with matching content.
    for (const MsgId &Id : T.Promises) {
      if (Id.Loc != X || !(Vx < Id.To))
        continue;
      const PsMessage *M = S.Mem.find(Id);
      if (M->Valueless || M->V != Pend.WVal || !hasSingleView(S.Mem, *M))
        continue;
      emit(Id.To, {Id}, nullptr, nullptr);
    }
    return;
  }
  case WriteMode::REL: {
    if (releaseBlocked(S, Tid, X, /*AnyLoc=*/false))
      return;
    for (const TimeSlot &Slot : S.Mem.slotsAbove(X, Vx)) {
      View NV = T.V;
      NV.set(X, Slot.To);
      emit(Slot.To, {}, &Slot, NV.data());
    }
    return;
  }
  }
}

void PsMachine::stepRmw(const PsMachineState &S, unsigned Tid,
                        const ProgState::Pending &Pend,
                        std::vector<PsMachineState> &Out,
                        bool ForCertification) const {
  const PsThread &T = S.Threads[Tid];
  unsigned X = Pend.Loc;
  bool Acq = Pend.RM == ReadMode::ACQ;

  auto finish = [&](PsMachineState Next, bool DoesWrite, Value NewVal,
                    const View &ReadView, Time ReadTo, bool Adjacent) {
    PsThread &NT = Next.Threads[Tid];
    if (NT.Prog.isError()) {
      // CAS comparison on undef: UB (subject to the fail condition).
      if (!canFail(T))
        return;
      Next.Bottom = true;
      Out.push_back(std::move(Next));
      return;
    }
    if (!DoesWrite) {
      NT.V = ReadView;
      Out.push_back(std::move(Next));
      return;
    }
    // PS2.1 certifies against *capped* memory: the slot adjacent to a
    // location's top message is closed during certification (a thread may
    // not justify a promise by assuming it wins a future RMW race; doing
    // so requires a reservation, which we do not model). Successful
    // updates are therefore disabled in certification runs — this is what
    // makes lock-protected code promise-robust (DRF guarantees, §5).
    if (Adjacent && ForCertification)
      return;
    std::vector<TimeSlot> Slots;
    if (Adjacent) {
      std::optional<TimeSlot> Slot = S.Mem.adjacentSlot(X, ReadTo);
      if (!Slot.has_value())
        return; // another message is attached: this update is blocked
      Slots.push_back(*Slot);
    } else {
      Slots = S.Mem.slotsAbove(X, ReadView.get(X));
    }
    for (const TimeSlot &Slot : Slots) {
      PsMachineState Cand = Next;
      View NV = ReadView;
      NV.set(X, Slot.To);
      PsMessage M;
      M.Loc = X;
      M.V = NewVal;
      Cand.insertMessage(Slot, M,
                         Pend.WM == WriteMode::REL
                             ? NV.data()
                             : singleView(Prog.numLocs(), X, Slot.To).data());
      Cand.Threads[Tid].V = std::move(NV);
      Out.push_back(std::move(Cand));
    }
  };

  // Release-mode updates are blocked by non-⊥-view promises to x, like
  // release writes.
  if (Pend.WM == WriteMode::REL &&
      releaseBlocked(S, Tid, X, /*AnyLoc=*/false))
    return;

  for (const PsMessage &M : S.Mem.msgs(X)) {
    if (M.Valueless || M.To < T.V.get(X))
      continue;
    PsMachineState Next = S;
    PsThread &NT = Next.Threads[Tid];
    bool DoesWrite = false;
    Value NewVal;
    NT.Prog.applyRmw(Prog, Tid, M.V, DoesWrite, NewVal);
    View RV = T.V;
    RV.set(X, M.To);
    if (Acq && M.HasView)
      RV.join(S.Mem.view(M));
    finish(std::move(Next), DoesWrite, NewVal, RV, M.To,
           /*Adjacent=*/true);
  }

  // Racy update: read undef (no adjacency; no view gain from the read).
  if (isRacy(S, Tid, X, /*AtomicAccess=*/true)) {
    if (!ForCertification)
      ++RaceStepCount;
    PsMachineState Next = S;
    PsThread &NT = Next.Threads[Tid];
    bool DoesWrite = false;
    Value NewVal;
    NT.Prog.applyRmw(Prog, Tid, Value::undef(), DoesWrite, NewVal);
    finish(std::move(Next), DoesWrite, NewVal, T.V, 0, /*Adjacent=*/false);
  }
}

void PsMachine::stepPromise(const PsMachineState &S, unsigned Tid,
                            std::vector<PsMachineState> &Out) const {
  const PsThread &T = S.Threads[Tid];
  if (T.Promises.size() >= Cfg.PromiseBudget)
    return;

  // Promises are only useful for locations this thread can later write.
  AccessSummary Sum = Prog.accessSummary(Tid);
  LocSet Writable = Sum.NaWritten.unionWith(Sum.AtomicAccessed);

  for (unsigned X : Writable.members()) {
    bool Atomic = Prog.isAtomicLoc(X);
    for (const TimeSlot &Slot : S.Mem.slotsAbove(X, T.V.get(X))) {
      View SV = Atomic ? singleView(Prog.numLocs(), X, Slot.To) : View();
      auto emit = [&](const PsMessage &M) {
        PsMachineState Next = S;
        Next.insertMessage(Slot, M, Atomic ? SV.data() : nullptr);
        Next.Threads[Tid].addPromise(MsgId{X, Slot.To});
        Out.push_back(std::move(Next));
      };
      PsMessage M;
      M.Loc = X;
      for (Value V : readValues()) {
        M.V = V;
        emit(M);
      }
      if (!Atomic && !Cfg.SkipNaMarkers) {
        ++NaMarkerCount;
        PsMessage NaMarker;
        NaMarker.Loc = X;
        NaMarker.Valueless = true;
        emit(NaMarker);
      }
    }
  }
}

void PsMachine::stepLower(const PsMachineState &S, unsigned Tid,
                          std::vector<PsMachineState> &Out) const {
  // (lower): replace an own promise ⟨x@t, v, V⟩ by ⟨x@t, v', V'⟩ with
  // v ⊑ v' and V' ⊑ V — i.e. raise the value to undef and/or drop the
  // view to ⊥.
  for (const MsgId &Id : S.Threads[Tid].Promises) {
    const PsMessage *M = S.Mem.find(Id);
    assert(M && "promise without a message");
    if (M->Valueless)
      continue;
    bool CanUndef = !M->V.isUndef();
    bool CanBot = M->HasView;
    for (int Mask = 1; Mask < 4; ++Mask) {
      bool DoUndef = Mask & 1;
      bool DoBot = Mask & 2;
      if ((DoUndef && !CanUndef) || (DoBot && !CanBot))
        continue;
      PsMachineState Next = S;
      Next.Mem.lower(Id, DoUndef, DoBot);
      Out.push_back(std::move(Next));
    }
  }
}

std::vector<PsMachineState>
PsMachine::microSteps(const PsMachineState &S, unsigned Tid,
                      bool ForCertification) const {
  std::vector<PsMachineState> Out;
  const PsThread &T = S.Threads[Tid];
  if (S.Bottom || T.Prog.status() != ProgState::Status::Running)
    return Out;

  ProgState::Pending Pend = T.Prog.pending(Prog, Tid);
  switch (Pend.K) {
  case ProgState::Pending::Kind::Silent: {
    PsMachineState Next = S;
    Next.Threads[Tid].Prog.applySilent(Prog, Tid);
    Out.push_back(std::move(Next));
    break;
  }
  case ProgState::Pending::Kind::Fail:
    stepFail(S, Tid, Out);
    break;
  case ProgState::Pending::Kind::Choose: {
    for (int64_t V : Cfg.Domain.values()) {
      PsMachineState Next = S;
      Next.Threads[Tid].Prog.applyChoose(Prog, Tid, Value::of(V));
      Out.push_back(std::move(Next));
    }
    break;
  }
  case ProgState::Pending::Kind::Read:
    stepRead(S, Tid, Pend, Out, ForCertification);
    break;
  case ProgState::Pending::Kind::Write:
    stepWrite(S, Tid, Pend, Out, ForCertification);
    break;
  case ProgState::Pending::Kind::Rmw:
    stepRmw(S, Tid, Pend, Out, ForCertification);
    break;
  case ProgState::Pending::Kind::Fence: {
    // Single-view approximation (see header): an acquire fence is a no-op
    // on the state; a release fence requires all valued promises to carry
    // view ⊥ (the per-location release condition, globalized).
    if (Pend.FM == FenceMode::REL &&
        releaseBlocked(S, Tid, 0, /*AnyLoc=*/true))
      return Out;
    PsMachineState Next = S;
    Next.Threads[Tid].Prog.applyFence(Prog, Tid);
    Out.push_back(std::move(Next));
    break;
  }
  case ProgState::Pending::Kind::Print: {
    PsMachineState Next = S;
    Next.Outs.push_back(Pend.WVal);
    Next.Threads[Tid].Prog.applyPrint(Prog, Tid);
    Out.push_back(std::move(Next));
    break;
  }
  }

  if (!ForCertification)
    stepPromise(S, Tid, Out);
  stepLower(S, Tid, Out);
  for (PsMachineState &Next : Out)
    Next.rehash();
  return Out;
}

namespace {

struct StateHash {
  size_t operator()(const PsMachineState &S) const {
    return static_cast<size_t>(S.hash());
  }
};

} // namespace

bool PsMachine::certifiable(const PsMachineState &S, unsigned Tid) const {
  if (S.Threads[Tid].Promises.empty())
    return true;
  obs::ScopedTally Tally(Cfg.Telem ? &Cfg.Telem->Counters : nullptr);
  uint64_t &Searches = Tally.slot("psna.cert.searches");
  uint64_t &Nodes = Tally.slot("psna.cert.nodes");
  uint64_t &BudgetHits = Tally.slot("psna.cert.budget_hits");
  ++Searches;
  // Depth-first search over thread-local futures. The stack points into
  // Visited, whose nodes never move, so each state is stored once.
  std::unordered_set<PsMachineState, StateHash> Visited;
  std::vector<const PsMachineState *> Stack;
  Stack.push_back(&*Visited.insert(S).first);
  unsigned Budget = Cfg.CertNodeBudget;
  while (!Stack.empty()) {
    if (Budget-- == 0) {
      ++BudgetHits;
      CertBudgetHit = true;
      return false;
    }
    ++Nodes;
    const PsMachineState &Cur = *Stack.back();
    Stack.pop_back();
    if (Cur.Threads[Tid].Promises.empty())
      return true;
    if (Cur.Bottom)
      continue;
    for (PsMachineState &Next : microSteps(Cur, Tid,
                                           /*ForCertification=*/true)) {
      if (Next.Threads[Tid].Promises.empty())
        return true;
      auto [It, Inserted] = Visited.insert(std::move(Next));
      if (Inserted)
        Stack.push_back(&*It);
    }
  }
  return false;
}

std::vector<PsMachineState>
PsMachine::threadSuccessors(const PsMachineState &S, unsigned Tid) const {
  std::vector<PsMachineState> Out;
  for (PsMachineState &Next : microSteps(S, Tid, /*ForCertification=*/false))
    // (machine: failure) steps need no certification.
    if (Next.Bottom || certifiable(Next, Tid))
      Out.push_back(std::move(Next));
  return Out;
}
