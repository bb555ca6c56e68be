//===- sym/SymEngine.cpp - Symbolic refinement backend --------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The symbolic counterpart of seq/Simulation.cpp: the same Fig. 6
// coinductive simulation, decided over symbolic product states instead of
// concrete ones. The structure mirrors the concrete checker exactly —
// robust-bottom quick saves, a fulfillment (prt) pre-check, per-target-
// transition families of source responses, and a greatest-fixpoint prune —
// so the two lanes agree by construction wherever both decide:
//
//  * the target side is OVER-approximated (reads bind the full domain
//    hull, unrefined may-UB classes spawn bottom obligations), which only
//    adds obligations;
//  * the source side is UNDER-approximated (source responses are claimed
//    only when every concretization supports them: must-equalities,
//    must-refinements, definitely-classified branches), which only removes
//    capabilities.
//
// A completed fixpoint with every root alive is therefore a proof; a dead
// root is only ever reported Unsound after the bounded enumerative checker
// confirms a concrete counterexample.
//
// Convergence: states with equal product keys (pcs, statuses, permission
// sets) are joined; identities survive a join only when the correlation
// holds on both sides, abstract facts join pointwise and switch to
// widening after SymOptions::WidenDelay joins. Spin loops reach a
// fixpoint in a handful of nodes where the enumerators diverge.
//
//===----------------------------------------------------------------------===//

#include "sym/SymEngine.h"

#include "guard/Guard.h"
#include "memo/Fingerprint.h"
#include "memo/MemoContext.h"
#include "obs/Telemetry.h"
#include "seq/AdvancedRefinement.h"
#include "sym/SymSolver.h"

#include <cassert>
#include <chrono>
#include <deque>
#include <unordered_map>

using namespace pseq;
using namespace pseq::sym;
using analysis::AbsDom;
using memo::Fp128;
using memo::fpCombine;
using memo::fpMix;
using memo::fpMixBytes;
using memo::fpSeed;

namespace {

/// One trace label of a symbolic target transition, to be discharged by a
/// matching source response. The permission payloads mirror SeqEvent's:
/// P/P2 for acquire/release moves, F the emitting side's written set, Vm
/// the gained (acquire) or released (release) partial memory.
struct SymLabel {
  enum Kind {
    Choose,
    RlxRead,
    RlxWrite,
    AcqRead,
    RelWrite,
    AcqFence,
    RelFence,
    Syscall
  };
  Kind K = Choose;
  unsigned Loc = 0;
  SymVal V;
  LocSet P, P2, F;
  std::vector<std::pair<unsigned, SymVal>> Vm;

  SymLabel() = default;
  explicit SymLabel(Kind K) : K(K) {}
};

/// The value domain, abstracted once per run: the hull of the domain's
/// defined values (with and without undef) plus an exactness bit. Exact
/// means the hull's concretization is precisely Domain ∪ {undef} — the
/// condition under which a symbolic read binding stands for source read
/// transitions that actually exist in the enumerative machine. Inexact
/// domains (a sparse set whose interval×congruence hull has extra members)
/// keep the engine sound by refusing labeled matches.
struct DomainInfo {
  AbsDom Defined;   // hull of the defined domain values
  AbsDom WithUndef; // Defined ∪ {undef}
  bool Exact = false;
};

DomainInfo makeDomainInfo(const ValueDomain &Dom) {
  DomainInfo D;
  D.Defined = AbsDom::bottom();
  for (int64_t V : Dom.values())
    D.Defined = D.Defined.join(AbsDom::ofConst(V));
  D.WithUndef = D.Defined.join(AbsDom::undef());
  D.Exact = !D.Defined.isBottom();
  if (D.Exact) {
    int64_t Lo = D.Defined.itv().lo(), Hi = D.Defined.itv().hi();
    if (static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo) > 4096) {
      D.Exact = false;
    } else {
      for (int64_t V = Lo; V <= Hi; ++V)
        if (D.Defined.containsInt(V) && !Dom.contains(V)) {
          D.Exact = false;
          break;
        }
    }
  }
  return D;
}

/// The defined fraction of a fact (drops the may-undef bit).
AbsDom definedPart(const AbsDom &A) {
  return AbsDom::make(A.itv(), A.cng(), false);
}

/// \p A minus the single defined value \p K, when the domains can express
/// it (boundary trim / singleton kill); \p A unchanged otherwise. Used to
/// propagate CAS must-disequalities.
AbsDom excludeConst(const AbsDom &A, int64_t K) {
  if (!A.containsInt(K))
    return A;
  const analysis::Interval &I = A.itv();
  if (I.isSingleton())
    return AbsDom::make(analysis::Interval::empty(),
                        analysis::Congruence::empty(), A.mayUndef());
  if (I.lo() == K)
    return AbsDom::make(analysis::Interval::range(K + 1, I.hi()), A.cng(),
                        A.mayUndef());
  if (I.hi() == K)
    return AbsDom::make(analysis::Interval::range(I.lo(), K - 1), A.cng(),
                        A.mayUndef());
  return A; // interior value: not representable, keep the over-approximation
}

/// How a source unlabeled-chain walk ended.
enum class ChainEnd {
  Labeled,   ///< stopped at a pending labeled action
  Uncertain, ///< a step could not be decided definitely (or budget ran out)
  Terminal,  ///< source reached return(v)
  Bottom     ///< source reached ⊥
};

constexpr unsigned NoNode = ~0u;

//===----------------------------------------------------------------------===//
// SymChecker — one symbolic simulation run
//===----------------------------------------------------------------------===//

class SymChecker {
public:
  SymChecker(const Program &SrcP, unsigned SrcTid, const Program &TgtP,
             unsigned TgtTid, const SeqConfig &Cfg, const SymOptions &Opts,
             SymResult &Res)
      : SrcP(SrcP), TgtP(TgtP), SrcTid(SrcTid), TgtTid(TgtTid), Cfg(Cfg),
        Opts(Opts), Res(Res),
        SrcCode(SrcP.thread(SrcTid).Code), TgtCode(TgtP.thread(TgtTid).Code),
        NumLocs(SrcP.numLocs()), Dom(makeDomainInfo(Cfg.Domain)) {}

  void run();

  bool AllAlive = false;
  bool Exhausted = false;
  TruncationCause Cause = TruncationCause::None;
  std::string FailNote;

private:
  struct Node {
    SymProdState St;
    uint64_t Gen = 0;
    unsigned Joins = 0;
    bool Expanded = false;
    bool Saved = false;
    bool Dead = false;
    /// One family per target transition; options are source responses.
    std::vector<std::vector<unsigned>> Families;
  };

  const Program &SrcP, &TgtP;
  unsigned SrcTid, TgtTid;
  const SeqConfig &Cfg;
  const SymOptions &Opts;
  SymResult &Res;
  const std::vector<Instr> &SrcCode, &TgtCode;
  unsigned NumLocs;
  DomainInfo Dom;

  SymIdGen Ids;
  std::vector<Node> Nodes;
  std::unordered_multimap<uint64_t, unsigned> Index;
  std::deque<unsigned> Work;
  std::vector<unsigned> Roots;
  std::unordered_map<Fp128, char, memo::Fp128Hash> GameMemo;

  SymVal freshSym(bool WithUndef) {
    return {Ids.fresh(), WithUndef ? Dom.WithUndef : Dom.Defined};
  }

  void noteFail(const SymProdState &St, const char *What) {
    if (FailNote.empty())
      FailNote = std::string(What) + " at product state " +
                 St.str(&SrcP.locNames());
  }

  // Source-side stepping.
  ChainEnd walkSrcChain(SymProdState &W);
  bool retRefines(const SymProdState &W);
  void branchSync(SymProdState &W, uint64_t CondId, BranchClass C);

  // Symbolic oracle game (the ∀-oracle AND/OR game of Fig. 2, demonic
  // over every source move, decided on source-only projections).
  SymProdState gameView(const SymProdState &St) const;
  bool robustBottom(const SymProdState &St);
  bool robustFulfill(const SymProdState &St, LocSet Need);
  bool gameRun(SymProdState S, uint64_t Rem, unsigned &Budget);
  bool gameStep(const SymProdState &S, uint64_t Rem, unsigned &Budget);

  // Label matching (the advanced matching of Fig. 2 on symbolic labels).
  bool matchLabels(SymProdState &W, const std::vector<SymLabel> &Ls);
  bool matchRmw(SymProdState &W, const std::vector<SymLabel> &Ls, size_t &Idx,
                bool Acq);
  void applyRelease(SymProdState &W, const SymLabel &L);

  // Fixpoint machinery.
  bool classFeasible(SymProdState &W);
  unsigned getOrCreate(SymProdState S);
  void buildFamilies(const SymProdState &St0,
                     std::vector<std::vector<unsigned>> &Fams);
  void expand(unsigned Id);
  void prune(std::vector<char> &Alive);
  void buildRoots();
};

//===----------------------------------------------------------------------===//
// Source chain walking
//===----------------------------------------------------------------------===//

/// Runs the source forward over definite unlabeled steps: silent
/// instructions whose effect every concretization agrees on, plus
/// non-atomic accesses. Stops at the first pending labeled action, at
/// termination, at ⊥, or — the conservative exit — at any step whose
/// outcome the abstraction cannot decide (Uncertain never claims a source
/// response, so it only loses precision, never soundness).
ChainEnd SymChecker::walkSrcChain(SymProdState &W) {
  unsigned Budget = Opts.ChainBudget;
  for (unsigned Step = 0; Step <= Budget; ++Step) {
    if (W.Src.St == ProgState::Status::Error)
      return ChainEnd::Bottom;
    if (W.Src.St == ProgState::Status::Done)
      return ChainEnd::Terminal;
    const Instr &I = SrcCode[W.Src.Pc];
    switch (I.Op) {
    case Instr::Opcode::Assign: {
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.definitelyUB()) {
        W.Src.St = ProgState::Status::Error;
        return ChainEnd::Bottom;
      }
      if (Ev.MayUB)
        return ChainEnd::Uncertain;
      W.Src.Regs[I.Reg] = Ev.V;
      ++W.Src.Pc;
      break;
    }
    case Instr::Opcode::Jmp:
      W.Src.Pc = I.TargetTrue;
      break;
    case Instr::Opcode::Br: {
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.definitelyUB() || Ev.V.Abs.isDefinitelyUndef()) {
        W.Src.St = ProgState::Status::Error; // branch on undef is UB
        return ChainEnd::Bottom;
      }
      if (Ev.MayUB || Ev.V.Abs.mayUndef())
        return ChainEnd::Uncertain;
      if (Ev.V.Abs.definitelyTruthy())
        W.Src.Pc = I.TargetTrue;
      else if (Ev.V.Abs.definitelyFalsy())
        W.Src.Pc = I.TargetFalse;
      else
        return ChainEnd::Uncertain;
      break;
    }
    case Instr::Opcode::Freeze: {
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.definitelyUB()) {
        W.Src.St = ProgState::Status::Error;
        return ChainEnd::Bottom;
      }
      if (Ev.MayUB)
        return ChainEnd::Uncertain;
      if (Ev.V.Abs.isDefinitelyUndef())
        return ChainEnd::Labeled; // pending choose(v)
      if (Ev.V.Abs.mayUndef())
        return ChainEnd::Uncertain; // mixed: silent or choose
      W.Src.Regs[I.Reg] = Ev.V;
      ++W.Src.Pc;
      break;
    }
    case Instr::Opcode::Load:
      if (I.RM != ReadMode::NA)
        return ChainEnd::Labeled;
      W.Src.Regs[I.Reg] =
          W.Perm.contains(I.Loc) ? W.MemSrc[I.Loc] : SymVal::undef();
      ++W.Src.Pc;
      break;
    case Instr::Opcode::Store: {
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.definitelyUB()) {
        W.Src.St = ProgState::Status::Error;
        return ChainEnd::Bottom;
      }
      if (Ev.MayUB)
        return ChainEnd::Uncertain;
      if (I.WM != WriteMode::NA)
        return ChainEnd::Labeled;
      if (!W.Perm.contains(I.Loc)) {
        W.Src.St = ProgState::Status::Error; // racy na-write: ⊥
        return ChainEnd::Bottom;
      }
      W.MemSrc[I.Loc] = Ev.V;
      W.WSrc.insert(I.Loc);
      ++W.Src.Pc;
      break;
    }
    case Instr::Opcode::Cas: {
      SymEvalResult E2v = symEval(I.E2, W.Src.Regs);
      SymEvalResult E3v = symEval(I.E3, W.Src.Regs);
      if (E2v.definitelyUB() || E3v.definitelyUB()) {
        W.Src.St = ProgState::Status::Error;
        return ChainEnd::Bottom;
      }
      if (E2v.MayUB || E3v.MayUB)
        return ChainEnd::Uncertain;
      return ChainEnd::Labeled;
    }
    case Instr::Opcode::Fadd:
    case Instr::Opcode::Print: {
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.definitelyUB()) {
        W.Src.St = ProgState::Status::Error;
        return ChainEnd::Bottom;
      }
      if (Ev.MayUB)
        return ChainEnd::Uncertain;
      return ChainEnd::Labeled;
    }
    case Instr::Opcode::Fence:
    case Instr::Opcode::Choose:
      return ChainEnd::Labeled;
    case Instr::Opcode::Return: {
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.definitelyUB()) {
        W.Src.St = ProgState::Status::Error;
        return ChainEnd::Bottom;
      }
      if (Ev.MayUB)
        return ChainEnd::Uncertain;
      W.Src.St = ProgState::Status::Done;
      W.Src.Ret = Ev.V;
      return ChainEnd::Terminal;
    }
    case Instr::Opcode::Abort:
      W.Src.St = ProgState::Status::Error;
      return ChainEnd::Bottom;
    }
  }
  return ChainEnd::Uncertain; // chain budget exhausted
}

/// Ret refinement at the terminal check. The stored target ret was
/// evaluated before the node's canonical renaming, so a *composite*
/// identity in it can never match the source's freshly computed one (the
/// fingerprint embeds pre-rename operand ids). The target never steps
/// after Done and its Pc still points at the Return, so re-evaluating the
/// return expression over the current (renamed, possibly widened)
/// registers yields a sound over-approximation of the target ret in the
/// same naming era as W.Src.Ret — composite fingerprints line up again.
bool SymChecker::retRefines(const SymProdState &W) {
  if (definitelyRefines(W.Tgt.Ret, W.Src.Ret))
    return true;
  const Instr &I = TgtCode[W.Tgt.Pc];
  if (I.Op != Instr::Opcode::Return)
    return false;
  SymEvalResult Ev = symEval(I.E, W.Tgt.Regs);
  return !Ev.MayUB && definitelyRefines(Ev.V, W.Src.Ret);
}

/// After the target commits to branch class \p C of a condition carrying
/// identity \p CondId, runs the source ahead through every branch on the
/// *same* identity, committing the same class (the source's silent prefix
/// plus the branch are unlabeled responses, so committing them is always
/// allowed). Bounded: convergence past the bound is the node fixpoint's
/// job, and an empty-body loop would re-sync forever.
void SymChecker::branchSync(SymProdState &W, uint64_t CondId, BranchClass C) {
  if (!CondId)
    return;
  for (int K = 0; K != 16; ++K) {
    SymProdState Probe = W;
    if (walkSrcChain(Probe) != ChainEnd::Uncertain)
      return;
    if (Probe.Src.St != ProgState::Status::Running)
      return;
    const Instr &I = SrcCode[Probe.Src.Pc];
    if (I.Op != Instr::Opcode::Br)
      return;
    SymEvalResult CE = symEval(I.E, Probe.Src.Regs);
    if (CE.MayUB || CE.V.Id != CondId)
      return;
    if (!assumeBranch(Probe, I.E, Probe.Src.Regs, C))
      return;
    Probe.Src.Pc = (C == BranchClass::Truthy) ? I.TargetTrue : I.TargetFalse;
    W = std::move(Probe);
  }
}

//===----------------------------------------------------------------------===//
// Symbolic oracle game
//===----------------------------------------------------------------------===//

/// Projects the product onto its source side: the games quantify over the
/// source alone, so two products with equal source sides share game memo
/// entries regardless of their target components.
SymProdState SymChecker::gameView(const SymProdState &St) const {
  SymProdState G;
  G.Src = St.Src;
  G.MemSrc = St.MemSrc;
  G.Perm = St.Perm;
  G.WSrc = St.WSrc;
  return G;
}

/// Can the source reach ⊥ on *every* adversary path without acquiring?
/// (Fig. 2's beh-failure: late UB holds for every oracle.)
bool SymChecker::robustBottom(const SymProdState &St) {
  unsigned Budget = Opts.GameBudget;
  return gameRun(gameView(St), ~0ull, Budget);
}

/// Can the source write-and-release every location of \p Need on every
/// adversary path without acquiring? (Fig. 2's commitment fulfillment.)
bool SymChecker::robustFulfill(const SymProdState &St, LocSet Need) {
  if (Need.isEmpty())
    return true;
  assert(Need.raw() != ~0ull && "the all-ones goal is reserved for ⊥");
  unsigned Budget = Opts.GameBudget;
  return gameRun(gameView(St), Need.raw(), Budget);
}

bool SymChecker::gameRun(SymProdState S, uint64_t Rem, unsigned &Budget) {
  S.canonicalize();
  Fp128 K = fpSeed(0x53594d47ULL); // "SYMG"
  fpMix(K, S.keyHash());
  static_cast<const SymProdState &>(S).forEachCell(
      [&](const SymVal &V) { fpMix(K, hashSymVal(V)); });
  fpMix(K, Rem);
  auto It = GameMemo.find(K);
  if (It != GameMemo.end())
    return It->second == 1; // InProgress (0): a cycle never reaches the goal
  GameMemo.emplace(K, 0);
  bool R = gameStep(S, Rem, Budget);
  GameMemo[K] = R ? 1 : 2; // re-lookup: recursion may have rehashed
  return R;
}

/// One demonic step: the adversary resolves every read value, choice,
/// branch class, and permission loss, so every enabled class must reach
/// the goal. Symbolic classes cover sets of adversary choices at once; a
/// uniform proof over the class implies one per member, so failure here
/// only under-approximates game success (sound: fewer quick-saves).
bool SymChecker::gameStep(const SymProdState &S, uint64_t Rem,
                          unsigned &Budget) {
  if (Budget == 0) {
    Exhausted = true;
    noteTruncation(Cause, TruncationCause::StateBudget);
    return false;
  }
  --Budget;
  if (S.Src.St == ProgState::Status::Error)
    return true;
  bool BottomGoal = Rem == ~0ull;
  if (!BottomGoal && S.Src.St == ProgState::Status::Running &&
      LocSet::fromRaw(Rem).isSubsetOf(S.WSrc))
    return true;
  if (S.Src.St == ProgState::Status::Done)
    return false;
  const Instr &I = SrcCode[S.Src.Pc];
  switch (I.Op) {
  case Instr::Opcode::Assign: {
    SymEvalResult Ev = symEval(I.E, S.Src.Regs);
    if (Ev.definitelyUB())
      return true;
    SymProdState S2 = S;
    S2.Src.Regs[I.Reg] = Ev.V;
    ++S2.Src.Pc;
    return gameRun(std::move(S2), Rem, Budget);
  }
  case Instr::Opcode::Jmp: {
    SymProdState S2 = S;
    S2.Src.Pc = I.TargetTrue;
    return gameRun(std::move(S2), Rem, Budget);
  }
  case Instr::Opcode::Br: {
    SymEvalResult Ev = symEval(I.E, S.Src.Regs);
    if (Ev.definitelyUB())
      return true;
    // The undef class (branch on undef) is UB → ⊥ → goal reached; only the
    // two defined classes carry obligations.
    for (BranchClass C : {BranchClass::Truthy, BranchClass::Falsy}) {
      SymProdState S2 = S;
      if (!assumeBranch(S2, I.E, S2.Src.Regs, C))
        continue;
      S2.Src.Pc = (C == BranchClass::Truthy) ? I.TargetTrue : I.TargetFalse;
      if (!gameRun(std::move(S2), Rem, Budget))
        return false;
    }
    return true;
  }
  case Instr::Opcode::Freeze: {
    SymEvalResult Ev = symEval(I.E, S.Src.Regs);
    if (Ev.definitelyUB())
      return true;
    if (Ev.V.Abs.mayDefined()) {
      SymProdState S2 = S;
      AbsDom D = definedPart(Ev.V.Abs);
      if (!Ev.V.Id || S2.refineId(Ev.V.Id, D)) {
        S2.Src.Regs[I.Reg] = {Ev.V.Id, D};
        ++S2.Src.Pc;
        if (!gameRun(std::move(S2), Rem, Budget))
          return false;
      }
    }
    if (Ev.V.Abs.mayUndef()) {
      SymProdState S2 = S;
      if (!Ev.V.Id || S2.refineId(Ev.V.Id, AbsDom::undef())) {
        S2.Src.Regs[I.Reg] = freshSym(false); // adversary's choice
        ++S2.Src.Pc;
        if (!gameRun(std::move(S2), Rem, Budget))
          return false;
      }
    }
    return true;
  }
  case Instr::Opcode::Load: {
    if (I.RM == ReadMode::ACQ)
      return false; // games must not acquire
    SymProdState S2 = S;
    if (I.RM == ReadMode::NA)
      S2.Src.Regs[I.Reg] =
          S.Perm.contains(I.Loc) ? S.MemSrc[I.Loc] : SymVal::undef();
    else
      S2.Src.Regs[I.Reg] = freshSym(true); // adversary's value
    ++S2.Src.Pc;
    return gameRun(std::move(S2), Rem, Budget);
  }
  case Instr::Opcode::Store: {
    SymEvalResult Ev = symEval(I.E, S.Src.Regs);
    if (Ev.definitelyUB())
      return true;
    if (I.WM == WriteMode::NA) {
      if (!S.Perm.contains(I.Loc))
        return true; // racy na-write: ⊥
      SymProdState S2 = S;
      S2.MemSrc[I.Loc] = Ev.V;
      S2.WSrc.insert(I.Loc);
      ++S2.Src.Pc;
      return gameRun(std::move(S2), Rem, Budget);
    }
    if (I.WM == WriteMode::RLX) {
      SymProdState S2 = S;
      ++S2.Src.Pc;
      return gameRun(std::move(S2), Rem, Budget);
    }
    // Release: locations written since the last release are locked in;
    // the adversary picks the permission loss.
    uint64_t Rem2 = BottomGoal ? Rem : (Rem & ~S.WSrc.raw());
    for (LocSet P2 : S.Perm.subsets()) {
      SymProdState S2 = S;
      S2.Perm = P2;
      S2.WSrc = LocSet::empty();
      ++S2.Src.Pc;
      if (!gameRun(std::move(S2), Rem2, Budget))
        return false;
    }
    return true;
  }
  case Instr::Opcode::Cas: {
    if (I.RM == ReadMode::ACQ)
      return false;
    SymEvalResult E2v = symEval(I.E2, S.Src.Regs);
    SymEvalResult E3v = symEval(I.E3, S.Src.Regs);
    if (E2v.definitelyUB() || E3v.definitelyUB())
      return true;
    SymVal Old = freshSym(false); // undef old compares are UB → ⊥ → goal
    for (bool Eq : {true, false}) {
      if (Eq ? definitelyNotEqual(Old, E2v.V) : definitelyEqual(Old, E2v.V))
        continue;
      if (Eq && I.WM == WriteMode::REL) {
        uint64_t Rem2 = BottomGoal ? Rem : (Rem & ~S.WSrc.raw());
        for (LocSet P2 : S.Perm.subsets()) {
          SymProdState S2 = S;
          S2.Src.Regs[I.Reg] = Old;
          S2.Perm = P2;
          S2.WSrc = LocSet::empty();
          ++S2.Src.Pc;
          if (!gameRun(std::move(S2), Rem2, Budget))
            return false;
        }
      } else {
        SymProdState S2 = S;
        S2.Src.Regs[I.Reg] = Old;
        ++S2.Src.Pc;
        if (!gameRun(std::move(S2), Rem, Budget))
          return false;
      }
    }
    return true;
  }
  case Instr::Opcode::Fadd: {
    if (I.RM == ReadMode::ACQ)
      return false;
    SymEvalResult Ev = symEval(I.E, S.Src.Regs);
    if (Ev.definitelyUB())
      return true;
    SymVal Old = freshSym(true);
    if (I.WM == WriteMode::REL) {
      uint64_t Rem2 = BottomGoal ? Rem : (Rem & ~S.WSrc.raw());
      for (LocSet P2 : S.Perm.subsets()) {
        SymProdState S2 = S;
        S2.Src.Regs[I.Reg] = Old;
        S2.Perm = P2;
        S2.WSrc = LocSet::empty();
        ++S2.Src.Pc;
        if (!gameRun(std::move(S2), Rem2, Budget))
          return false;
      }
      return true;
    }
    SymProdState S2 = S;
    S2.Src.Regs[I.Reg] = Old;
    ++S2.Src.Pc;
    return gameRun(std::move(S2), Rem, Budget);
  }
  case Instr::Opcode::Fence: {
    if (I.FM != FenceMode::REL)
      return false; // acquire-flavored fences must not run in games
    uint64_t Rem2 = BottomGoal ? Rem : (Rem & ~S.WSrc.raw());
    for (LocSet P2 : S.Perm.subsets()) {
      SymProdState S2 = S;
      S2.Perm = P2;
      S2.WSrc = LocSet::empty();
      ++S2.Src.Pc;
      if (!gameRun(std::move(S2), Rem2, Budget))
        return false;
    }
    return true;
  }
  case Instr::Opcode::Choose: {
    SymProdState S2 = S;
    S2.Src.Regs[I.Reg] = freshSym(false);
    ++S2.Src.Pc;
    return gameRun(std::move(S2), Rem, Budget);
  }
  case Instr::Opcode::Print: {
    SymEvalResult Ev = symEval(I.E, S.Src.Regs);
    if (Ev.definitelyUB())
      return true;
    SymProdState S2 = S;
    ++S2.Src.Pc;
    return gameRun(std::move(S2), Rem, Budget);
  }
  case Instr::Opcode::Return: {
    SymEvalResult Ev = symEval(I.E, S.Src.Regs);
    return Ev.definitelyUB(); // ok class terminates without the goal
  }
  case Instr::Opcode::Abort:
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Label matching
//===----------------------------------------------------------------------===//

/// Applies the release transformer of the advanced matching to the source:
/// R' = (R \ F_s) ∪ (F_t \ F_s) ∪ nonRefiningLocs(Vm_t, Vm_s), Written
/// resets, Perm drops to the label's P2. Locations whose refinement the
/// abstraction cannot prove go into R (over-approximating R only adds
/// fulfillment obligations — sound).
void SymChecker::applyRelease(SymProdState &W, const SymLabel &L) {
  uint64_t Fs = W.WSrc.raw();
  uint64_t NonRef = 0;
  for (const auto &[Lc, Vt] : L.Vm)
    if (!definitelyRefines(Vt, W.MemSrc[Lc]))
      NonRef |= uint64_t(1) << Lc;
  W.R = LocSet::fromRaw((W.R.raw() & ~Fs) | (L.F.raw() & ~Fs) | NonRef);
  W.WSrc = LocSet::empty();
  W.Perm = L.P2;
}

/// Discharges the target labels \p Ls with source transitions, advancing
/// the source through its unlabeled chains in between. Every claim is a
/// must-claim (definite equality/refinement/classification); anything
/// uncertain fails the match, which at worst loses precision. Labeled
/// matching is gated on domain exactness: a symbolic read binding stands
/// for concrete source read transitions only when the hull concretizes to
/// exactly Domain ∪ {undef}.
bool SymChecker::matchLabels(SymProdState &W, const std::vector<SymLabel> &Ls) {
  if (!Dom.Exact)
    return false;
  for (size_t Idx = 0; Idx < Ls.size();) {
    if (walkSrcChain(W) != ChainEnd::Labeled)
      return false;
    const SymLabel &L = Ls[Idx];
    const Instr &I = SrcCode[W.Src.Pc];
    switch (L.K) {
    case SymLabel::Choose: {
      // Source choose(v) — or freeze over a definitely-undef operand,
      // which is the only way Freeze reaches Labeled.
      if (I.Op != Instr::Opcode::Choose && I.Op != Instr::Opcode::Freeze)
        return false;
      if (L.V.Abs.mayUndef() || !L.V.Abs.isSubsetOf(Dom.Defined))
        return false; // choices range over the defined domain only
      W.Src.Regs[I.Reg] = L.V;
      ++W.Src.Pc;
      ++Idx;
      break;
    }
    case SymLabel::RlxRead: {
      if (I.Op == Instr::Opcode::Load && I.RM == ReadMode::RLX &&
          I.Loc == L.Loc) {
        W.Src.Regs[I.Reg] = L.V;
        ++W.Src.Pc;
        ++Idx;
        break;
      }
      if ((I.Op == Instr::Opcode::Cas || I.Op == Instr::Opcode::Fadd) &&
          I.RM == ReadMode::RLX && I.Loc == L.Loc) {
        if (!matchRmw(W, Ls, Idx, /*Acq=*/false))
          return false;
        break;
      }
      return false;
    }
    case SymLabel::AcqRead: {
      // Acquire payloads must be identical; F_t ∪ R ⊆ F_s is the
      // commitment discharge condition of the advanced matching.
      if (!LocSet::fromRaw(L.F.raw() | W.R.raw()).isSubsetOf(W.WSrc))
        return false;
      if (I.Op == Instr::Opcode::Load && I.RM == ReadMode::ACQ &&
          I.Loc == L.Loc) {
        W.Src.Regs[I.Reg] = L.V;
        for (const auto &[Lc, Vg] : L.Vm)
          W.MemSrc[Lc] = Vg; // oracle-dictated gains, shared symbols
        W.Perm = L.P2;
        W.R = LocSet::empty();
        ++W.Src.Pc;
        ++Idx;
        break;
      }
      if ((I.Op == Instr::Opcode::Cas || I.Op == Instr::Opcode::Fadd) &&
          I.RM == ReadMode::ACQ && I.Loc == L.Loc) {
        if (!matchRmw(W, Ls, Idx, /*Acq=*/true))
          return false;
        break;
      }
      return false;
    }
    case SymLabel::RlxWrite: {
      if (I.Op != Instr::Opcode::Store || I.WM != WriteMode::RLX ||
          I.Loc != L.Loc)
        return false;
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.MayUB || !definitelyRefines(L.V, Ev.V))
        return false;
      ++W.Src.Pc;
      ++Idx;
      break;
    }
    case SymLabel::RelWrite: {
      if (I.Op != Instr::Opcode::Store || I.WM != WriteMode::REL ||
          I.Loc != L.Loc)
        return false;
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.MayUB || !definitelyRefines(L.V, Ev.V))
        return false;
      applyRelease(W, L);
      ++W.Src.Pc;
      ++Idx;
      break;
    }
    case SymLabel::AcqFence: {
      if (I.Op != Instr::Opcode::Fence || I.FM != FenceMode::ACQ)
        return false;
      if (!LocSet::fromRaw(L.F.raw() | W.R.raw()).isSubsetOf(W.WSrc))
        return false;
      for (const auto &[Lc, Vg] : L.Vm)
        W.MemSrc[Lc] = Vg;
      W.Perm = L.P2;
      W.R = LocSet::empty();
      ++W.Src.Pc;
      ++Idx;
      break;
    }
    case SymLabel::RelFence: {
      if (I.Op != Instr::Opcode::Fence || I.FM != FenceMode::REL)
        return false;
      applyRelease(W, L);
      ++W.Src.Pc;
      ++Idx;
      break;
    }
    case SymLabel::Syscall: {
      if (I.Op != Instr::Opcode::Print)
        return false;
      SymEvalResult Ev = symEval(I.E, W.Src.Regs);
      if (Ev.MayUB || !definitelyRefines(L.V, Ev.V))
        return false;
      ++W.Src.Pc;
      ++Idx;
      break;
    }
    }
  }
  return true;
}

/// Matches a source CAS/Fadd against the target's read label at Ls[Idx]
/// (and, when the source RMW writes, the write label at Ls[Idx+1]). The
/// source instruction, location, and read mode were checked by the caller;
/// for acquire RMWs the caller also checked F_t ∪ R ⊆ F_s.
bool SymChecker::matchRmw(SymProdState &W, const std::vector<SymLabel> &Ls,
                          size_t &Idx, bool Acq) {
  const SymLabel RL = Ls[Idx];
  const Instr &I = SrcCode[W.Src.Pc];
  SymVal Old = RL.V;
  if (Acq) {
    for (const auto &[Lc, Vg] : RL.Vm)
      W.MemSrc[Lc] = Vg;
    W.Perm = RL.P2;
    W.R = LocSet::empty();
  }
  if (I.Op == Instr::Opcode::Cas) {
    SymEvalResult E2v = symEval(I.E2, W.Src.Regs);
    SymEvalResult E3v = symEval(I.E3, W.Src.Regs);
    if (E2v.MayUB || E3v.MayUB)
      return false;
    // A CAS compare against undef is UB in the source; claiming that path
    // would be a ⊥-response, which the matcher never does.
    if (Old.Abs.mayUndef() || E2v.V.Abs.mayUndef())
      return false;
    if (definitelyEqual(Old, E2v.V)) {
      // Source CAS succeeds: a write label must follow.
      if (Idx + 1 >= Ls.size())
        return false;
      const SymLabel &WL = Ls[Idx + 1];
      if (WL.Loc != I.Loc)
        return false;
      if (I.WM == WriteMode::REL) {
        if (WL.K != SymLabel::RelWrite ||
            !definitelyRefines(WL.V, E3v.V))
          return false;
        applyRelease(W, WL);
      } else {
        if (WL.K != SymLabel::RlxWrite ||
            !definitelyRefines(WL.V, E3v.V))
          return false;
      }
      Idx += 2;
    } else if (definitelyNotEqual(Old, E2v.V)) {
      Idx += 1; // source CAS fails: read label only
    } else {
      return false;
    }
    W.Src.Regs[I.Reg] = Old;
    ++W.Src.Pc;
    return true;
  }
  // Fadd: always writes Old + E.
  SymEvalResult Ev = symEval(I.E, W.Src.Regs);
  if (Ev.MayUB)
    return false;
  bool UB = false;
  SymVal N = symBinOp(BinOp::Add, Old, Ev.V, UB);
  if (Idx + 1 >= Ls.size())
    return false;
  const SymLabel &WL = Ls[Idx + 1];
  if (WL.Loc != I.Loc)
    return false;
  if (I.WM == WriteMode::REL) {
    if (WL.K != SymLabel::RelWrite || !definitelyRefines(WL.V, N))
      return false;
    applyRelease(W, WL);
  } else {
    if (WL.K != SymLabel::RlxWrite || !definitelyRefines(WL.V, N))
      return false;
  }
  Idx += 2;
  W.Src.Regs[I.Reg] = Old;
  ++W.Src.Pc;
  return true;
}

//===----------------------------------------------------------------------===//
// Fixpoint machinery
//===----------------------------------------------------------------------===//

/// Decides the conjunction of per-identity facts of \p W. Every refinement
/// the engine applies over-approximates its class, so an unsatisfiable
/// conjunction means the class is genuinely infeasible and carries no
/// obligations.
bool SymChecker::classFeasible(SymProdState &W) {
  std::vector<SymConstraint> Cs;
  std::unordered_map<uint64_t, size_t> Seen;
  bool Bottom = false;
  static_cast<const SymProdState &>(W).forEachCell([&](const SymVal &V) {
    if (V.Abs.isBottom())
      Bottom = true;
    if (!V.Id)
      return;
    auto [It, New] = Seen.try_emplace(V.Id, Cs.size());
    if (New)
      Cs.push_back({V.Id, V.Abs});
    else
      Cs[It->second].Dom = Cs[It->second].Dom.meet(V.Abs);
  });
  if (Bottom)
    return false;
  ++Res.SolverQueries;
  return satisfiable(Cs);
}

/// Canonicalizes \p S and returns the id of its product node: an existing
/// node with the same key absorbs it by join (switching to widening after
/// WidenDelay joins, and re-enqueueing the node whenever the join changed
/// it), otherwise a fresh node is created and enqueued. NoNode only on the
/// node-budget trip.
unsigned SymChecker::getOrCreate(SymProdState S) {
  S.canonicalize();
  uint64_t K = S.keyHash();
  auto Range = Index.equal_range(K);
  for (auto It = Range.first; It != Range.second; ++It) {
    Node &N = Nodes[It->second];
    if (!N.St.sameKey(S))
      continue;
    bool Widen = N.Joins >= Opts.WidenDelay;
    ++N.Joins;
    ++Res.Joins;
    if (N.St.joinWith(S, Widen)) {
      if (Widen)
        ++Res.Widenings;
      ++N.Gen;
      N.Expanded = N.Saved = N.Dead = false;
      N.Families.clear();
      Work.push_back(It->second);
    }
    return It->second;
  }
  if (Nodes.size() >= Opts.MaxNodes) {
    Exhausted = true;
    noteTruncation(Cause, TruncationCause::StateBudget);
    return NoNode;
  }
  unsigned Id = static_cast<unsigned>(Nodes.size());
  Nodes.emplace_back();
  Nodes.back().St = std::move(S);
  Index.emplace(K, Id);
  Work.push_back(Id);
  ++Res.Nodes;
  return Id;
}

/// Builds the families of \p St0 — one per target transition (adversary
/// choice), each holding the source responses that discharge it. A family
/// left empty is an undischarged obligation: the node dies at prune time
/// unless it was quick-saved.
void SymChecker::buildFamilies(const SymProdState &St0,
                               std::vector<std::vector<unsigned>> &Fams) {
  auto pushFamily = [&](SymProdState W, const std::vector<SymLabel> &Ls) {
    Fams.emplace_back();
    if (!Ls.empty() && !matchLabels(W, Ls)) {
      noteFail(St0, "unmatched target label");
      return;
    }
    unsigned Id = getOrCreate(std::move(W));
    if (Id != NoNode)
      Fams.back().push_back(Id);
  };
  // The target steps to ⊥ (a may-UB class, a racy na-write, abort): the
  // successor's expansion demands a robust source ⊥.
  auto addBottom = [&](SymProdState W) {
    W.Tgt.St = ProgState::Status::Error;
    Fams.emplace_back();
    unsigned Id = getOrCreate(std::move(W));
    if (Id != NoNode)
      Fams.back().push_back(Id);
  };
  // Read variants of a target RMW: one for a relaxed read part, one per
  // permission/memory gain for an acquire read part. Gains are fresh
  // symbols written to the target memory here and shared with the source
  // at label-match time (identical acquire payloads).
  struct ReadVariant {
    SymProdState W;
    SymLabel RL;
    LocSet PermAfter;
  };
  auto rmwReadVariants = [&](const Instr &I) {
    std::vector<ReadVariant> Vs;
    if (I.RM == ReadMode::ACQ) {
      for (LocSet P2 : St0.Perm.supersetsWithin(Cfg.Universe)) {
        ReadVariant V{St0, SymLabel{SymLabel::AcqRead}, P2};
        V.RL.Loc = I.Loc;
        V.RL.V = freshSym(true);
        V.RL.P = St0.Perm;
        V.RL.P2 = P2;
        V.RL.F = St0.WTgt;
        for (unsigned Lc : P2.setMinus(St0.Perm).members()) {
          SymVal G = freshSym(true);
          V.RL.Vm.push_back({Lc, G});
          V.W.MemTgt[Lc] = G;
        }
        Vs.push_back(std::move(V));
      }
    } else {
      ReadVariant V{St0, SymLabel{SymLabel::RlxRead}, St0.Perm};
      V.RL.Loc = I.Loc;
      V.RL.V = freshSym(true);
      Vs.push_back(std::move(V));
    }
    return Vs;
  };

  const Instr &I = TgtCode[St0.Tgt.Pc];
  switch (I.Op) {
  case Instr::Opcode::Assign: {
    SymEvalResult Ev = symEval(I.E, St0.Tgt.Regs);
    if (Ev.MayUB)
      addBottom(St0);
    if (!Ev.definitelyUB()) {
      SymProdState W = St0;
      W.Tgt.Regs[I.Reg] = Ev.V;
      ++W.Tgt.Pc;
      pushFamily(std::move(W), {});
    }
    break;
  }
  case Instr::Opcode::Jmp: {
    SymProdState W = St0;
    W.Tgt.Pc = I.TargetTrue;
    pushFamily(std::move(W), {});
    break;
  }
  case Instr::Opcode::Br: {
    SymEvalResult Ev = symEval(I.E, St0.Tgt.Regs);
    if (Ev.MayUB)
      addBottom(St0);
    if (Ev.definitelyUB())
      break;
    uint64_t CondId = Ev.V.Id;
    if (Ev.V.Abs.mayUndef()) {
      SymProdState W = St0;
      if (assumeBranch(W, I.E, W.Tgt.Regs, BranchClass::Undef))
        addBottom(std::move(W)); // branching on undef is UB
    }
    for (BranchClass C : {BranchClass::Truthy, BranchClass::Falsy}) {
      SymProdState W = St0;
      if (!assumeBranch(W, I.E, W.Tgt.Regs, C))
        continue;
      if (!classFeasible(W))
        continue;
      W.Tgt.Pc = (C == BranchClass::Truthy) ? I.TargetTrue : I.TargetFalse;
      branchSync(W, CondId, C);
      pushFamily(std::move(W), {});
    }
    break;
  }
  case Instr::Opcode::Load: {
    if (I.RM == ReadMode::NA) {
      SymProdState W = St0;
      W.Tgt.Regs[I.Reg] =
          St0.Perm.contains(I.Loc) ? St0.MemTgt[I.Loc] : SymVal::undef();
      ++W.Tgt.Pc;
      pushFamily(std::move(W), {});
    } else if (I.RM == ReadMode::RLX) {
      SymProdState W = St0;
      SymVal S = freshSym(true);
      W.Tgt.Regs[I.Reg] = S;
      ++W.Tgt.Pc;
      SymLabel L{SymLabel::RlxRead};
      L.Loc = I.Loc;
      L.V = S;
      pushFamily(std::move(W), {L});
    } else {
      for (LocSet P2 : St0.Perm.supersetsWithin(Cfg.Universe)) {
        SymProdState W = St0;
        SymVal S = freshSym(true);
        SymLabel L{SymLabel::AcqRead};
        L.Loc = I.Loc;
        L.V = S;
        L.P = St0.Perm;
        L.P2 = P2;
        L.F = St0.WTgt;
        for (unsigned Lc : P2.setMinus(St0.Perm).members()) {
          SymVal G = freshSym(true);
          L.Vm.push_back({Lc, G});
          W.MemTgt[Lc] = G;
        }
        W.Tgt.Regs[I.Reg] = S;
        ++W.Tgt.Pc;
        pushFamily(std::move(W), {L});
      }
    }
    break;
  }
  case Instr::Opcode::Store: {
    SymEvalResult Ev = symEval(I.E, St0.Tgt.Regs);
    if (Ev.MayUB)
      addBottom(St0);
    if (Ev.definitelyUB())
      break;
    if (I.WM == WriteMode::NA) {
      if (!St0.Perm.contains(I.Loc)) {
        addBottom(St0); // racy na-write: the only transition is to ⊥
        break;
      }
      SymProdState W = St0;
      W.MemTgt[I.Loc] = Ev.V;
      W.WTgt.insert(I.Loc);
      ++W.Tgt.Pc;
      pushFamily(std::move(W), {});
    } else if (I.WM == WriteMode::RLX) {
      SymProdState W = St0;
      ++W.Tgt.Pc;
      SymLabel L{SymLabel::RlxWrite};
      L.Loc = I.Loc;
      L.V = Ev.V;
      pushFamily(std::move(W), {L});
    } else {
      std::vector<std::pair<unsigned, SymVal>> Rel;
      for (unsigned Lc : St0.Perm.members())
        Rel.push_back({Lc, St0.MemTgt[Lc]});
      for (LocSet P2 : St0.Perm.subsets()) {
        SymProdState W = St0;
        ++W.Tgt.Pc;
        W.WTgt = LocSet::empty();
        SymLabel L{SymLabel::RelWrite};
        L.Loc = I.Loc;
        L.V = Ev.V;
        L.P = St0.Perm;
        L.P2 = P2;
        L.F = St0.WTgt;
        L.Vm = Rel;
        pushFamily(std::move(W), {L});
      }
    }
    break;
  }
  case Instr::Opcode::Cas: {
    SymEvalResult E2v = symEval(I.E2, St0.Tgt.Regs);
    SymEvalResult E3v = symEval(I.E3, St0.Tgt.Regs);
    if (E2v.MayUB || E3v.MayUB)
      addBottom(St0); // operand UB: Pending::Fail, unlabeled ⊥
    if (E2v.definitelyUB() || E3v.definitelyUB())
      break;
    for (ReadVariant &RV : rmwReadVariants(I)) {
      const SymVal S = RV.RL.V;
      // (a) The read value may be undef: the compare is UB.
      {
        SymProdState W = RV.W;
        W.Tgt.St = ProgState::Status::Error;
        SymLabel RL = RV.RL;
        RL.V = {S.Id, AbsDom::undef()};
        pushFamily(std::move(W), {RL});
      }
      // (b) The expected value may be undef: also UB.
      if (E2v.V.Abs.mayUndef()) {
        SymProdState W = RV.W;
        if (!E2v.V.Id || W.refineId(E2v.V.Id, AbsDom::undef())) {
          W.Tgt.St = ProgState::Status::Error;
          SymLabel RL = RV.RL;
          RL.V = {S.Id, Dom.Defined};
          pushFamily(std::move(W), {RL});
        }
      }
      AbsDom EDef = definedPart(E2v.V.Abs);
      // (c) Equal (both defined): the CAS writes E3.
      {
        SymProdState W = RV.W;
        AbsDom M = Dom.Defined.meet(EDef);
        bool Feasible = !M.isBottom();
        if (Feasible && E2v.V.Id)
          Feasible = W.refineId(E2v.V.Id, M);
        if (Feasible) {
          // Unify the read symbol with the expected value: same identity,
          // met fact — the correlation CAS success establishes.
          SymVal SRef = {E2v.V.Id ? E2v.V.Id : S.Id, M};
          SymLabel RL = RV.RL;
          RL.V = SRef;
          SymEvalResult N3 = symEval(I.E3, W.Tgt.Regs);
          if (!N3.definitelyUB()) {
            if (I.WM == WriteMode::REL) {
              std::vector<std::pair<unsigned, SymVal>> Rel;
              for (unsigned Lc : RV.PermAfter.members())
                Rel.push_back({Lc, W.MemTgt[Lc]});
              for (LocSet P2w : RV.PermAfter.subsets()) {
                SymProdState W2 = W;
                W2.Tgt.Regs[I.Reg] = SRef;
                ++W2.Tgt.Pc;
                W2.WTgt = LocSet::empty();
                SymLabel WL{SymLabel::RelWrite};
                WL.Loc = I.Loc;
                WL.V = N3.V;
                WL.P = RV.PermAfter;
                WL.P2 = P2w;
                WL.F = St0.WTgt;
                WL.Vm = Rel;
                pushFamily(std::move(W2), {RL, WL});
              }
            } else {
              SymProdState W2 = W;
              W2.Tgt.Regs[I.Reg] = SRef;
              ++W2.Tgt.Pc;
              SymLabel WL{SymLabel::RlxWrite};
              WL.Loc = I.Loc;
              WL.V = N3.V;
              pushFamily(std::move(W2), {RL, WL});
            }
          }
        }
      }
      // (d) Not equal (both defined): read label only. When the expected
      // value is a known constant, carve it out of the read symbol's fact
      // so the source's own CAS can prove its compare fails too.
      {
        SymProdState W = RV.W;
        bool Feasible = !EDef.isBottom();
        if (Feasible && E2v.V.Id && E2v.V.Abs.mayUndef())
          Feasible = W.refineId(E2v.V.Id, EDef);
        AbsDom SNe = Dom.Defined;
        if (Feasible && EDef.isSingleton()) {
          SNe = excludeConst(SNe, EDef.singleton());
          Feasible = !SNe.isBottom();
        }
        if (Feasible) {
          SymLabel RL = RV.RL;
          RL.V = {S.Id, SNe};
          W.Tgt.Regs[I.Reg] = RL.V;
          ++W.Tgt.Pc;
          pushFamily(std::move(W), {RL});
        }
      }
    }
    break;
  }
  case Instr::Opcode::Fadd: {
    SymEvalResult Ev = symEval(I.E, St0.Tgt.Regs);
    if (Ev.MayUB)
      addBottom(St0);
    if (Ev.definitelyUB())
      break;
    for (ReadVariant &RV : rmwReadVariants(I)) {
      const SymVal S = RV.RL.V;
      bool UB = false;
      SymVal N = symBinOp(BinOp::Add, S, Ev.V, UB);
      if (I.WM == WriteMode::REL) {
        std::vector<std::pair<unsigned, SymVal>> Rel;
        for (unsigned Lc : RV.PermAfter.members())
          Rel.push_back({Lc, RV.W.MemTgt[Lc]});
        for (LocSet P2w : RV.PermAfter.subsets()) {
          SymProdState W2 = RV.W;
          W2.Tgt.Regs[I.Reg] = S;
          ++W2.Tgt.Pc;
          W2.WTgt = LocSet::empty();
          SymLabel WL{SymLabel::RelWrite};
          WL.Loc = I.Loc;
          WL.V = N;
          WL.P = RV.PermAfter;
          WL.P2 = P2w;
          WL.F = St0.WTgt;
          WL.Vm = Rel;
          pushFamily(std::move(W2), {RV.RL, WL});
        }
      } else {
        SymProdState W2 = RV.W;
        W2.Tgt.Regs[I.Reg] = S;
        ++W2.Tgt.Pc;
        SymLabel WL{SymLabel::RlxWrite};
        WL.Loc = I.Loc;
        WL.V = N;
        pushFamily(std::move(W2), {RV.RL, WL});
      }
    }
    break;
  }
  case Instr::Opcode::Fence: {
    if (I.FM == FenceMode::ACQ) {
      for (LocSet P2 : St0.Perm.supersetsWithin(Cfg.Universe)) {
        SymProdState W = St0;
        SymLabel L{SymLabel::AcqFence};
        L.P = St0.Perm;
        L.P2 = P2;
        L.F = St0.WTgt;
        for (unsigned Lc : P2.setMinus(St0.Perm).members()) {
          SymVal G = freshSym(true);
          L.Vm.push_back({Lc, G});
          W.MemTgt[Lc] = G;
        }
        ++W.Tgt.Pc;
        pushFamily(std::move(W), {L});
      }
    } else if (I.FM == FenceMode::REL) {
      std::vector<std::pair<unsigned, SymVal>> Rel;
      for (unsigned Lc : St0.Perm.members())
        Rel.push_back({Lc, St0.MemTgt[Lc]});
      for (LocSet P2 : St0.Perm.subsets()) {
        SymProdState W = St0;
        ++W.Tgt.Pc;
        W.WTgt = LocSet::empty();
        SymLabel L{SymLabel::RelFence};
        L.P = St0.Perm;
        L.P2 = P2;
        L.F = St0.WTgt;
        L.Vm = Rel;
        pushFamily(std::move(W), {L});
      }
    } else {
      addBottom(St0); // acq-rel / sc fences are outside the fragment
    }
    break;
  }
  case Instr::Opcode::Choose: {
    SymProdState W = St0;
    SymVal S = freshSym(false);
    W.Tgt.Regs[I.Reg] = S;
    ++W.Tgt.Pc;
    SymLabel L{SymLabel::Choose};
    L.V = S;
    pushFamily(std::move(W), {L});
    break;
  }
  case Instr::Opcode::Freeze: {
    SymEvalResult Ev = symEval(I.E, St0.Tgt.Regs);
    if (Ev.MayUB)
      addBottom(St0);
    if (Ev.definitelyUB())
      break;
    if (Ev.V.Abs.mayDefined()) {
      SymProdState W = St0;
      AbsDom D = definedPart(Ev.V.Abs);
      if (!Ev.V.Id || W.refineId(Ev.V.Id, D)) {
        W.Tgt.Regs[I.Reg] = {Ev.V.Id, D};
        ++W.Tgt.Pc;
        pushFamily(std::move(W), {});
      }
    }
    if (Ev.V.Abs.mayUndef()) {
      SymProdState W = St0;
      if (!Ev.V.Id || W.refineId(Ev.V.Id, AbsDom::undef())) {
        SymVal S = freshSym(false);
        W.Tgt.Regs[I.Reg] = S;
        ++W.Tgt.Pc;
        SymLabel L{SymLabel::Choose};
        L.V = S;
        pushFamily(std::move(W), {L});
      }
    }
    break;
  }
  case Instr::Opcode::Print: {
    SymEvalResult Ev = symEval(I.E, St0.Tgt.Regs);
    if (Ev.MayUB)
      addBottom(St0);
    if (Ev.definitelyUB())
      break;
    SymProdState W = St0;
    ++W.Tgt.Pc;
    SymLabel L{SymLabel::Syscall};
    L.V = Ev.V;
    pushFamily(std::move(W), {L});
    break;
  }
  case Instr::Opcode::Return: {
    SymEvalResult Ev = symEval(I.E, St0.Tgt.Regs);
    if (Ev.MayUB)
      addBottom(St0);
    if (Ev.definitelyUB())
      break;
    SymProdState W = St0;
    W.Tgt.St = ProgState::Status::Done;
    W.Tgt.Ret = Ev.V;
    pushFamily(std::move(W), {});
    break;
  }
  case Instr::Opcode::Abort:
    addBottom(St0);
    break;
  }
}

/// Expands one node: quick-saves (robust source ⊥), the terminal check,
/// the fulfillment pre-check, then the families. Works on a copy of the
/// node's state — getOrCreate below may reallocate Nodes, and a self-loop
/// join may change the node mid-expansion (detected by the Gen snapshot;
/// the join re-enqueued it, so the stale results are simply dropped).
void SymChecker::expand(unsigned Id) {
  uint64_t Gen = Nodes[Id].Gen;
  SymProdState St = Nodes[Id].St;
  bool Saved = false, Dead = false;
  std::vector<std::vector<unsigned>> Fams;
  if (St.Tgt.St == ProgState::Status::Error) {
    Saved = robustBottom(St);
    Dead = !Saved;
    if (Dead)
      noteFail(St, "target ⊥ without a robust source ⊥");
  } else if (St.Tgt.St == ProgState::Status::Done) {
    SymProdState W = St;
    ChainEnd E = walkSrcChain(W);
    bool Ok = false;
    if (E == ChainEnd::Bottom) {
      Ok = true; // beh-failure: late source UB matches anything
    } else if (E == ChainEnd::Terminal) {
      Ok = retRefines(W) &&
           LocSet::fromRaw(W.WTgt.raw() | W.R.raw()).isSubsetOf(W.WSrc);
      if (Ok)
        for (unsigned Lc : Cfg.Universe.members())
          if (!definitelyRefines(W.MemTgt[Lc], W.MemSrc[Lc])) {
            Ok = false;
            break;
          }
    }
    if (!Ok)
      Ok = robustBottom(St);
    Saved = Ok;
    Dead = !Ok;
    if (Dead)
      noteFail(St, "unmatched terminal target");
  } else {
    if (robustBottom(St)) {
      Saved = true;
    } else {
      LocSet Need = LocSet::fromRaw(St.WTgt.raw() | St.R.raw());
      if (!robustFulfill(St, Need)) {
        Dead = true;
        noteFail(St, "unfulfillable commitment set");
      } else {
        buildFamilies(St, Fams);
      }
    }
  }
  if (Exhausted || Nodes[Id].Gen != Gen)
    return;
  Node &N = Nodes[Id];
  N.Expanded = true;
  N.Saved = Saved;
  N.Dead = Dead;
  N.Families = std::move(Fams);
}

/// Greatest-fixpoint prune, exactly the concrete checker's: kill every
/// unsaved node with a family whose options are all dead, to fixpoint.
/// What survives is a coinductive simulation certificate.
void SymChecker::prune(std::vector<char> &Alive) {
  Alive.assign(Nodes.size(), 1);
  for (size_t N = 0; N != Nodes.size(); ++N)
    Alive[N] = !Nodes[N].Dead;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t N = 0; N != Nodes.size(); ++N) {
      if (!Alive[N] || Nodes[N].Saved)
        continue;
      for (const std::vector<unsigned> &Fam : Nodes[N].Families) {
        bool Any = false;
        for (unsigned O : Fam)
          if (Alive[O]) {
            Any = true;
            break;
          }
        if (!Any) {
          Alive[N] = 0;
          Changed = true;
          break;
        }
      }
    }
  }
}

/// One root per initial ⟨P, F⟩ over the universe. The initial memory is
/// one fresh symbol per universe location, SHARED between the two sides —
/// the correlation Def 2.4's "same initial memory" provides. The symbol's
/// hull covers Domain ∪ {undef} (a superset for inexact domains, which
/// only adds obligations on valuations both sides share — sound).
void SymChecker::buildRoots() {
  unsigned NTgtRegs =
      static_cast<unsigned>(ProgState::initial(TgtP, TgtTid).regs().size());
  unsigned NSrcRegs =
      static_cast<unsigned>(ProgState::initial(SrcP, SrcTid).regs().size());
  for (LocSet P : Cfg.Universe.subsets()) {
    for (LocSet F : Cfg.Universe.subsets()) {
      SymProdState S;
      S.Tgt.Regs.assign(NTgtRegs, SymVal::ofConst(0));
      S.Src.Regs.assign(NSrcRegs, SymVal::ofConst(0));
      S.MemTgt.assign(NumLocs, SymVal::ofConst(0));
      S.MemSrc.assign(NumLocs, SymVal::ofConst(0));
      for (unsigned Lc : Cfg.Universe.members()) {
        SymVal M = freshSym(true);
        S.MemTgt[Lc] = M;
        S.MemSrc[Lc] = M;
      }
      S.Perm = P;
      S.WTgt = F;
      S.WSrc = F;
      unsigned Id = getOrCreate(std::move(S));
      if (Id == NoNode)
        return;
      Roots.push_back(Id);
    }
  }
  Res.InitialStates = static_cast<unsigned>(Roots.size());
}

void SymChecker::run() {
  buildRoots();
  while (!Work.empty() && !Exhausted) {
    if (Cfg.Guard) {
      TruncationCause C = Cfg.Guard->checkpoint();
      if (C != TruncationCause::None) {
        Exhausted = true;
        noteTruncation(Cause, C);
        break;
      }
    }
    unsigned Id = Work.front();
    Work.pop_front();
    if (Nodes[Id].Expanded)
      continue;
    expand(Id);
  }
  if (Exhausted)
    return;
  std::vector<char> Alive;
  prune(Alive);
  AllAlive = true;
  for (unsigned Rt : Roots)
    if (!Alive[Rt]) {
      AllAlive = false;
      break;
    }
  if (!AllAlive && FailNote.empty())
    FailNote = "dead root product state";
}

//===----------------------------------------------------------------------===//
// Memo key
//===----------------------------------------------------------------------===//

Fp128 symKey(const Program &SrcP, unsigned SrcTid, const Program &TgtP,
             unsigned TgtTid, const SeqConfig &Cfg, const SymOptions &Opts) {
  Fp128 K = fpSeed(0x53594d52ULL); // "SYMR"
  K = fpCombine(K, memo::fingerprintProgram(SrcP));
  K = fpCombine(K, memo::fingerprintProgram(TgtP));
  fpMix(K, SrcTid);
  fpMix(K, TgtTid);
  fpMix(K, Cfg.Domain.values().size());
  for (int64_t V : Cfg.Domain.values())
    fpMix(K, static_cast<uint64_t>(V));
  fpMix(K, Cfg.Universe.raw());
  fpMix(K, Cfg.StepBudget);
  fpMix(K, Cfg.MaxBehaviors);
  fpMix(K, Opts.MaxNodes);
  fpMix(K, Opts.WidenDelay);
  fpMix(K, Opts.GameBudget);
  fpMix(K, Opts.ChainBudget);
  fpMix(K, Opts.ConfirmUnsound ? 1 : 0);
  fpMix(K, Cfg.ConfigSalt);
  return K.sealed();
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

SymResult pseq::sym::checkSymRefinement(const Program &SrcP, unsigned SrcTid,
                                        const Program &TgtP, unsigned TgtTid,
                                        SeqConfig Cfg, SymOptions Opts) {
  assert(sameLayout(SrcP, TgtP) && "refinement needs a shared memory layout");
  auto Start = std::chrono::steady_clock::now();
  Cfg = resolveUniverse(std::move(Cfg), SrcP, SrcTid, TgtP, TgtTid);
  obs::Telemetry *T = Cfg.Telem;
  obs::ScopedSpan Span(T ? T->Spans : nullptr, "sym.check");
  if (T)
    T->Counters.add("sym.checks");
  if (!Opts.GameBudget)
    Opts.GameBudget = Cfg.StepBudget * 256;
  if (!Opts.ChainBudget)
    Opts.ChainBudget = Cfg.StepBudget;
  auto ElapsedMs = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  Fp128 Key;
  if (Cfg.Memo) {
    Key = symKey(SrcP, SrcTid, TgtP, TgtTid, Cfg, Opts);
    if (std::shared_ptr<const SymResult> Hit = Cfg.Memo->lookupAs<SymResult>(
            memo::MemoContext::Table::SymVerdicts, Key)) {
      Cfg.Memo->noteHit();
      if (T) {
        T->Counters.add("sym.memo.hits");
        T->Counters.add(std::string("sym.") + symVerdictName(Hit->Verdict));
      }
      SymResult R = *Hit;
      R.ElapsedMs = ElapsedMs();
      return R;
    }
    Cfg.Memo->noteMiss();
  }
  SymResult Res;
  SymChecker C(SrcP, SrcTid, TgtP, TgtTid, Cfg, Opts, Res);
  C.run();
  if (C.Exhausted) {
    Res.Verdict = SymVerdict::Inconclusive;
    Res.Cause =
        C.Cause == TruncationCause::None ? TruncationCause::StateBudget
                                         : C.Cause;
    Res.Witness = C.FailNote;
  } else if (C.AllAlive) {
    Res.Verdict = SymVerdict::Sound;
  } else if (Opts.ConfirmUnsound) {
    // A dead root alone never leaves the engine: symbolic negatives are
    // only reported with a concrete counterexample from the enumerative
    // lane, so the two lanes cannot disagree by construction.
    if (T)
      T->Counters.add("sym.confirm.runs");
    RefinementResult RR =
        checkAdvancedRefinement(SrcP, SrcTid, TgtP, TgtTid, Cfg);
    Res.ConfirmStates = RR.SrcBehaviors + RR.TgtBehaviors;
    if (!RR.Holds) {
      Res.Verdict = SymVerdict::Unsound;
      Res.Witness = RR.Counterexample;
    } else {
      Res.Verdict = SymVerdict::Inconclusive;
      Res.Cause = TruncationCause::None; // pure imprecision
      Res.Witness = C.FailNote;
    }
  } else {
    Res.Verdict = SymVerdict::Inconclusive;
    Res.Cause = TruncationCause::None;
    Res.Witness = C.FailNote;
  }
  Res.ElapsedMs = ElapsedMs();
  if (T) {
    T->Counters.add(std::string("sym.") + symVerdictName(Res.Verdict));
    T->Counters.add("sym.nodes", Res.Nodes);
    T->Counters.add("sym.joins", Res.Joins);
    T->Counters.add("sym.widenings", Res.Widenings);
    T->Counters.add("sym.solver.queries", Res.SolverQueries);
  }
  if (Cfg.Memo) {
    auto Val = std::make_shared<SymResult>(Res);
    Val->ElapsedMs = 0.0; // stored values are pure functions of the key
    Cfg.Memo->insertAs<SymResult>(memo::MemoContext::Table::SymVerdicts, Key,
                                  std::move(Val));
  }
  return Res;
}

SymResult pseq::sym::checkSymRefinement(const Program &SrcP,
                                        const Program &TgtP, SeqConfig Cfg,
                                        SymOptions Opts) {
  return checkSymRefinement(SrcP, 0, TgtP, 0, std::move(Cfg), std::move(Opts));
}
