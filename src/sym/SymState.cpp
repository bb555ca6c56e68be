//===- sym/SymState.cpp - Symbolic SEQ product states ---------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "sym/SymState.h"

#include "support/Hashing.h"

#include <cassert>
#include <limits>
#include <map>
#include <unordered_map>

using namespace pseq;
using namespace pseq::sym;
using analysis::AbsDom;
using analysis::Interval;

namespace {

constexpr uint64_t CompositeBit = uint64_t(1) << 63;

/// The correlation component of a cell: its identity when it has one, a
/// value-derived pseudo-identity when the abstract fact pins the cell
/// (equal singletons / definite undefs are equal without an identity), and
/// 0 when the cell is uncorrelatable.
uint64_t correlationComponent(const SymVal &V) {
  if (V.Id != 0)
    return V.Id;
  if (V.Abs.isSingleton())
    return hashCombine(0x5eedC0C0, static_cast<uint64_t>(V.Abs.singleton())) |
           CompositeBit;
  if (V.Abs.isDefinitelyUndef())
    return hashCombine(0x5eedDEAD, 1) | CompositeBit;
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// SymVal
//===----------------------------------------------------------------------===//

std::string SymVal::str() const {
  std::string S = Abs.str();
  if (Id != 0)
    S += "#" + std::to_string(Id & ~CompositeBit);
  return S;
}

bool pseq::sym::definitelyEqual(const SymVal &A, const SymVal &B) {
  if (A.Id != 0 && A.Id == B.Id)
    return true;
  if (A.Abs.isSingleton() && B.Abs.isSingleton())
    return A.Abs.singleton() == B.Abs.singleton();
  return A.Abs.isDefinitelyUndef() && B.Abs.isDefinitelyUndef();
}

bool pseq::sym::definitelyNotEqual(const SymVal &A, const SymVal &B) {
  if (A.Abs.mayUndef() || B.Abs.mayUndef())
    return false;
  if (A.Id != 0 && A.Id == B.Id)
    return false;
  return A.Abs.meet(B.Abs).isBottom();
}

bool pseq::sym::definitelyRefines(const SymVal &Tgt, const SymVal &Src) {
  return Src.Abs.isDefinitelyUndef() || definitelyEqual(Tgt, Src);
}

uint64_t pseq::sym::hashSymVal(const SymVal &V) {
  uint64_t H = hashCombine(0x53563030, V.Id);
  const AbsDom &A = V.Abs;
  H = hashCombine(H, A.mayUndef() ? 1 : 0);
  if (A.itv().isEmpty()) {
    H = hashCombine(H, 0x11);
  } else {
    H = hashCombine(H, static_cast<uint64_t>(A.itv().lo()));
    H = hashCombine(H, static_cast<uint64_t>(A.itv().hi()));
  }
  if (A.cng().isEmpty()) {
    H = hashCombine(H, 0x22);
  } else {
    H = hashCombine(H, A.cng().mod());
    H = hashCombine(H, static_cast<uint64_t>(A.cng().rem()));
  }
  return H;
}

//===----------------------------------------------------------------------===//
// SymProdState
//===----------------------------------------------------------------------===//

uint64_t SymProdState::keyHash() const {
  uint64_t H = hashCombine(0x50524f44, Tgt.Pc);
  H = hashCombine(H, static_cast<uint64_t>(Tgt.St));
  H = hashCombine(H, Src.Pc);
  H = hashCombine(H, static_cast<uint64_t>(Src.St));
  H = hashCombine(H, Perm.raw());
  H = hashCombine(H, WTgt.raw());
  H = hashCombine(H, WSrc.raw());
  H = hashCombine(H, R.raw());
  return H;
}

bool SymProdState::sameKey(const SymProdState &O) const {
  return Tgt.Pc == O.Tgt.Pc && Tgt.St == O.Tgt.St && Src.Pc == O.Src.Pc &&
         Src.St == O.Src.St && Perm == O.Perm && WTgt == O.WTgt &&
         WSrc == O.WSrc && R == O.R;
}

uint64_t SymProdState::hash() const {
  uint64_t H = keyHash();
  forEachCell([&](const SymVal &V) { H = hashCombine(H, hashSymVal(V)); });
  return H;
}

void SymProdState::canonicalize() {
  std::unordered_map<uint64_t, uint64_t> Rename;
  uint64_t Next = 1;
  forEachCell([&](SymVal &V) {
    if (V.Abs.isSingleton() || V.Abs.isDefinitelyUndef() || V.Abs.isBottom()) {
      V.Id = 0; // the fact itself witnesses every equality
      return;
    }
    if (V.Id == 0)
      return;
    auto [It, Inserted] = Rename.try_emplace(V.Id, Next);
    if (Inserted)
      ++Next;
    V.Id = It->second;
  });
}

bool SymProdState::joinWith(const SymProdState &O, bool Widen) {
  assert(sameKey(O) && "joining product states with different keys");
  SymProdState Old = *this;

  // Pair-consistent renaming: a correlation survives iff present on both
  // sides. Pseudo-identities let equal singletons keep correlating with
  // symbolic cells across the join (e.g. a cell that is 1 on one path and
  // symbolic-but-equal-to-its-partner on the other).
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> PairIds;
  uint64_t NextPair = 1;
  std::vector<const SymVal *> Other;
  O.forEachCell([&](const SymVal &V) { Other.push_back(&V); });
  size_t Idx = 0;
  forEachCell([&](SymVal &V) {
    const SymVal &B = *Other[Idx++];
    uint64_t CA = correlationComponent(V), CB = correlationComponent(B);
    uint64_t NewId = 0;
    if (CA != 0 && CB != 0) {
      auto [It, Inserted] = PairIds.try_emplace({CA, CB}, NextPair);
      if (Inserted)
        ++NextPair;
      NewId = It->second;
    }
    V.Abs = Widen ? V.Abs.widen(B.Abs) : V.Abs.join(B.Abs);
    V.Id = NewId;
  });
  assert(Idx == Other.size() && "cell traversals diverged");
  canonicalize();
  return !(*this == Old);
}

bool SymProdState::refineId(uint64_t Id, const AbsDom &Fact) {
  if (Id == 0)
    return true; // nothing to anchor the fact to — sound to skip
  bool Feasible = true;
  forEachCell([&](SymVal &V) {
    if (V.Id != Id)
      return;
    V.Abs = V.Abs.meet(Fact);
    if (V.Abs.isBottom())
      Feasible = false; // the cell must hold *some* value
  });
  return Feasible;
}

bool SymProdState::operator==(const SymProdState &O) const {
  return sameKey(O) && Tgt == O.Tgt && Src == O.Src && MemTgt == O.MemTgt &&
         MemSrc == O.MemSrc;
}

std::string
SymProdState::str(const std::vector<std::string> *LocNames) const {
  auto ThreadStr = [&](const SymThread &T) {
    std::string S = "pc=" + std::to_string(T.Pc);
    if (T.St == ProgState::Status::Done)
      S += " done(" + T.Ret.str() + ")";
    else if (T.St == ProgState::Status::Error)
      S += " bottom";
    S += " regs[";
    for (size_t I = 0; I != T.Regs.size(); ++I) {
      if (I)
        S += ",";
      S += T.Regs[I].str();
    }
    S += "]";
    return S;
  };
  std::string S = "tgt{" + ThreadStr(Tgt) + "} src{" + ThreadStr(Src) + "}";
  S += " P=" + Perm.str(LocNames);
  S += " Ftgt=" + WTgt.str(LocNames);
  S += " Fsrc=" + WSrc.str(LocNames);
  S += " R=" + R.str(LocNames);
  return S;
}

//===----------------------------------------------------------------------===//
// Symbolic expression evaluation
//===----------------------------------------------------------------------===//

namespace {

/// Composite identity of (op, operands): deterministic, so the same
/// expression over the same operand identities fingerprints identically on
/// both product sides. 0 when some operand is uncorrelatable.
uint64_t compositeId(uint64_t Tag, uint64_t A, uint64_t B = 0x9a9a9a9a) {
  if (A == 0 || B == 0)
    return 0;
  uint64_t H = hashCombine(hashCombine(hashCombine(0xC0117051, Tag), A), B);
  return H | CompositeBit;
}

SymEvalResult evalRec(const Expr *E, const std::vector<SymVal> &Regs) {
  switch (E->kind()) {
  case Expr::Kind::Const:
    return {SymVal::fromValue(E->constVal()), false};
  case Expr::Kind::Reg: {
    assert(E->reg() < Regs.size() && "register out of range");
    return {Regs[E->reg()], false};
  }
  case Expr::Kind::Unary: {
    SymEvalResult Sub = evalRec(E->lhs(), Regs);
    SymVal V;
    V.Abs = analysis::absUnOp(E->unOp(), Sub.V.Abs);
    V.Id = compositeId(0x100 + static_cast<uint64_t>(E->unOp()),
                       correlationComponent(Sub.V));
    return {V, Sub.MayUB};
  }
  case Expr::Kind::Binary: {
    SymEvalResult L = evalRec(E->lhs(), Regs);
    SymEvalResult R = evalRec(E->rhs(), Regs);
    bool MayUB = L.MayUB || R.MayUB;
    SymVal V = symBinOp(E->binOp(), L.V, R.V, MayUB);
    return {V, MayUB};
  }
  }
  assert(false && "unknown expression kind");
  return {};
}

} // namespace

SymVal pseq::sym::symBinOp(BinOp Op, const SymVal &L, const SymVal &R,
                           bool &MayUB) {
  SymVal V;
  V.Abs = analysis::absBinOp(Op, L.Abs, R.Abs, MayUB);
  V.Id = compositeId(0x200 + static_cast<uint64_t>(Op),
                     correlationComponent(L), correlationComponent(R));
  if (V.Abs.isSingleton() || V.Abs.isDefinitelyUndef() || V.Abs.isBottom())
    V.Id = 0;
  return V;
}

SymEvalResult pseq::sym::symEval(const Expr *E,
                                 const std::vector<SymVal> &Regs) {
  SymEvalResult R = evalRec(E, Regs);
  // A fact-pinned result needs no identity; dropping it keeps states small
  // and canonical.
  if (R.V.Abs.isSingleton() || R.V.Abs.isDefinitelyUndef() ||
      R.V.Abs.isBottom())
    R.V.Id = 0;
  return R;
}

//===----------------------------------------------------------------------===//
// Branch assumptions
//===----------------------------------------------------------------------===//

AbsDom pseq::sym::restrictToClass(const AbsDom &Cond, BranchClass C) {
  switch (C) {
  case BranchClass::Undef:
    return Cond.mayUndef() ? AbsDom::undef() : AbsDom::bottom();
  case BranchClass::Falsy:
    return Cond.meet(AbsDom::ofConst(0));
  case BranchClass::Truthy: {
    if (Cond.itv().isEmpty())
      return AbsDom::bottom();
    Interval I = Cond.itv();
    // Trim a boundary zero; interior zeros are not representable as an
    // interval split, which only loses precision, never soundness.
    if (I.isSingleton() && I.lo() == 0)
      return AbsDom::bottom();
    if (I.lo() == 0)
      I = Interval::range(1, I.hi());
    else if (I.hi() == 0)
      I = Interval::range(I.lo(), -1);
    return AbsDom::make(I, Cond.cng(), false);
  }
  }
  return AbsDom::bottom();
}

namespace {

/// Interval constraint on the left operand of `L ⋈ K` under class \p C of
/// the comparison (Truthy = comparison holds, Falsy = it fails). K is a
/// known singleton. \returns ⊤-defined when the pattern gives nothing.
AbsDom comparisonOperandFact(BinOp Op, int64_t K, bool Holds) {
  constexpr int64_t IMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t IMax = std::numeric_limits<int64_t>::max();
  auto Rng = [](int64_t Lo, int64_t Hi) {
    return Lo > Hi ? AbsDom::bottom() : AbsDom::range(Lo, Hi);
  };
  if (!Holds) {
    // !(L ⋈ K) — flip to the complementary relation.
    switch (Op) {
    case BinOp::Eq:
      return comparisonOperandFact(BinOp::Ne, K, true);
    case BinOp::Ne:
      return comparisonOperandFact(BinOp::Eq, K, true);
    case BinOp::Lt:
      return comparisonOperandFact(BinOp::Ge, K, true);
    case BinOp::Le:
      return comparisonOperandFact(BinOp::Gt, K, true);
    case BinOp::Gt:
      return comparisonOperandFact(BinOp::Le, K, true);
    case BinOp::Ge:
      return comparisonOperandFact(BinOp::Lt, K, true);
    default:
      return AbsDom::range(IMin, IMax);
    }
  }
  switch (Op) {
  case BinOp::Eq:
    return AbsDom::ofConst(K);
  case BinOp::Ne:
    // Only boundary exclusion is representable; refined below via meet.
    return AbsDom::range(IMin, IMax);
  case BinOp::Lt:
    return K == IMin ? AbsDom::bottom() : Rng(IMin, K - 1);
  case BinOp::Le:
    return Rng(IMin, K);
  case BinOp::Gt:
    return K == IMax ? AbsDom::bottom() : Rng(K + 1, IMax);
  case BinOp::Ge:
    return Rng(K, IMax);
  default:
    return AbsDom::range(IMin, IMax);
  }
}

/// Meets \p Cell's defined part with \p Fact after trimming a boundary
/// value excluded by Ne.
AbsDom applyNeTrim(const AbsDom &Cell, int64_t K) {
  if (Cell.itv().isEmpty())
    return AbsDom::bottom();
  Interval I = Cell.itv();
  if (I.isSingleton() && I.lo() == K)
    return AbsDom::bottom();
  if (I.lo() == K)
    I = Interval::range(K + 1, I.hi());
  else if (I.hi() == K)
    I = Interval::range(I.lo(), K - 1);
  return AbsDom::make(I, Cell.cng(), false);
}

} // namespace

bool pseq::sym::assumeBranch(SymProdState &St, const Expr *E,
                             const std::vector<SymVal> &Regs, BranchClass C) {
  SymEvalResult CV = symEval(E, Regs);

  // Class feasibility on the condition value itself.
  AbsDom Restricted = restrictToClass(CV.V.Abs, C);
  if (Restricted.isBottom())
    return false;
  if (!St.refineId(CV.V.Id, Restricted))
    return false;

  // One level of comparison-pattern refinement: (reg-or-identity ⋈ const).
  if (E->kind() != Expr::Kind::Binary)
    return true;
  BinOp Op = E->binOp();
  bool IsCmp = Op == BinOp::Eq || Op == BinOp::Ne || Op == BinOp::Lt ||
               Op == BinOp::Le || Op == BinOp::Gt || Op == BinOp::Ge;
  if (!IsCmp)
    return true;

  SymEvalResult L = symEval(E->lhs(), Regs);
  SymEvalResult Rr = symEval(E->rhs(), Regs);
  if (L.MayUB || Rr.MayUB)
    return true; // a faulting operand muddies the classes; skip refinement

  // Canonicalize so the symbolic operand is on the left.
  SymVal Sym;
  int64_t K;
  bool Swapped;
  if (Rr.V.Abs.isSingleton() && L.V.Id != 0) {
    Sym = L.V;
    K = Rr.V.Abs.singleton();
    Swapped = false;
  } else if (L.V.Abs.isSingleton() && Rr.V.Id != 0) {
    Sym = Rr.V;
    K = L.V.Abs.singleton();
    Swapped = true;
  } else {
    return true;
  }
  BinOp NOp = Op;
  if (Swapped) {
    // K ⋈ x  ≡  x ⋈' K with the relation mirrored.
    switch (Op) {
    case BinOp::Lt:
      NOp = BinOp::Gt;
      break;
    case BinOp::Le:
      NOp = BinOp::Ge;
      break;
    case BinOp::Gt:
      NOp = BinOp::Lt;
      break;
    case BinOp::Ge:
      NOp = BinOp::Le;
      break;
    default:
      break;
    }
  }

  switch (C) {
  case BranchClass::Undef:
    // Comparisons propagate undef: with one side a defined constant, an
    // undef result pins the symbolic operand to undef.
    return St.refineId(Sym.Id, AbsDom::undef());
  case BranchClass::Truthy:
  case BranchClass::Falsy: {
    bool Holds = C == BranchClass::Truthy;
    // A defined comparison result means the symbolic operand is defined.
    AbsDom Fact = comparisonOperandFact(NOp, K, Holds);
    if (Fact.isBottom())
      return false;
    bool ExcludesK = (NOp == BinOp::Ne && Holds) || (NOp == BinOp::Eq && !Holds);
    if (ExcludesK) {
      AbsDom Trimmed = applyNeTrim(Sym.Abs, K);
      if (Trimmed.isBottom())
        return false;
      return St.refineId(Sym.Id, Trimmed);
    }
    return St.refineId(Sym.Id, Fact);
  }
  }
  return true;
}
