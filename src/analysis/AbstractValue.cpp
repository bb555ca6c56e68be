//===- analysis/AbstractValue.cpp - Abstract domains of §4 ----------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/AbstractValue.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <numeric>

using namespace pseq;

//===----------------------------------------------------------------------===
// AbsVal
//===----------------------------------------------------------------------===

AbsVal AbsVal::constant(Value V) {
  AbsVal A;
  A.IsConst = true;
  A.C = V;
  return A;
}

AbsVal AbsVal::reg(unsigned R) {
  AbsVal A;
  A.IsConst = false;
  A.Reg = R;
  return A;
}

Value AbsVal::constVal() const {
  assert(IsConst && "not a constant");
  return C;
}

unsigned AbsVal::regIdx() const {
  assert(!IsConst && "not a register");
  return Reg;
}

std::optional<AbsVal> AbsVal::ofExpr(const Expr *E) {
  if (E->kind() == Expr::Kind::Const)
    return constant(E->constVal());
  if (E->kind() == Expr::Kind::Reg)
    return reg(E->reg());
  return std::nullopt;
}

const Expr *AbsVal::materialize(Program &Dst) const {
  if (IsConst)
    return Dst.exprConst(C);
  return Dst.exprReg(Reg);
}

bool AbsVal::operator==(const AbsVal &O) const {
  if (IsConst != O.IsConst)
    return false;
  return IsConst ? C == O.C : Reg == O.Reg;
}

std::string AbsVal::str(const SymbolTable *Regs) const {
  if (IsConst)
    return C.str();
  if (Regs)
    return Regs->name(Reg);
  return "r" + std::to_string(Reg);
}

//===----------------------------------------------------------------------===
// SlfToken
//===----------------------------------------------------------------------===

SlfToken SlfToken::circ(AbsVal V) {
  SlfToken T;
  T.K = Kind::Circ;
  T.V = V;
  return T;
}

SlfToken SlfToken::bullet(AbsVal V) {
  SlfToken T;
  T.K = Kind::Bullet;
  T.V = V;
  return T;
}

const AbsVal &SlfToken::val() const {
  assert(K != Kind::Top && "⊤ carries no value");
  return V;
}

SlfToken SlfToken::join(const SlfToken &O) const {
  if (K == Kind::Top || O.K == Kind::Top)
    return top();
  if (!(V == O.V))
    return top();
  // Same value: take the weaker of ◦/•.
  if (K == Kind::Bullet || O.K == Kind::Bullet)
    return bullet(V);
  return circ(V);
}

SlfToken SlfToken::invalidateReg(unsigned Reg) const {
  if (K == Kind::Top || V.isConst() || V.regIdx() != Reg)
    return *this;
  return top();
}

bool SlfToken::operator==(const SlfToken &O) const {
  if (K != O.K)
    return false;
  if (K == Kind::Top)
    return true;
  return V == O.V;
}

std::string SlfToken::str(const SymbolTable *Regs) const {
  switch (K) {
  case Kind::Circ:
    return "circ(" + V.str(Regs) + ")";
  case Kind::Bullet:
    return "bullet(" + V.str(Regs) + ")";
  case Kind::Top:
    return "top";
  }
  return "?";
}

//===----------------------------------------------------------------------===
// DseToken / expression faults
//===----------------------------------------------------------------------===

DseToken pseq::joinDse(DseToken A, DseToken B) {
  if (A == DseToken::Top || B == DseToken::Top)
    return DseToken::Top;
  if (A == DseToken::Bullet || B == DseToken::Bullet)
    return DseToken::Bullet;
  return DseToken::Circ;
}

const char *pseq::dseTokenName(DseToken T) {
  switch (T) {
  case DseToken::Circ:
    return "circ";
  case DseToken::Bullet:
    return "bullet";
  case DseToken::Top:
    return "top";
  }
  return "?";
}

//===----------------------------------------------------------------------===
// Interval
//===----------------------------------------------------------------------===

namespace {

constexpr int64_t IMin = std::numeric_limits<int64_t>::min();
constexpr int64_t IMax = std::numeric_limits<int64_t>::max();

/// Clamps a 128-bit intermediate to the int64 range; \p Clamped records
/// whether information was lost (the congruence component must then give
/// up rather than claim an exact residue).
int64_t clamp128(__int128 V, bool &Clamped) {
  if (V < static_cast<__int128>(IMin)) {
    Clamped = true;
    return IMin;
  }
  if (V > static_cast<__int128>(IMax)) {
    Clamped = true;
    return IMax;
  }
  return static_cast<int64_t>(V);
}

/// |A - B| as an exact uint64 (the difference of two int64s always fits).
uint64_t absDiff(int64_t A, int64_t B) {
  return A >= B ? static_cast<uint64_t>(A) - static_cast<uint64_t>(B)
                : static_cast<uint64_t>(B) - static_cast<uint64_t>(A);
}

/// Euclidean V mod M for M in [1, INT64_MAX]: the result is in [0, M).
int64_t euclidMod(int64_t V, uint64_t M) {
  assert(M >= 1 && M <= static_cast<uint64_t>(IMax));
  int64_t R = V % static_cast<int64_t>(M);
  if (R < 0)
    R += static_cast<int64_t>(M);
  return R;
}

} // namespace

namespace pseq::analysis {

Interval Interval::full() { return range(IMin, IMax); }

Interval Interval::range(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty ranges go through empty()");
  Interval I;
  I.Lo = Lo;
  I.Hi = Hi;
  I.IsEmpty = false;
  return I;
}

bool Interval::isFull() const {
  return !IsEmpty && Lo == IMin && Hi == IMax;
}

int64_t Interval::lo() const {
  assert(!IsEmpty && "lo() of the empty interval");
  return Lo;
}

int64_t Interval::hi() const {
  assert(!IsEmpty && "hi() of the empty interval");
  return Hi;
}

bool Interval::isSubsetOf(const Interval &O) const {
  if (IsEmpty)
    return true;
  return !O.IsEmpty && O.Lo <= Lo && Hi <= O.Hi;
}

Interval Interval::join(const Interval &O) const {
  if (IsEmpty)
    return O;
  if (O.IsEmpty)
    return *this;
  return range(std::min(Lo, O.Lo), std::max(Hi, O.Hi));
}

Interval Interval::meet(const Interval &O) const {
  if (IsEmpty || O.IsEmpty)
    return empty();
  int64_t L = std::max(Lo, O.Lo);
  int64_t H = std::min(Hi, O.Hi);
  return L <= H ? range(L, H) : empty();
}

Interval Interval::widen(const Interval &Next) const {
  if (IsEmpty)
    return Next;
  if (Next.IsEmpty)
    return *this;
  // An unstable bound jumps straight to the INT64 extreme — no counting,
  // no overflow: the result always contains join(*this, Next) and the
  // chain stabilizes after at most two applications.
  int64_t L = Next.Lo < Lo ? IMin : Lo;
  int64_t H = Next.Hi > Hi ? IMax : Hi;
  return range(L, H);
}

bool Interval::operator==(const Interval &O) const {
  if (IsEmpty != O.IsEmpty)
    return false;
  return IsEmpty || (Lo == O.Lo && Hi == O.Hi);
}

std::string Interval::str() const {
  if (IsEmpty)
    return "bot";
  if (isFull())
    return "[..]";
  return "[" + std::to_string(Lo) + "," + std::to_string(Hi) + "]";
}

//===----------------------------------------------------------------------===
// Congruence
//===----------------------------------------------------------------------===

Congruence Congruence::modRem(uint64_t M, int64_t R) {
  // A modulus past INT64_MAX cannot keep a canonical residue in int64;
  // such classes only arise from far-apart constants — ⊤ is the sound
  // (and nearly exact) answer.
  if (M > static_cast<uint64_t>(IMax))
    return top();
  Congruence C;
  C.IsEmpty = false;
  C.Mod = M;
  C.Rem = M == 0 ? R : euclidMod(R, M);
  return C;
}

uint64_t Congruence::mod() const {
  assert(!IsEmpty && "mod() of ⊥");
  return Mod;
}

int64_t Congruence::rem() const {
  assert(!IsEmpty && "rem() of ⊥");
  return Rem;
}

bool Congruence::contains(int64_t V) const {
  if (IsEmpty)
    return false;
  if (Mod == 0)
    return V == Rem;
  return euclidMod(V, Mod) == Rem;
}

Congruence Congruence::join(const Congruence &O) const {
  if (IsEmpty)
    return O;
  if (O.IsEmpty)
    return *this;
  // Treat a singleton as modulus 0; gcd absorbs it (gcd(0, x) = x). The
  // joined modulus divides both moduli and the residue difference, so
  // both classes are contained. gcd(0, 0) with equal residues is the
  // equal-singleton case.
  uint64_t G = std::gcd(Mod, O.Mod);
  G = std::gcd(G, absDiff(Rem, O.Rem));
  if (G == 0)
    return *this; // both singletons, same value
  return modRem(G, Mod == 0 ? Rem : euclidMod(Rem, G));
}

Congruence Congruence::meet(const Congruence &O) const {
  if (IsEmpty || O.IsEmpty)
    return empty();
  if (isTop())
    return O;
  if (O.isTop())
    return *this;
  if (Mod == 0)
    return O.contains(Rem) ? *this : empty();
  if (O.Mod == 0)
    return contains(O.Rem) ? O : empty();
  // Divisibility cases are exact; incomparable moduli fall back to the
  // finer operand, which contains the intersection (documented
  // over-approximation).
  if (O.Mod % Mod == 0)
    return contains(O.Rem) ? O : empty();
  if (Mod % O.Mod == 0)
    return O.contains(Rem) ? *this : empty();
  uint64_t G = std::gcd(Mod, O.Mod);
  if (euclidMod(Rem, G) != euclidMod(O.Rem, G))
    return empty(); // provably disjoint
  return Mod >= O.Mod ? *this : O;
}

bool Congruence::operator==(const Congruence &O) const {
  if (IsEmpty != O.IsEmpty)
    return false;
  return IsEmpty || (Mod == O.Mod && Rem == O.Rem);
}

std::string Congruence::str() const {
  if (IsEmpty)
    return "bot";
  if (isTop())
    return "top";
  if (Mod == 0)
    return std::to_string(Rem);
  return std::to_string(Rem) + "(mod " + std::to_string(Mod) + ")";
}

//===----------------------------------------------------------------------===
// AbsDom
//===----------------------------------------------------------------------===

namespace {

/// Congruence-subset test: every member of \p A is a member of \p B.
bool congSubset(const Congruence &A, const Congruence &B) {
  if (A.isEmpty())
    return true;
  if (B.isEmpty())
    return false;
  if (B.isTop())
    return true;
  if (A.isSingleton())
    return B.contains(A.rem());
  if (B.isSingleton())
    return false; // A has more than one member
  return A.mod() % B.mod() == 0 && B.contains(A.rem());
}

} // namespace

void AbsDom::reduce() {
  if (Itv.isEmpty() || Cng.isEmpty()) {
    Itv = Interval::empty();
    Cng = Congruence::empty();
    return;
  }
  // Propagate singletons across the product (one pass each way).
  if (Cng.isSingleton() && !Itv.isSingleton()) {
    Itv = Itv.contains(Cng.rem()) ? Interval::of(Cng.rem())
                                  : Interval::empty();
  }
  if (Itv.isSingleton() && !Cng.isSingleton()) {
    Cng = Cng.contains(Itv.lo()) ? Congruence::of(Itv.lo())
                                 : Congruence::empty();
  }
  if (Itv.isEmpty() || Cng.isEmpty()) {
    Itv = Interval::empty();
    Cng = Congruence::empty();
  }
}

AbsDom AbsDom::top() {
  return make(Interval::full(), Congruence::top(), true);
}

AbsDom AbsDom::undef() {
  AbsDom A;
  A.Undef = true;
  return A;
}

AbsDom AbsDom::ofConst(int64_t V) {
  return make(Interval::of(V), Congruence::of(V), false);
}

AbsDom AbsDom::make(Interval I, Congruence C, bool MayUndef) {
  AbsDom A;
  A.Itv = I;
  A.Cng = C;
  A.Undef = MayUndef;
  A.reduce();
  return A;
}

AbsDom AbsDom::range(int64_t Lo, int64_t Hi, bool MayUndef) {
  return make(Interval::range(Lo, Hi), Congruence::top(), MayUndef);
}

int64_t AbsDom::singleton() const {
  assert(isSingleton() && "singleton() of a non-singleton");
  return Itv.lo();
}

AbsDom AbsDom::join(const AbsDom &O) const {
  return make(Itv.join(O.Itv), Cng.join(O.Cng), Undef || O.Undef);
}

AbsDom AbsDom::meet(const AbsDom &O) const {
  return make(Itv.meet(O.Itv), Cng.meet(O.Cng), Undef && O.Undef);
}

AbsDom AbsDom::widen(const AbsDom &Next) const {
  // The congruence join is its own widening (gcd chains strictly divide).
  return make(Itv.widen(Next.Itv), Cng.join(Next.Cng),
              Undef || Next.Undef);
}

bool AbsDom::isSubsetOf(const AbsDom &O) const {
  if (Undef && !O.Undef)
    return false;
  return Itv.isSubsetOf(O.Itv) && congSubset(Cng, O.Cng);
}

bool AbsDom::operator==(const AbsDom &O) const {
  return Undef == O.Undef && Itv == O.Itv && Cng == O.Cng;
}

std::string AbsDom::str() const {
  if (isBottom())
    return "bot";
  std::string Out;
  if (mayDefined()) {
    Out = Itv.isSingleton() ? std::to_string(Itv.lo()) : Itv.str();
    if (!Itv.isSingleton() && !Cng.isTop())
      Out += "&" + Cng.str();
  }
  if (Undef)
    Out += Out.empty() ? "undef" : "|undef";
  return Out;
}

//===----------------------------------------------------------------------===
// Abstract transfer functions
//===----------------------------------------------------------------------===

namespace {

/// Defined-truthiness over the defined part only (undef handled by the
/// callers): "every defined value is nonzero" / "the only defined value
/// is zero".
bool definedTruthy(const AbsDom &A) {
  return A.mayDefined() && !A.containsInt(0);
}
bool definedFalsy(const AbsDom &A) {
  return A.mayDefined() && A.itv().isSingleton() && A.itv().lo() == 0;
}

/// Congruence transfer for + / - on non-⊥ operands. Exact residues mod
/// gcd of the moduli (a singleton acts as modulus 0).
Congruence congAddSub(const Congruence &A, const Congruence &B, bool Sub) {
  uint64_t G = std::gcd(A.mod(), B.mod());
  if (G == 0) {
    bool Clamped = false;
    __int128 V = Sub ? static_cast<__int128>(A.rem()) - B.rem()
                     : static_cast<__int128>(A.rem()) + B.rem();
    int64_t R = clamp128(V, Clamped);
    return Clamped ? Congruence::top() : Congruence::of(R);
  }
  int64_t Ra = euclidMod(A.rem(), G);
  int64_t Rb = euclidMod(B.rem(), G);
  return Congruence::modRem(G, Sub ? Ra - Rb : Ra + Rb);
}

/// Interval transfer for the [0,1]-valued comparison results.
AbsDom boolAbs(int Definite, bool MayUndef) {
  // Definite: 0 / 1, or -1 for "either".
  if (Definite < 0)
    return AbsDom::make(Interval::range(0, 1), Congruence::top(), MayUndef);
  return AbsDom::make(Interval::of(Definite), Congruence::of(Definite),
                      MayUndef);
}

} // namespace

AbsDom absUnOp(UnOp Op, const AbsDom &A) {
  if (A.isBottom())
    return AbsDom::bottom();
  bool U = A.mayUndef();
  if (!A.mayDefined())
    return AbsDom::undef(); // only undef flows through
  if (Op == UnOp::Neg) {
    bool Clamped = false;
    int64_t Lo = clamp128(-static_cast<__int128>(A.itv().hi()), Clamped);
    int64_t Hi = clamp128(-static_cast<__int128>(A.itv().lo()), Clamped);
    Congruence C = Congruence::top();
    if (!Clamped)
      C = A.cng().isSingleton()
              ? Congruence::of(-A.cng().rem())
              : Congruence::modRem(A.cng().mod(), -A.cng().rem());
    return AbsDom::make(Interval::range(Lo, Hi), C, U);
  }
  // Not: (v == 0).
  if (definedFalsy(A))
    return boolAbs(1, U);
  if (definedTruthy(A) && !U)
    return boolAbs(0, false);
  return boolAbs(definedTruthy(A) ? 0 : -1, U);
}

AbsDom absBinOp(BinOp Op, const AbsDom &L, const AbsDom &R, bool &MayUB) {
  MayUB = false;
  if (L.isBottom() || R.isBottom())
    return AbsDom::bottom();

  if (Op == BinOp::Div || Op == BinOp::Mod) {
    // An undef or zero divisor is UB (Expr::eval). The defined result
    // ranges are not tracked precisely — quotients are rare in this
    // corpus; ⊤-defined with the dividend's undef bit is sound.
    if (R.mayUndef() || R.containsInt(0))
      MayUB = true;
    if (!R.mayDefined() || (R.itv().isSingleton() && R.itv().lo() == 0))
      return AbsDom::bottom(); // every evaluation is UB
    if (!L.mayDefined())
      return AbsDom::undef();
    if (L.isSingleton() && R.isSingleton() && R.singleton() != 0) {
      bool UB = false;
      int64_t V = applyBinOp(Op, L.singleton(), R.singleton(), UB);
      assert(!UB && "nonzero divisor cannot fault");
      return AbsDom::ofConst(V);
    }
    return AbsDom::make(Interval::full(), Congruence::top(), L.mayUndef());
  }

  const bool U = L.mayUndef() || R.mayUndef();
  if (!L.mayDefined() || !R.mayDefined())
    return AbsDom::undef(); // some operand is definitely undef

  switch (Op) {
  case BinOp::Add:
  case BinOp::Sub: {
    bool Clamped = false;
    __int128 A = static_cast<__int128>(L.itv().lo());
    __int128 B = static_cast<__int128>(L.itv().hi());
    __int128 C = static_cast<__int128>(R.itv().lo());
    __int128 D = static_cast<__int128>(R.itv().hi());
    int64_t Lo = clamp128(Op == BinOp::Add ? A + C : A - D, Clamped);
    int64_t Hi = clamp128(Op == BinOp::Add ? B + D : B - C, Clamped);
    Congruence Cg =
        Clamped ? Congruence::top()
                : congAddSub(L.cng(), R.cng(), Op == BinOp::Sub);
    return AbsDom::make(Interval::range(Lo, Hi), Cg, U);
  }
  case BinOp::Mul: {
    bool Clamped = false;
    __int128 Products[4] = {
        static_cast<__int128>(L.itv().lo()) * R.itv().lo(),
        static_cast<__int128>(L.itv().lo()) * R.itv().hi(),
        static_cast<__int128>(L.itv().hi()) * R.itv().lo(),
        static_cast<__int128>(L.itv().hi()) * R.itv().hi()};
    __int128 Min = Products[0], Max = Products[0];
    for (__int128 P : Products) {
      Min = P < Min ? P : Min;
      Max = P > Max ? P : Max;
    }
    int64_t Lo = clamp128(Min, Clamped);
    int64_t Hi = clamp128(Max, Clamped);
    Congruence Cg = Congruence::top();
    if (!Clamped && L.isSingleton() && R.isSingleton())
      Cg = Congruence::of(L.singleton() * R.singleton());
    else if (!Clamped && L.isSingleton() && L.singleton() != 0 &&
             !R.cng().isEmpty()) {
      uint64_t C = absDiff(L.singleton(), 0);
      __int128 M = static_cast<__int128>(C) * R.cng().mod();
      __int128 Rr = static_cast<__int128>(L.singleton()) * R.cng().rem();
      if (M <= static_cast<__int128>(IMax))
        Cg = Congruence::modRem(static_cast<uint64_t>(M),
                                clamp128(Rr, Clamped));
      if (Clamped)
        Cg = Congruence::top();
    }
    return AbsDom::make(Interval::range(Lo, Hi), Cg, U);
  }
  case BinOp::Eq:
  case BinOp::Ne: {
    int Definite = -1;
    if (L.isSingleton() && R.isSingleton())
      Definite = (L.singleton() == R.singleton()) ? 1 : 0;
    else if (L.meet(R).isBottom() ||
             (!L.mayUndef() && !R.mayUndef() &&
              L.itv().meet(R.itv()).isEmpty()))
      Definite = 0;
    else if (L.itv().meet(R.itv()).isEmpty() ||
             L.cng().meet(R.cng()).isEmpty())
      Definite = 0;
    if (Op == BinOp::Ne && Definite >= 0)
      Definite = 1 - Definite;
    return boolAbs(Definite, U);
  }
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge: {
    // Canonicalize to L < R / L <= R by swapping.
    const AbsDom &A = (Op == BinOp::Gt || Op == BinOp::Ge) ? R : L;
    const AbsDom &B = (Op == BinOp::Gt || Op == BinOp::Ge) ? L : R;
    bool Strict = Op == BinOp::Lt || Op == BinOp::Gt;
    int Definite = -1;
    if (Strict ? A.itv().hi() < B.itv().lo() : A.itv().hi() <= B.itv().lo())
      Definite = 1;
    else if (Strict ? A.itv().lo() >= B.itv().hi()
                    : A.itv().lo() > B.itv().hi())
      Definite = 0;
    return boolAbs(Definite, U);
  }
  case BinOp::And: {
    if (definedFalsy(L) || definedFalsy(R))
      return boolAbs(0, U);
    if (definedTruthy(L) && definedTruthy(R))
      return boolAbs(1, U);
    return boolAbs(-1, U);
  }
  case BinOp::Or: {
    if (definedTruthy(L) || definedTruthy(R))
      return boolAbs(1, U);
    if (definedFalsy(L) && definedFalsy(R))
      return boolAbs(0, U);
    return boolAbs(-1, U);
  }
  case BinOp::Div:
  case BinOp::Mod:
    break; // handled above
  }
  return AbsDom::top();
}

} // namespace pseq::analysis

bool pseq::exprMayFault(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::Const:
  case Expr::Kind::Reg:
    return false;
  case Expr::Kind::Unary:
    return exprMayFault(E->lhs());
  case Expr::Kind::Binary:
    if (E->binOp() == BinOp::Div || E->binOp() == BinOp::Mod)
      return true;
    return exprMayFault(E->lhs()) || exprMayFault(E->rhs());
  }
  return true;
}
