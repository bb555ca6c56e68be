//===- sym/SymEngine.h - Symbolic refinement backend ------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic lane of the refinement stack: a path-merging abstract
/// interpretation of the Fig. 6 simulation over *symbolic* SEQ product
/// states (sym/SymState.h). Where the enumerative checkers quantify reads
/// over the value domain by branching, this engine binds one symbolic
/// value per read — shared between target and source by the matching
/// rules — merges paths at equal product keys (join + widening after a
/// delay), and decides the greatest fixpoint coinductively. Spin loops
/// that explode the trace enumerators converge here to a handful of
/// product nodes.
///
/// Verdicts are three-valued and never guess:
///  * Sound — a symbolic simulation proof: every abstract obligation is
///    discharged for all concretizations, so σ_tgt ⊑w σ_src (and by
///    Thm 6.2, contextual refinement in PS^na).
///  * Unsound — the symbolic product has a dead root *and* the bounded
///    enumerative checker confirms a concrete counterexample (symbolic
///    abstraction alone never produces a negative verdict, so symbolic
///    Sound/Unsound can never contradict the enumerative lane by
///    construction).
///  * Inconclusive — a budget tripped or the abstraction was too coarse;
///    Cause says which budget (None = pure imprecision).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SYM_SYMENGINE_H
#define PSEQ_SYM_SYMENGINE_H

#include "seq/SeqMachine.h"
#include "support/Truncation.h"

#include <string>

namespace pseq::sym {

/// Knobs specific to the symbolic backend (budgets shared with the
/// enumerative lane — Domain, Universe, StepBudget, guard, memo, salt —
/// come from SeqConfig).
struct SymOptions {
  /// Product-node cap across all initial states of one check.
  unsigned MaxNodes = 200000;
  /// Joins at a node before the join operator switches to widening.
  unsigned WidenDelay = 3;
  /// Node budget of one symbolic oracle game (0 = StepBudget * 256).
  unsigned GameBudget = 0;
  /// Step budget of one source unlabeled-chain walk (0 = StepBudget).
  unsigned ChainBudget = 0;
  /// Confirm dead roots with the bounded enumerative checker before
  /// reporting Unsound (the guarantee that symbolic negatives carry a
  /// concrete witness). Off = dead roots report Inconclusive.
  bool ConfirmUnsound = true;
};

/// The three-valued symbolic verdict.
enum class SymVerdict { Sound, Unsound, Inconclusive };

constexpr const char *symVerdictName(SymVerdict V) {
  switch (V) {
  case SymVerdict::Sound:
    return "sound";
  case SymVerdict::Unsound:
    return "unsound";
  case SymVerdict::Inconclusive:
    return "inconclusive";
  }
  return "unknown";
}

/// Outcome of one symbolic refinement check.
struct SymResult {
  SymVerdict Verdict = SymVerdict::Inconclusive;
  /// For Inconclusive: the budget that tripped (None = the abstraction
  /// was too coarse, every budget held).
  TruncationCause Cause = TruncationCause::None;
  /// Unsound: the confirmed concrete counterexample. Inconclusive: a
  /// note naming the first undischarged obligation (symbolic witness).
  std::string Witness;

  // Statistics for bench/test reporting.
  unsigned InitialStates = 0;
  unsigned long long Nodes = 0;       ///< product nodes created
  unsigned long long Joins = 0;       ///< path merges at existing nodes
  unsigned long long Widenings = 0;   ///< joins applied in widening mode
  unsigned long long SolverQueries = 0;
  unsigned long long ConfirmStates = 0; ///< enumerative confirm behaviors
  double ElapsedMs = 0.0;
};

/// Decides σ_tgt ⊑w σ_src symbolically for thread \p TgtTid of \p TgtP
/// against thread \p SrcTid of \p SrcP, quantified over all initial
/// ⟨P, F⟩ with one shared symbolic memory. Memoized under
/// memo::MemoContext::Table::SymVerdicts when Cfg.Memo is set (key
/// includes Cfg.ConfigSalt). Emits sym.* telemetry and a "sym.check"
/// span through Cfg.Telem.
SymResult checkSymRefinement(const Program &SrcP, unsigned SrcTid,
                             const Program &TgtP, unsigned TgtTid,
                             SeqConfig Cfg = SeqConfig(),
                             SymOptions Opts = SymOptions());

/// Convenience overload: single-thread programs (thread 0 vs thread 0).
SymResult checkSymRefinement(const Program &SrcP, const Program &TgtP,
                             SeqConfig Cfg = SeqConfig(),
                             SymOptions Opts = SymOptions());

} // namespace pseq::sym

#endif // PSEQ_SYM_SYMENGINE_H
