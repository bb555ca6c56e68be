//===- tests/adequacy_test.cpp - Theorem 6.2 harness (E13) ----------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Empirically validates the adequacy theorem: whenever the SEQ advanced
// refinement (⊑w) validates a transformation, PS^na behavior inclusion
// holds under every context in the library. Also checks that unsound
// corpus transformations are separated by some PS^na context (witnesses),
// and sweeps random program pairs.
//
//===----------------------------------------------------------------------===//

#include "adequacy/Harness.h"
#include "adequacy/RandomProgram.h"
#include "lang/Parser.h"
#include "obs/Report.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <map>

using namespace pseq;

namespace {

PsConfig psCfg() {
  PsConfig C;
  C.Domain = ValueDomain::binary();
  C.PromiseBudget = 0; // promise-free contextual check (fast); promise
                       // sensitivity is covered by litmus + targeted tests
  return C;
}

class AdequacyCorpusTest : public ::testing::TestWithParam<RefinementCase> {};

} // namespace

TEST_P(AdequacyCorpusTest, SeqVerdictIsSoundForPsna) {
  const RefinementCase &RC = GetParam();
  if (RC.HasLoops)
    GTEST_SKIP() << "loop programs: PS^na exploration is unbounded";

  AdequacyRecord Rec = runAdequacy(RC, psCfg());

  // Sanity: the harness recomputes the corpus verdicts.
  EXPECT_EQ(Rec.SeqSimple, RC.SimpleHolds) << RC.Name;
  EXPECT_EQ(Rec.SeqAdvanced, RC.AdvancedHolds) << RC.Name;

  // Theorem 6.2: ⊑w implies PS^na refinement under every context.
  std::string Detail;
  for (const ContextVerdict &V : Rec.Contexts)
    if (!V.Holds)
      Detail += "  ctx " + V.Context + ": " + V.Counterexample + "\n";
  EXPECT_TRUE(Rec.adequacyHolds())
      << RC.Name << ": SEQ validated the pair but PS^na separates it —\n"
      << Detail;
}

INSTANTIATE_TEST_SUITE_P(
    PaperExamples, AdequacyCorpusTest,
    ::testing::ValuesIn(refinementCorpus()),
    [](const ::testing::TestParamInfo<RefinementCase> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===
// Witnesses: transformations the paper argues are *semantically* unsound
// must be separated by some context in the library.
//===----------------------------------------------------------------------===

TEST(AdequacyWitnessTest, UnsoundCorpusCasesHavePsnaWitnesses) {
  // Corpus cases whose plain snippet is already separated by a library
  // context.
  const char *Names[] = {
      "ex2.5-reorder-na-same",
      "ex2.9-ii",
      "ex2.9-iv",
      "ex2.10-store-intro-after-rel",
  };
  for (const char *Name : Names) {
    const RefinementCase &RC = refinementCaseByName(Name);
    AdequacyRecord Rec = runAdequacy(RC, psCfg());
    EXPECT_TRUE(Rec.witnessFound())
        << Name << ": no PS^na context separates this unsound pair "
        << "(context library too weak?)";
  }
}

TEST(AdequacyWitnessTest, GuardedVariantsHavePsnaWitnesses) {
  // For several unsound transformations, the bare corpus snippet is NOT
  // separable as a whole program: whenever a context could distinguish
  // them it also races the *source* into UB (which masks everything), or
  // the source can mimic the target by reading a stale flag value. SEQ
  // rejecting them is an instance of sufficiency-without-necessity. The
  // guarded variants below synchronize the source's access, removing the
  // masking, and are separated by the context library.
  struct WitnessPair {
    const char *Name;
    const char *Src;
    const char *Tgt;
  };
  const WitnessPair Pairs[] = {
      // Write introduction (Example 2.6): hoisting a flag-guarded na write
      // makes the target race a plain na writer while the source never
      // writes (nobody releases the flag).
      {"write-intro-guarded",
       "na d; atomic f;\n"
       "thread { b := f@acq; if (b == 1) { d@na := 1; } return b; }",
       "na d; atomic f;\n"
       "thread { b := f@acq; d@na := 1; return b; }"},
      // Example 2.9(i) guarded: the target's na write escapes the acquire
      // and races the handoff partner's initialization of the data.
      {"ex2.9-i-guarded",
       "na d; atomic f;\n"
       "thread { a := f@acq; if (a == 1) { d@na := 1; } return a; }",
       "na d; atomic f;\n"
       "thread { d@na := 1; a := f@acq; if (a == 1) { skip; } return a; }"},
      // Example 2.9(iii) guarded: the target's hoisted na read races and
      // returns undef; the synchronized source always reads the handoff
      // value.
      {"ex2.9-iii-guarded",
       "na d; atomic f;\n"
       "thread { a := f@acq; b := 3; if (a == 1) { b := d@na; } "
       "return b; }",
       "na d; atomic f;\n"
       "thread { b := d@na; a := f@acq; if (a == 1) { skip; } "
       "else { b := 3; } return b; }"},
  };
  for (const WitnessPair &W : Pairs) {
    std::unique_ptr<Program> Src = parseOrDie(W.Src);
    std::unique_ptr<Program> Tgt = parseOrDie(W.Tgt);
    SeqConfig SeqCfg;
    SeqCfg.Domain = ValueDomain::binary();
    AdequacyRecord Rec = runAdequacy(W.Name, *Src, *Tgt, SeqCfg, psCfg(),
                                     /*HasLoops=*/false);
    EXPECT_FALSE(Rec.SeqAdvanced)
        << W.Name << ": SEQ must reject this unsound pair";
    EXPECT_TRUE(Rec.witnessFound())
        << W.Name << ": no PS^na context separates this unsound pair";
  }
}

TEST(AdequacyWitnessTest, SlfAcrossRelAcqPairSeparatedByInterveningWriter) {
  // Example 2.12's phenomenon, with the guarded consumer that forces the
  // source to observe the context's intervening write: a bespoke context
  // acquires the thread's release, overwrites x, and releases z back.
  auto Src = prog("na x; atomic y, z;\n"
                  "thread { x@na := 1; y@rel := 1; a := z@acq; "
                  "if (a == 1) { b := x@na; } else { b := 3; } return b; }\n"
                  "thread { c := y@acq; if (c == 1) { x@na := 2; "
                  "z@rel := 1; } return c; }");
  auto Tgt = prog("na x; atomic y, z;\n"
                  "thread { x@na := 1; y@rel := 1; a := z@acq; "
                  "if (a == 1) { b := 1; } else { b := 3; } return b; }\n"
                  "thread { c := y@acq; if (c == 1) { x@na := 2; "
                  "z@rel := 1; } return c; }");
  PsRefinementResult R = checkPsRefinement(*Src, *Tgt, psCfg());
  EXPECT_FALSE(R.Holds)
      << "the intervening writer must separate SLF across a rel-acq pair";
  EXPECT_NE(R.Counterexample.find("ret(1,1)"), std::string::npos)
      << "the separating behavior is the forwarded stale value, got: "
      << R.Counterexample;
}

//===----------------------------------------------------------------------===
// Random sweep: Prop 3.4 plus the Thm 6.2 direction on generated pairs.
//===----------------------------------------------------------------------===

TEST(AdequacyRandomSweepTest, SeqVerdictsSoundOnRandomPairs) {
  Rng R(20220613); // PLDI'22 first day
  unsigned Validated = 0, Rejected = 0;
  for (unsigned Iter = 0; Iter != 60; ++Iter) {
    RandomPair Pair = randomRefinementPair(R);
    std::unique_ptr<Program> Src = parseOrDie(Pair.Src);
    std::unique_ptr<Program> Tgt = parseOrDie(Pair.Tgt);

    SeqConfig SeqCfg;
    SeqCfg.Domain = ValueDomain::binary();
    RefinementResult Simple = checkSimpleRefinement(*Src, *Tgt, SeqCfg);
    RefinementResult Advanced = checkAdvancedRefinement(*Src, *Tgt, SeqCfg);

    // Proposition 3.4 on random pairs.
    if (Simple.Holds) {
      EXPECT_TRUE(Advanced.Holds)
          << "Prop 3.4 violated on\n"
          << Pair.Src << "\n->\n"
          << Pair.Tgt << "\n(" << Pair.Mutation << ")";
    }

    if (!Advanced.Holds) {
      ++Rejected;
      continue;
    }
    ++Validated;
    AdequacyRecord Rec = runAdequacy("random", *Src, *Tgt, SeqCfg, psCfg(),
                                     /*HasLoops=*/false);
    std::string Detail;
    for (const ContextVerdict &V : Rec.Contexts)
      if (!V.Holds)
        Detail += "  ctx " + V.Context + ": " + V.Counterexample + "\n";
    EXPECT_TRUE(Rec.PsnaAllContexts)
        << "Thm 6.2 direction violated on\n"
        << Pair.Src << "\n->\n"
        << Pair.Tgt << "\n(" << Pair.Mutation << ")\n"
        << Detail;
  }
  // The sweep must exercise both outcomes to be meaningful.
  EXPECT_GT(Validated, 5u);
  EXPECT_GT(Rejected, 5u);
}

TEST(AdequacyRandomSweepTest, RandomContextsCannotSeparateValidatedPairs) {
  // Beyond the curated library: compose SEQ-validated random pairs with
  // random contexts and check PS^na inclusion directly (Thm 6.2 again,
  // now with ∀-context sampled rather than enumerated).
  Rng R(20220617); // PLDI'22 last day
  unsigned Composed = 0;
  for (unsigned Iter = 0; Iter != 30 && Composed < 12; ++Iter) {
    RandomPair Pair = randomRefinementPair(R);
    std::unique_ptr<Program> Src = parseOrDie(Pair.Src);
    std::unique_ptr<Program> Tgt = parseOrDie(Pair.Tgt);
    SeqConfig SeqCfg;
    SeqCfg.Domain = ValueDomain::binary();
    if (!checkAdvancedRefinement(*Src, *Tgt, SeqCfg).Holds)
      continue;
    std::string Ctx = randomContextThread(R);
    std::unique_ptr<Program> SrcC = parseOrDie(Pair.Src + "\n" + Ctx);
    std::unique_ptr<Program> TgtC = parseOrDie(Pair.Tgt + "\n" + Ctx);
    PsRefinementResult PR = checkPsRefinement(*SrcC, *TgtC, psCfg());
    ++Composed;
    EXPECT_TRUE(PR.Holds) << "Thm 6.2 violated:\n"
                          << Pair.Src << "\n->\n"
                          << Pair.Tgt << "\nunder context\n"
                          << Ctx << "\n"
                          << PR.Counterexample;
  }
  EXPECT_GE(Composed, 8u) << "sweep must compose enough validated pairs";
}

namespace {

/// Per-name span counts from the folded phase table: each row's count goes
/// to the last component of its path, so a span contributes once whatever
/// lane (and so whatever path prefix) it was recorded under.
std::map<std::string, uint64_t> phaseCountsByName(const RefinementCase &RC,
                                                  unsigned NumThreads) {
  obs::SpanRecorder Spans;
  obs::Telemetry Telem;
  Telem.Spans = &Spans;
  PsConfig Cfg = psCfg();
  Cfg.NumThreads = NumThreads;
  Cfg.Telem = &Telem;
  runAdequacy(RC, Cfg);
  std::map<std::string, uint64_t> Counts;
  for (const obs::PhaseRow &R : obs::foldSpanPhases(Spans))
    Counts[R.Path.substr(R.Path.rfind('/') + 1)] += R.Count;
  return Counts;
}

} // namespace

TEST(AdequacyPhaseTest, PhaseTableCountsDoNotDependOnWorkerCount) {
  // Worker-side spans (each context's exploration) land in the pool
  // workers' lanes; the fold must still count every one of them.
  const RefinementCase *Case = nullptr;
  for (const RefinementCase &RC : refinementCorpus())
    if (!RC.HasLoops && RC.AdvancedHolds) {
      Case = &RC;
      break;
    }
  ASSERT_NE(Case, nullptr);
  std::map<std::string, uint64_t> One = phaseCountsByName(*Case, 1);
  std::map<std::string, uint64_t> Two = phaseCountsByName(*Case, 2);
  for (const char *Name : {"psna.explore", "adequacy.context",
                           "seq.check.simple", "seq.check.advanced"}) {
    EXPECT_GT(One[Name], 0u) << Name;
    EXPECT_EQ(One[Name], Two[Name]) << Name;
  }
  EXPECT_EQ(One["adequacy.pair"], 1u);
  EXPECT_EQ(Two["adequacy.pair"], 1u);
}
