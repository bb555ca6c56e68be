//===- tests/trace_determinism_test.cpp - Telemetry thread-invariance -----===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The flight recorder's determinism contract: running the engines at
// --threads 1, 2, and 8 with tracing on must produce bit-identical counters
// and bit-identical non-timing histograms (sizes/counts — keys without a
// ".ns"/".us"/".ms" suffix). Gauges (pool/guard/memo occupancy, peak
// frontier) and timing histograms are thread-count-dependent by nature and
// excluded. Span *sets* (the multiset of recorded span names) must also be
// stable for the PS^na explorer.
//
// This is the test teeth behind the DESIGN.md claim that the PS^na frontier
// evolves identically for every worker count (level-synchronous BFS merged
// in pop order) — if instrumentation is ever moved somewhere
// schedule-dependent, this fails.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "obs/Telemetry.h"
#include "psna/Explorer.h"
#include "seq/BehaviorEnum.h"

#include "gtest/gtest.h"

#include <map>
#include <string>

using namespace pseq;

namespace {

/// Counters + non-timing histogram fingerprints after exploring the whole
/// litmus corpus with \p NumThreads workers and spans recorded.
struct CorpusTelemetry {
  std::map<std::string, uint64_t> Counters;
  /// Key -> (count, sum, min, max, bucket checksum): equal iff the
  /// histograms are bit-identical.
  std::map<std::string, std::string> Hists;
  std::map<std::string, uint64_t> SpanNames; ///< name -> multiplicity
};

std::string histFingerprint(const obs::Histogram &H) {
  std::string F = std::to_string(H.count()) + "/" + std::to_string(H.sum()) +
                  "/" + std::to_string(H.min()) + "/" +
                  std::to_string(H.max());
  for (unsigned B = 0; B < obs::Histogram::NumBuckets; ++B)
    if (H.bucket(B))
      F += "|" + std::to_string(B) + ":" + std::to_string(H.bucket(B));
  return F;
}

CorpusTelemetry explorePsnaCorpus(unsigned NumThreads) {
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = parseOrDie(LC.Text);
    PsConfig Cfg;
    Cfg.Domain = LC.Domain;
    Cfg.PromiseBudget = LC.PromiseBudget;
    Cfg.SplitBudget = LC.SplitBudget;
    Cfg.NumThreads = NumThreads;
    Cfg.Telem = &Telem;
    explorePsna(*P, Cfg);
  }

  CorpusTelemetry Out;
  // Per-worker step counters (psna.explore.threadN) depend on the worker
  // count by construction; fold them into one total instead of dropping
  // the signal.
  uint64_t ThreadSteps = 0;
  for (const auto &[Name, V] : Telem.Counters.counters()) {
    if (Name.rfind("psna.explore.thread", 0) == 0)
      ThreadSteps += V;
    else
      Out.Counters[Name] = V;
  }
  Out.Counters["psna.explore.thread*"] = ThreadSteps;
  for (const auto &[Name, H] : Telem.Counters.histograms())
    if (!obs::isTimingHistKey(Name))
      Out.Hists[Name] = histFingerprint(H);
  for (unsigned L = 0; L < Spans.lanes(); ++L)
    for (const obs::SpanRecord &S : Spans.lane(L))
      ++Out.SpanNames[S.Name];
  return Out;
}

CorpusTelemetry enumerateSeqCorpus(unsigned NumThreads) {
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = parseOrDie(LC.Text);
    SeqConfig Cfg;
    Cfg.Domain = LC.Domain;
    Cfg.Universe = P->naLocs();
    Cfg.StepBudget = LC.StepBudget;
    Cfg.NumThreads = NumThreads;
    Cfg.Telem = &Telem;
    std::vector<Value> Mem(P->numLocs(), Value::of(0));
    for (unsigned T = 0; T < P->numThreads(); ++T) {
      SeqMachine M(*P, T, Cfg);
      enumerateBehaviors(M, M.initial(P->naLocs(), LocSet::empty(), Mem));
    }
  }

  CorpusTelemetry Out;
  Out.Counters = Telem.Counters.counters();
  for (const auto &[Name, H] : Telem.Counters.histograms())
    if (!obs::isTimingHistKey(Name))
      Out.Hists[Name] = histFingerprint(H);
  for (unsigned L = 0; L < Spans.lanes(); ++L)
    for (const obs::SpanRecord &S : Spans.lane(L))
      ++Out.SpanNames[S.Name];
  return Out;
}

void expectSameTelemetry(const CorpusTelemetry &A, const CorpusTelemetry &B,
                         const char *What, bool CompareSpans) {
  EXPECT_EQ(A.Counters, B.Counters) << What << ": counters diverged";
  EXPECT_EQ(A.Hists, B.Hists) << What << ": histograms diverged";
  if (CompareSpans) {
    EXPECT_EQ(A.SpanNames, B.SpanNames) << What << ": span set diverged";
  }
}

TEST(TraceDeterminismTest, PsnaCorpusTelemetryThreadInvariant) {
  CorpusTelemetry T1 = explorePsnaCorpus(1);
  CorpusTelemetry T2 = explorePsnaCorpus(2);
  CorpusTelemetry T8 = explorePsnaCorpus(8);
  // Sanity: the instrumentation actually fired.
  EXPECT_GT(T1.Counters.count("psna.explore.runs"), 0u);
  EXPECT_GT(T1.Hists.count("psna.explore.frontier"), 0u);
  EXPECT_GT(T1.Hists.count("psna.explore.behavior_set"), 0u);
  EXPECT_GT(T1.SpanNames.size(), 0u);
  // One exploration loop for every worker count: one psna.explore span per
  // run and one psna.expand span per expanded state, whatever the pool.
  EXPECT_GT(T1.SpanNames.count("psna.expand"), 0u);
  expectSameTelemetry(T1, T2, "psna 1 vs 2", /*CompareSpans=*/true);
  expectSameTelemetry(T1, T8, "psna 1 vs 8", /*CompareSpans=*/true);
}

TEST(TraceDeterminismTest, SeqCorpusTelemetryThreadInvariant) {
  CorpusTelemetry T1 = enumerateSeqCorpus(1);
  CorpusTelemetry T2 = enumerateSeqCorpus(2);
  CorpusTelemetry T8 = enumerateSeqCorpus(8);
  EXPECT_GT(T1.Counters.count("seq.enum.behaviors_emitted"), 0u);
  EXPECT_GT(T1.Hists.count("seq.enum.behavior_set"), 0u);
  EXPECT_GT(T2.SpanNames.count("seq.enum"), 0u);
  // seq.task spans are NOT compared: the enumerator's phase-1 frontier
  // split targets N*4 tasks, so the task count is a function of the
  // worker count by design (only the merged *results* are invariant).
  expectSameTelemetry(T1, T2, "seq 1 vs 2", /*CompareSpans=*/false);
  expectSameTelemetry(T2, T8, "seq 2 vs 8", /*CompareSpans=*/false);
}

} // namespace
