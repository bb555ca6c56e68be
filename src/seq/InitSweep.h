//===- seq/InitSweep.h - Per-initial-state fan-out --------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal driver shared by the Def 2.4 and Fig. 2 refinement checkers:
/// both quantify over the same initial-state space (P × F × M products) and
/// fold one self-contained record per initial state into a
/// RefinementResult, stopping at the first failing state. The driver runs
/// the per-state checks either inline or fanned out across the thread
/// pool; records always fold in index order, so the result (verdict,
/// counterexample, truncation cause, behavior tallies) is identical for
/// every worker count.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_INITSWEEP_H
#define PSEQ_SEQ_INITSWEEP_H

#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "obs/Telemetry.h"
#include "seq/SimpleRefinement.h"

#include <atomic>
#include <memory>
#include <vector>

namespace pseq::detail {

/// Everything one initial state contributes to a RefinementResult.
struct InitRecord {
  bool Failed = false;
  bool Bounded = false;
  TruncationCause Cause = TruncationCause::None;
  uint64_t SrcBehaviors = 0;
  uint64_t TgtBehaviors = 0;
  std::string Counterexample;
};

/// Folds \p R into \p Result the way the sequential loop accumulates one
/// iteration. \returns false when the sweep must stop (first failure).
inline bool foldInitRecord(RefinementResult &Result, InitRecord &R) {
  Result.Bounded |= R.Bounded;
  noteTruncation(Result.Cause, R.Cause);
  Result.SrcBehaviors += R.SrcBehaviors;
  Result.TgtBehaviors += R.TgtBehaviors;
  if (!R.Failed)
    return true;
  Result.Holds = false;
  Result.Counterexample = std::move(R.Counterexample);
  return false;
}

/// Runs CheckInit(SrcM, TgtM, Idx, Record) for initial-state indices
/// 0..NumInits and folds the records in index order, stopping at the first
/// failed index. With NumThreads > 1 (and when not already on a pool
/// worker) indices are claimed dynamically by pool workers against
/// per-worker machine copies — telemetry goes to obs::WorkerTelemetry
/// registries, folded after the join. A monotonically shrinking
/// first-failure bound lets workers skip indices past a known failure: the
/// fold never reads past the smallest failed index, and no index at or
/// below it is ever skipped, so the folded prefix matches the sequential
/// run exactly.
template <typename CheckFn>
void sweepInits(const SeqMachine &SrcM, const SeqMachine &TgtM,
                size_t NumInits, RefinementResult &Result,
                CheckFn CheckInit) {
  const SeqConfig &Cfg = SrcM.config();
  unsigned N = exec::resolveThreads(Cfg.NumThreads);
  guard::ResourceGuard *G = Cfg.Guard;
  std::vector<InitRecord> Records(NumInits);

  // An initial state skipped because the guard tripped contributes a
  // bounded record naming the trip cause: the sweep over-approximates
  // "unknown" as "bounded", never as "checked and fine". The fold keeps
  // going through such records — only definite failures stop it.
  auto MarkSkipped = [&](InitRecord &R) {
    R.Bounded = true;
    noteTruncation(R.Cause, G->cause());
  };

  if (N <= 1 || exec::ThreadPool::insideWorker() || NumInits <= 1) {
    // Inline. A multi-threaded config with a single initial state still
    // parallelizes *inside* the per-state check (the enumerators fan out
    // their subtrees).
    for (size_t Idx = 0; Idx != NumInits; ++Idx) {
      if (G && G->checkpoint() != TruncationCause::None)
        MarkSkipped(Records[Idx]);
      else
        CheckInit(SrcM, TgtM, Idx, Records[Idx]);
      if (!foldInitRecord(Result, Records[Idx]))
        return;
    }
    return;
  }

  obs::WorkerTelemetry WTelems(Cfg.Telem, N);
  std::vector<std::unique_ptr<SeqMachine>> WSrc, WTgt;
  for (unsigned W = 0; W != N; ++W) {
    SeqConfig WCfg = Cfg;
    WCfg.Telem = WTelems[W];
    WSrc.push_back(
        std::make_unique<SeqMachine>(SrcM.program(), SrcM.tid(), WCfg));
    WTgt.push_back(
        std::make_unique<SeqMachine>(TgtM.program(), TgtM.tid(), WCfg));
  }

  std::atomic<size_t> Next{0};
  std::atomic<size_t> MinFail{NumInits};
  exec::ThreadPool::global().run(
      N,
      [&](unsigned W) {
        size_t Idx;
        while ((Idx = Next.fetch_add(1, std::memory_order_relaxed)) <
               NumInits) {
          if (Idx > MinFail.load(std::memory_order_relaxed))
            continue; // the fold stops before this index no matter what
          if (G && G->stopped())
            continue; // marked bounded below, after the join
          CheckInit(*WSrc[W], *WTgt[W], Idx, Records[Idx]);
          if (Records[Idx].Failed) {
            size_t Cur = MinFail.load(std::memory_order_relaxed);
            while (Idx < Cur && !MinFail.compare_exchange_weak(
                                    Cur, Idx, std::memory_order_relaxed))
              ;
          }
        }
      },
      G ? &G->stopFlag() : nullptr);

  WTelems.fold();

  if (G && G->stopped()) {
    // Indices neither failed nor bounded after a trip were skipped (or
    // their results raced the trip); mark them so the fold stays honest.
    // A failure found before the trip is still a definite failure.
    for (InitRecord &R : Records)
      if (!R.Failed && !R.Bounded && R.SrcBehaviors == 0)
        MarkSkipped(R);
  }

  for (size_t Idx = 0; Idx != NumInits; ++Idx)
    if (!foldInitRecord(Result, Records[Idx]))
      return;
}

} // namespace pseq::detail

#endif // PSEQ_SEQ_INITSWEEP_H
