//===- obs/Telemetry.h - The per-run telemetry bundle -----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handle the configs (SeqConfig, PsConfig, PipelineOptions) carry: a
/// counter/gauge registry, an optional span recorder (the one timing
/// facility; the report's phase table is folded from it), and an optional
/// JSONL trace sink. All engines treat a null Telemetry pointer as
/// "telemetry off" and skip every observation behind a single branch, so
/// the default-constructed configs cost nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_TELEMETRY_H
#define PSEQ_OBS_TELEMETRY_H

#include "obs/Counters.h"
#include "obs/Span.h"
#include "obs/TraceSink.h"

#include <memory>
#include <mutex>
#include <vector>

namespace pseq::obs {

/// One run's worth of telemetry. Non-copyable; share by pointer.
struct Telemetry {
  Stats Counters;
  /// Borrowed, not owned; null means "no tracing". Prefer tracing() +
  /// trace() over touching this directly.
  TraceSink *Sink = nullptr;
  /// Borrowed, not owned; null means "no span recording". Pooled engines
  /// hand it to every worker through WorkerTelemetry; sites open spans
  /// with obs::ScopedSpan.
  SpanRecorder *Spans = nullptr;

  /// Folds a worker registry into this one (counters add, gauges max);
  /// the lock makes concurrent folds safe. See WorkerTelemetry.
  void mergeCounters(const Stats &S) {
    std::lock_guard<std::mutex> L(MergeMu);
    Counters.merge(S);
  }

  bool tracing() const { return Sink && Sink->enabled(); }

  /// Emits an event when tracing is on. Callers on hot paths should guard
  /// with tracing() first so the field vector is never built needlessly.
  void trace(std::string_view Kind, const std::vector<TraceField> &Fields) {
    if (tracing())
      Sink->event(Kind, Fields);
  }

  /// Flight-recorder shutdown: emits one "run.final" event carrying \p
  /// Reason plus every counter and gauge, then flushes the sink. Engines
  /// call this when a guard truncation cuts a run short, and the
  /// fork-isolation harness calls it before a worker may die — either way
  /// the JSONL tail ends on a complete, self-describing line. Safe to call
  /// with tracing off (it degrades to a flush-only no-op) and from the
  /// orchestrator thread only.
  void finalSnapshot(std::string_view Reason);

private:
  std::mutex MergeMu;
};

/// The telemetry of one pooled fan-out. With a parent attached, every
/// worker gets a private counter registry (registries are not safe for
/// concurrent writers) that shares the parent's span recorder (its lanes
/// are per-thread, so sharing is free); fold() adds the registries back
/// into the parent after the join. Without a parent every worker handle is
/// null. The trace sink stays with the parent: its events are ordered,
/// orchestrator-only records, not tallies.
class WorkerTelemetry {
public:
  WorkerTelemetry(Telemetry *Parent, unsigned NumWorkers) : Parent(Parent) {
    if (!Parent)
      return;
    for (unsigned W = 0; W != NumWorkers; ++W) {
      Workers.push_back(std::make_unique<obs::Telemetry>());
      Workers.back()->Spans = Parent->Spans;
    }
  }

  /// Worker \p W's handle; null when the parent is.
  Telemetry *operator[](unsigned W) const {
    return Parent ? Workers[W].get() : nullptr;
  }

  /// Adds every worker registry into the parent's. Call once, after the
  /// fan-out joined.
  void fold() {
    for (const std::unique_ptr<Telemetry> &W : Workers)
      Parent->mergeCounters(W->Counters);
  }

private:
  Telemetry *Parent;
  std::vector<std::unique_ptr<Telemetry>> Workers;
};

} // namespace pseq::obs

#endif // PSEQ_OBS_TELEMETRY_H
