//===- obs/Report.h - Telemetry rendering -----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a Telemetry bundle as a human-readable summary table or as one
/// machine-readable JSON object. Counters and gauges iterate in sorted
/// key order. The phase table ("timers") is folded from the attached span
/// recorder (foldSpanPhases); without a recorder it is empty.
///
/// JSON shape:
///   {"counters":{"k":v,...},"gauges":{"k":v,...},
///    "histograms":{"k":{"count":n,"sum":s,"min":m,"max":M,
///                       "p50":v,"p90":v,"p99":v,"buckets":[[b,c],...]},...},
///    "timers":[{"path":"a/b","ms":t,"count":n},...],
///    "spans":{"recorded":n,"dropped":n}}
/// The "spans" member (and the table's spans section) is present when a
/// span recorder is attached; "dropped" counts spans lost to full lanes,
/// which the phase rows then miss.
/// Histogram buckets are sparse [bucket index, count] pairs; percentiles
/// are derived from the buckets, so two runs with equal buckets render
/// byte-identical histogram objects.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_REPORT_H
#define PSEQ_OBS_REPORT_H

#include "obs/Telemetry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pseq::obs {

/// One phase-table row: every span whose name path (ancestor names joined
/// with '/') is Path, summed over all lanes.
struct PhaseRow {
  std::string Path;
  double Ms = 0;      ///< inclusive wall time across all entries
  uint64_t Count = 0; ///< number of spans on this path
  unsigned Depth = 0; ///< number of '/' in Path
};

/// Folds \p R into phase rows: each lane's span forest is rebuilt, spans
/// with equal name paths merge across lanes, and rows come out pre-order
/// (parent before children) with siblings ordered by earliest begin. Read
/// only after the recording threads joined.
std::vector<PhaseRow> foldSpanPhases(const SpanRecorder &R);

/// Human-readable summary: counters, gauges, histogram percentile rows
/// (p50/p90/p99/max and count), and the indented phase table.
std::string renderReportTable(const Telemetry &T);

/// One histogram as a JSON object (the "histograms" member value above).
std::string renderHistogramJson(const Histogram &H);

/// One JSON object (no trailing newline); see the schema above.
std::string renderReportJson(const Telemetry &T);

/// Writes renderReportJson + '\n' to \p Path. \returns false on I/O error.
bool writeReportJson(const Telemetry &T, const std::string &Path);

} // namespace pseq::obs

#endif // PSEQ_OBS_REPORT_H
