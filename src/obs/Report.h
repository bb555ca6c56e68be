//===- obs/Report.h - Telemetry rendering -----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a Telemetry bundle as a human-readable summary table or as one
/// machine-readable JSON object. Both renderings are deterministic:
/// counters and gauges iterate in sorted key order, timer phases in
/// execution order.
///
/// JSON shape:
///   {"counters":{"k":v,...},"gauges":{"k":v,...},
///    "histograms":{"k":{"count":n,"sum":s,"min":m,"max":M,
///                       "p50":v,"p90":v,"p99":v,"buckets":[[b,c],...]},...},
///    "timers":[{"path":"a/b","ms":t,"count":n},...],
///    "spans":{"recorded":n,"dropped":n}}
/// The "spans" member (and the table's spans section) is present when a
/// span recorder is attached; "dropped" counts spans lost to full lanes.
/// Histogram buckets are sparse [bucket index, count] pairs; percentiles
/// are derived from the buckets, so two runs with equal buckets render
/// byte-identical histogram objects.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_REPORT_H
#define PSEQ_OBS_REPORT_H

#include "obs/Telemetry.h"

#include <string>

namespace pseq::obs {

/// Human-readable summary: counters, gauges, histogram percentile rows
/// (p50/p90/p99/max and count), and the indented timer tree.
std::string renderReportTable(const Telemetry &T);

/// One histogram as a JSON object (the "histograms" member value above).
std::string renderHistogramJson(const Histogram &H);

/// One JSON object (no trailing newline); see the schema above.
std::string renderReportJson(const Telemetry &T);

/// Writes renderReportJson + '\n' to \p Path. \returns false on I/O error.
bool writeReportJson(const Telemetry &T, const std::string &Path);

} // namespace pseq::obs

#endif // PSEQ_OBS_REPORT_H
