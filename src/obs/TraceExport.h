//===- obs/TraceExport.h - Chrome trace-event / Perfetto export -*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a SpanRecorder into the Chrome trace-event JSON format
/// (`{"traceEvents":[...]}`), the dialect ui.perfetto.dev and
/// chrome://tracing load directly. Every span becomes a balanced pair of
/// "B"/"E" duration events on the lane's tid; the recorded nesting depths
/// reconstruct exact begin/end ordering, so the output is well-formed even
/// though lanes record spans at *end* time. A closing "spans_dropped"
/// metadata record carries the number of spans lost to full lanes.
///
/// Timestamps are microseconds (the format's unit) since the recorder's
/// epoch, with nanosecond fractions preserved.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_TRACEEXPORT_H
#define PSEQ_OBS_TRACEEXPORT_H

#include "obs/Span.h"

#include <string>

namespace pseq::obs {

/// Renders \p R as one Chrome trace-event JSON object. \p ProcessName
/// labels the process track in the Perfetto UI.
std::string renderChromeTrace(const SpanRecorder &R,
                              const std::string &ProcessName);

/// Writes renderChromeTrace + '\n' to \p Path. \returns false on I/O
/// error. Call only after the recording threads have joined.
bool writeChromeTrace(const SpanRecorder &R, const std::string &Path,
                      const std::string &ProcessName);

} // namespace pseq::obs

#endif // PSEQ_OBS_TRACEEXPORT_H
