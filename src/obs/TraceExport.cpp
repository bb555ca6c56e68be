//===- obs/TraceExport.cpp - Chrome trace-event / Perfetto export ---------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/TraceExport.h"

#include "obs/TraceSink.h"
#include "support/AtomicFile.h"

#include <cstdio>

using namespace pseq::obs;

namespace {

/// Microsecond timestamp with the nanosecond fraction kept (Perfetto
/// accepts fractional ts).
std::string tsUs(uint64_t Ns) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03u",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned>(Ns % 1000));
  return Buf;
}

void appendEvent(std::string &Out, bool &First, const char *Ph,
                 const char *Name, uint64_t Ns, unsigned Tid) {
  if (!First)
    Out += ',';
  First = false;
  Out += "\n{\"name\":\"";
  Out += jsonEscape(Name);
  Out += "\",\"ph\":\"";
  Out += Ph;
  Out += "\",\"ts\":";
  Out += tsUs(Ns);
  Out += ",\"pid\":1,\"tid\":";
  Out += std::to_string(Tid);
  Out += '}';
}

void appendMeta(std::string &Out, bool &First, const char *Kind,
                unsigned Tid, const std::string &Label) {
  if (!First)
    Out += ',';
  First = false;
  Out += "\n{\"name\":\"";
  Out += Kind;
  Out += "\",\"ph\":\"M\",\"pid\":1,\"tid\":";
  Out += std::to_string(Tid);
  Out += ",\"args\":{\"name\":\"";
  Out += jsonEscape(Label);
  Out += "\"}}";
}

void emitNode(std::string &Out, bool &First, unsigned Tid,
              const SpanForest &F, size_t I) {
  const SpanRecord &R = *F.Nodes[I].Rec;
  appendEvent(Out, First, "B", R.Name, R.BeginNs, Tid);
  for (size_t K : F.Nodes[I].Kids)
    emitNode(Out, First, Tid, F, K);
  appendEvent(Out, First, "E", R.Name, R.EndNs, Tid);
}

} // namespace

std::string pseq::obs::renderChromeTrace(const SpanRecorder &R,
                                         const std::string &ProcessName) {
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  appendMeta(Out, First, "process_name", 0, ProcessName);

  for (unsigned L = 0, N = R.lanes(); L != N; ++L) {
    const std::vector<SpanRecord> &Recs = R.lane(L);
    if (Recs.empty())
      continue;
    appendMeta(Out, First, "thread_name", L,
               L == 0 ? "orchestrator" : "lane-" + std::to_string(L));

    // Emit preorder: B, children, E — balanced per tid by construction.
    SpanForest F = buildSpanForest(Recs);
    for (size_t I : F.Roots)
      emitNode(Out, First, L, F, I);
  }

  // Spans lost to full lanes: a trace missing its tail says so.
  Out += ",\n{\"name\":\"spans_dropped\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"dropped\":" +
         std::to_string(R.droppedSpans()) + "}}";
  Out += "\n],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

bool pseq::obs::writeChromeTrace(const SpanRecorder &R,
                                 const std::string &Path,
                                 const std::string &ProcessName) {
  // Atomic (temp + rename): Perfetto rejects truncated traces outright, so
  // a kill mid-export must leave the previous file or none.
  return support::writeFileAtomic(Path, renderChromeTrace(R, ProcessName) +
                                            "\n");
}
