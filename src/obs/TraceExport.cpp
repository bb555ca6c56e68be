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

/// A reconstructed span-tree node: the record plus child indices.
struct Node {
  const SpanRecord *Rec;
  std::vector<size_t> Kids;
};

void emitNode(std::string &Out, bool &First, unsigned Tid,
              const std::vector<Node> &Nodes, size_t I) {
  appendEvent(Out, First, "B", Nodes[I].Rec->Name, Nodes[I].Rec->BeginNs,
              Tid);
  for (size_t K : Nodes[I].Kids)
    emitNode(Out, First, Tid, Nodes, K);
  appendEvent(Out, First, "E", Nodes[I].Rec->Name, Nodes[I].Rec->EndNs, Tid);
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

    // A lane records spans at *end* time, so the record stream is a
    // postorder traversal of the lane's span forest; together with the
    // recorded nesting depths this rebuilds the forest exactly (no
    // timestamp-tie heuristics): when a span at depth d completes, every
    // still-unattached subtree at depth d+1 is one of its children.
    std::vector<Node> Nodes;
    Nodes.reserve(Recs.size());
    std::vector<std::vector<size_t>> Pending; // unattached roots per depth
    for (const SpanRecord &S : Recs) {
      Node N2;
      N2.Rec = &S;
      if (S.Depth + 1 < Pending.size()) {
        N2.Kids = std::move(Pending[S.Depth + 1]);
        Pending[S.Depth + 1].clear();
      }
      if (Pending.size() <= S.Depth)
        Pending.resize(S.Depth + 1);
      Nodes.push_back(std::move(N2));
      Pending[S.Depth].push_back(Nodes.size() - 1);
    }

    // Emit preorder: B, children, E — balanced per tid by construction.
    // Leftovers at depth > 0 (spans whose parent never closed) become
    // roots so nothing recorded is lost.
    for (const std::vector<size_t> &Roots : Pending)
      for (size_t I : Roots)
        emitNode(Out, First, L, Nodes, I);
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
