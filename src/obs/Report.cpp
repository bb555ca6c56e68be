//===- obs/Report.cpp - Telemetry rendering -------------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"

#include "support/AtomicFile.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>

using namespace pseq::obs;

namespace {

std::string fixed(double V, int Prec = 2) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Prec, V);
  return Buf;
}

/// A node of the name-path trie the lanes fold into (node 0 is the root).
struct PhaseNode {
  std::string_view Name;
  double Ms = 0;
  uint64_t Count = 0;
  uint64_t FirstBeginNs = std::numeric_limits<uint64_t>::max();
  std::vector<size_t> Kids;
};

void foldSpan(const SpanForest &F, size_t I, size_t Parent,
              std::vector<PhaseNode> &Trie) {
  const SpanRecord &S = *F.Nodes[I].Rec;
  const std::vector<size_t> &Siblings = Trie[Parent].Kids;
  auto It = std::find_if(Siblings.begin(), Siblings.end(),
                         [&](size_t K) { return Trie[K].Name == S.Name; });
  size_t Slot = It != Siblings.end() ? *It : Trie.size();
  if (Slot == Trie.size()) {
    Trie[Parent].Kids.push_back(Slot);
    Trie.emplace_back().Name = S.Name;
  }
  PhaseNode &N = Trie[Slot];
  N.Ms += static_cast<double>(S.EndNs - S.BeginNs) / 1e6;
  ++N.Count;
  N.FirstBeginNs = std::min(N.FirstBeginNs, S.BeginNs);
  for (size_t K : F.Nodes[I].Kids)
    foldSpan(F, K, Slot, Trie);
}

void flattenPhases(const std::vector<PhaseNode> &Trie, size_t I,
                   const std::string &Prefix, unsigned Depth,
                   std::vector<PhaseRow> &Out) {
  std::vector<size_t> Kids = Trie[I].Kids;
  std::stable_sort(Kids.begin(), Kids.end(), [&](size_t A, size_t B) {
    return Trie[A].FirstBeginNs < Trie[B].FirstBeginNs;
  });
  for (size_t K : Kids) {
    std::string Path = Prefix.empty()
                           ? std::string(Trie[K].Name)
                           : Prefix + '/' + std::string(Trie[K].Name);
    Out.push_back({Path, Trie[K].Ms, Trie[K].Count, Depth});
    flattenPhases(Trie, K, Path, Depth + 1, Out);
  }
}

/// The phase rows of \p T; none without a span recorder.
std::vector<PhaseRow> phaseRows(const Telemetry &T) {
  return T.Spans ? foldSpanPhases(*T.Spans) : std::vector<PhaseRow>();
}

} // namespace

std::vector<PhaseRow> pseq::obs::foldSpanPhases(const SpanRecorder &R) {
  std::vector<PhaseNode> Trie(1);
  for (unsigned L = 0, N = R.lanes(); L != N; ++L) {
    SpanForest F = buildSpanForest(R.lane(L));
    for (size_t I : F.Roots)
      foldSpan(F, I, 0, Trie);
  }
  std::vector<PhaseRow> Rows;
  flattenPhases(Trie, 0, "", 0, Rows);
  return Rows;
}

std::string pseq::obs::renderReportTable(const Telemetry &T) {
  std::string Out;
  Out += "== telemetry "
         "==========================================================\n";
  if (!T.Counters.counters().empty()) {
    Out += "counters\n";
    for (const auto &[Name, Value] : T.Counters.counters()) {
      char Line[128];
      std::snprintf(Line, sizeof(Line), "  %-44s %14llu\n", Name.c_str(),
                    static_cast<unsigned long long>(Value));
      Out += Line;
    }
  }
  if (!T.Counters.gauges().empty()) {
    Out += "gauges\n";
    for (const auto &[Name, Value] : T.Counters.gauges()) {
      char Line[128];
      std::snprintf(Line, sizeof(Line), "  %-44s %14s\n", Name.c_str(),
                    fixed(Value).c_str());
      Out += Line;
    }
  }
  if (!T.Counters.histograms().empty()) {
    Out += "histograms\n";
    char Line[200];
    std::snprintf(Line, sizeof(Line), "  %-28s %10s %10s %10s %10s %10s\n",
                  "", "count", "p50", "p90", "p99", "max");
    Out += Line;
    for (const auto &[Name, H] : T.Counters.histograms()) {
      std::snprintf(Line, sizeof(Line),
                    "  %-28s %10llu %10s %10s %10s %10llu\n", Name.c_str(),
                    static_cast<unsigned long long>(H.count()),
                    fixed(H.percentile(50), 1).c_str(),
                    fixed(H.percentile(90), 1).c_str(),
                    fixed(H.percentile(99), 1).c_str(),
                    static_cast<unsigned long long>(H.max()));
      Out += Line;
    }
  }
  std::vector<PhaseRow> Phases = phaseRows(T);
  if (!Phases.empty()) {
    Out += "timers\n";
    for (const PhaseRow &R : Phases) {
      std::string Name(2 + 2 * static_cast<size_t>(R.Depth), ' ');
      size_t Slash = R.Path.rfind('/');
      Name += Slash == std::string::npos ? R.Path : R.Path.substr(Slash + 1);
      char Line[160];
      std::snprintf(Line, sizeof(Line), "%-46s %11s ms %6llux\n",
                    Name.c_str(), fixed(R.Ms).c_str(),
                    static_cast<unsigned long long>(R.Count));
      Out += Line;
    }
  }
  if (T.Spans) {
    // A full span lane drops later spans; say so, or the span-derived
    // numbers would look complete when they are not.
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "spans\n  %-44s %14llu\n  %-44s %14llu\n", "recorded",
                  static_cast<unsigned long long>(T.Spans->totalSpans()),
                  "dropped",
                  static_cast<unsigned long long>(T.Spans->droppedSpans()));
    Out += Line;
  }
  if (T.Counters.empty() && !T.Spans)
    Out += "(no telemetry recorded)\n";
  Out += "================================================================="
         "=====\n";
  return Out;
}

std::string pseq::obs::renderHistogramJson(const Histogram &H) {
  std::string Out = "{\"count\":" + std::to_string(H.count());
  Out += ",\"sum\":" + std::to_string(H.sum());
  Out += ",\"min\":" + std::to_string(H.min());
  Out += ",\"max\":" + std::to_string(H.max());
  Out += ",\"p50\":" + jsonNumber(H.percentile(50));
  Out += ",\"p90\":" + jsonNumber(H.percentile(90));
  Out += ",\"p99\":" + jsonNumber(H.percentile(99));
  Out += ",\"buckets\":[";
  bool First = true;
  for (unsigned B = 0; B != Histogram::NumBuckets; ++B) {
    if (H.bucket(B) == 0)
      continue;
    if (!First)
      Out += ',';
    First = false;
    Out += '[' + std::to_string(B) + ',' + std::to_string(H.bucket(B)) + ']';
  }
  Out += "]}";
  return Out;
}

std::string pseq::obs::renderReportJson(const Telemetry &T) {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, Value] : T.Counters.counters()) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(Name);
    Out += "\":";
    Out += std::to_string(Value);
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, Value] : T.Counters.gauges()) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(Name);
    Out += "\":";
    Out += jsonNumber(Value);
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : T.Counters.histograms()) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(Name);
    Out += "\":";
    Out += renderHistogramJson(H);
  }
  Out += "},\"timers\":[";
  First = true;
  for (const PhaseRow &R : phaseRows(T)) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"path\":\"";
    Out += jsonEscape(R.Path);
    Out += "\",\"ms\":";
    Out += jsonNumber(R.Ms);
    Out += ",\"count\":";
    Out += std::to_string(R.Count);
    Out += '}';
  }
  Out += ']';
  if (T.Spans)
    Out += ",\"spans\":{\"recorded\":" +
           std::to_string(T.Spans->totalSpans()) +
           ",\"dropped\":" + std::to_string(T.Spans->droppedSpans()) + '}';
  Out += '}';
  return Out;
}

bool pseq::obs::writeReportJson(const Telemetry &T, const std::string &Path) {
  // Atomic (temp + rename): a process killed mid-write leaves the previous
  // complete report or none, never a truncated one that --diff half-parses.
  return support::writeFileAtomic(Path, renderReportJson(T) + "\n");
}
