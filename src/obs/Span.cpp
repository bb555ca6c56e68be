//===- obs/Span.cpp - Lock-free per-thread causal spans -------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Span.h"

using namespace pseq::obs;

namespace {

/// Thread-local lane cache. Keyed by the recorder's process-unique id (not
/// its address) so a recorder allocated where a destroyed one lived cannot
/// inherit a stale lane.
struct LaneCache {
  uint64_t RecorderId = 0;
  unsigned Lane = 0;
};

thread_local LaneCache Cache;

std::atomic<uint64_t> NextRecorderId{1};

} // namespace

SpanRecorder::SpanRecorder()
    : Epoch(std::chrono::steady_clock::now()),
      Id(NextRecorderId.fetch_add(1, std::memory_order_relaxed)),
      Lanes(MaxLanes) {}

unsigned SpanRecorder::laneForThisThread() {
  if (Cache.RecorderId == Id) {
    if (Cache.Lane >= MaxLanes)
      Dropped.fetch_add(1, std::memory_order_relaxed);
    return Cache.Lane;
  }
  unsigned L = NextLane.fetch_add(1, std::memory_order_relaxed);
  if (L >= MaxLanes) {
    L = MaxLanes;
    Dropped.fetch_add(1, std::memory_order_relaxed);
  }
  Cache.RecorderId = Id;
  Cache.Lane = L;
  return L;
}

uint32_t SpanRecorder::enter(unsigned Lane) { return Lanes[Lane].Depth++; }

void SpanRecorder::exit(unsigned LaneIdx, const char *Name, uint64_t BeginNs,
                        uint32_t Depth) {
  Lane &L = Lanes[LaneIdx];
  --L.Depth;
  if (L.Records.size() >= MaxSpansPerLane) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (L.Records.empty())
    L.Records.reserve(256);
  L.Records.push_back({Name, BeginNs, nowNs(), Depth});
  Recorded.fetch_add(1, std::memory_order_relaxed);
}

unsigned SpanRecorder::lanes() const {
  unsigned N = NextLane.load(std::memory_order_relaxed);
  return N > MaxLanes ? MaxLanes : N;
}

SpanForest pseq::obs::buildSpanForest(const std::vector<SpanRecord> &Lane) {
  // When a span at depth d completes, every still-unattached subtree at
  // depth d+1 is one of its children.
  SpanForest F;
  F.Nodes.reserve(Lane.size());
  std::vector<std::vector<size_t>> Pending; // unattached roots per depth
  for (const SpanRecord &S : Lane) {
    SpanForest::Node N{&S, {}};
    if (S.Depth + 1 < Pending.size()) {
      N.Kids = std::move(Pending[S.Depth + 1]);
      Pending[S.Depth + 1].clear();
    }
    if (Pending.size() <= S.Depth)
      Pending.resize(S.Depth + 1);
    F.Nodes.push_back(std::move(N));
    Pending[S.Depth].push_back(F.Nodes.size() - 1);
  }
  for (const std::vector<size_t> &Roots : Pending)
    F.Roots.insert(F.Roots.end(), Roots.begin(), Roots.end());
  return F;
}
