//===- obs/Heartbeat.cpp - Periodic progress snapshotter ------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Heartbeat.h"

#include <chrono>

using namespace pseq::obs;

void Heartbeat::addProbe(std::string Name, std::function<double()> Fn) {
  Probes.emplace_back(std::move(Name), std::move(Fn));
}

bool Heartbeat::start(const std::string &Path, uint64_t Interval) {
  if (running())
    return false;
  Out = std::make_unique<TraceSink>(Path);
  if (!Out->ok()) {
    Out.reset();
    return false;
  }
  StopRequested = false;
  IntervalMs = Interval == 0 ? 1 : Interval;
  Worker = std::thread([this] {
    std::unique_lock<std::mutex> L(Mu);
    while (!StopRequested) {
      // Wait first: stop() before the first interval still gets its final
      // tick, and a short run never pays for an immediate sample.
      Cv.wait_for(L, std::chrono::milliseconds(IntervalMs),
                  [&] { return StopRequested; });
      if (StopRequested)
        return;
      L.unlock();
      tick();
      L.lock();
    }
  });
  return true;
}

void Heartbeat::tick() {
  std::vector<TraceField> Fields;
  Fields.reserve(Probes.size());
  for (const auto &[Name, Fn] : Probes)
    Fields.push_back({Name, TraceValue(Fn())});
  Out->event("heartbeat", Fields);
  Beats.fetch_add(1, std::memory_order_relaxed);
}

void Heartbeat::stop() {
  if (!running())
    return;
  {
    std::lock_guard<std::mutex> L(Mu);
    StopRequested = true;
  }
  Cv.notify_all();
  Worker.join();
  // Final tick from the caller's thread — the sampler is gone, so the
  // sink is single-writer again.
  tick();
  Out->flush();
  Out.reset();
}
