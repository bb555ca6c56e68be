//===- perfbench/pseq_perfbench.cpp - Cold end-to-end verdict benchmark ---===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one workload through the library's public entry points for a
/// fixed number of seconds and prints one JSON result line. Every verdict
/// is cold (its own memo::MemoContext), engine worker counts are fixed per
/// workload, and every verdict is checked against a hand-written known
/// answer from the corpora. Inputs are generated from --seed.
///
///   pseq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// --trace 0 measures the end-to-end metrics. --trace 1 measures the
/// per-layer metrics: half the time untraced, half with the benchmark's
/// own spans around each layer call and an obs::Telemetry in the configs.
///
/// Exit codes: 0 every verdict correct; 1 a wrong verdict or a count that
/// drifted between passes; 2 bad arguments; 3 refused build (sanitizer,
/// Debug, or unoptimized).
///
//===----------------------------------------------------------------------===//

#include "exec/ThreadPool.h"
#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "litmus/RealWorld.h"
#include "memo/MemoContext.h"
#include "obs/Span.h"
#include "obs/Telemetry.h"
#include "opt/Pipeline.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace pseq;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Process plus reaped-children CPU time, in ms.
double cpuMs() {
  double Ms = 0;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage U{};
    getrusage(Who, &U);
    Ms += (U.ru_utime.tv_sec + U.ru_stime.tv_sec) * 1e3 +
          (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e3;
  }
  return Ms;
}

/// Peak resident set of this process image. VmHWM, unlike ru_maxrss, is
/// reset by exec, so the launcher's own footprint does not leak in.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof Line, F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

/// Linear-interpolated quantile of \p V (sorted in place).
double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

//===----------------------------------------------------------------------===//
// Input generation
//===----------------------------------------------------------------------===//

bool isKeyword(const std::string &W) {
  static const std::set<std::string> Keywords = {
      "abort", "acq",  "acqrel", "atomic", "cas",    "choose", "else",
      "fadd",  "fence", "freeze", "if",    "na",     "print",  "rel",
      "return", "rlx", "sc",     "skip",   "thread", "undef",  "while"};
  return Keywords.count(W) != 0;
}

/// Prefixes every register and location name of the WHILE program
/// \p Text with \p Prefix. A common prefix keeps the names' relative
/// order, so the renamed program is the same program up to names: same
/// behaviors, same state counts, and a fresh cache key.
std::string renameIdentifiers(const std::string &Text,
                              const std::string &Prefix) {
  std::string Out;
  for (size_t I = 0; I < Text.size();) {
    char C = Text[I];
    if (!(std::isalpha(static_cast<unsigned char>(C)) || C == '_')) {
      Out += C;
      ++I;
      continue;
    }
    size_t J = I;
    while (J < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[J])) ||
            Text[J] == '_'))
      ++J;
    std::string W = Text.substr(I, J - I);
    I = J;
    Out += isKeyword(W) ? W : Prefix + W;
  }
  return Out;
}

/// A name prefix unique to (seed, pass, job).
std::string namePrefix(uint64_t Seed, uint64_t Pass, uint64_t Job) {
  uint64_t H = mix64(Seed * 0x9e3779b97f4a7c15ULL ^ mix64(Pass * 1000003 + Job));
  static const char Digits[] = "abcdefghijklmnopqrstuvwxyz";
  std::string P = "r";
  for (int I = 0; I != 5; ++I, H /= 26)
    P += Digits[H % 26];
  return P + "_";
}

std::unique_ptr<Program> parseChecked(const std::string &Text,
                                      std::string &Err) {
  ParseResult R = parseProgram(Text);
  if (!R.ok()) {
    Err = R.Error;
    return nullptr;
  }
  return std::move(R.Prog);
}

/// Seeded block-structured program of the optimizer benchmark's shape:
/// store/load blocks around an atomic store (feeding SLF/LLF/DSE), then a
/// choose-guarded loop for LICM. \p Modes gives each block's atomic store
/// mode ('R' release, 'L' relaxed) and fixes the program's cost; the seed
/// picks the constants, which leave every state count unchanged. The
/// loop body resets its guard, so SEQ traces stay finite and ⊑w decides
/// every pass exactly.
std::string pipelineProgram(const std::string &Modes, Rng &R) {
  std::string Out = "na x, w; atomic y;\nthread {\n";
  for (size_t I = 0; I != Modes.size(); ++I) {
    std::string K = std::to_string(R.below(2));
    std::string N = std::to_string(I);
    Out += "  x@na := " + K + ";\n";
    Out += "  a" + N + " := x@na;\n";
    Out += std::string("  y@") + (Modes[I] == 'R' ? "rel" : "rlx") + " := " +
           std::to_string(R.below(2)) + ";\n";
    Out += "  b" + N + " := x@na;\n";
    Out += "  x@na := " + K + ";\n";
  }
  Out += "  c := choose;\n"
         "  while (c != 0) { q := w@na; c := 0; }\n"
         "  return a0;\n}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Tracing: the benchmark's own spans, folded into per-layer self time
//===----------------------------------------------------------------------===//

/// Per-verdict layer timings and counts that are not spans (they come
/// from result fields such as PassReport::ValidateMs). Summed per run.
struct LayerTally {
  double ExploreMs = 0;   ///< psna entry-point time
  double PipelineMs = 0;  ///< runPipeline wall time (PipelineResult)
  double OptMs = 0;       ///< Σ PassReport::OptMs
  double ValidateMs = 0;  ///< Σ PassReport::ValidateMs
  double ServerMs = 0;    ///< Σ JobResult::ElapsedMs
  double ClientMs = 0;    ///< Σ client round-trip latency
  double WorkerCpuMs = 0; ///< Σ JobResult user+sys
  uint64_t CacheHits = 0;
  uint64_t Retries = 0;
  uint64_t WorkerPeakRssKb = 0;
  uint64_t QueuePeak = 0; ///< server admission-queue high-water mark
  uint64_t ServeJobs = 0;
  uint64_t PsnaStates = 0;
  uint64_t Rewrites = 0;
  uint64_t MemoHits = 0, MemoMisses = 0, MemoPruned = 0;

  void add(const LayerTally &O) {
    ExploreMs += O.ExploreMs;
    PipelineMs += O.PipelineMs;
    OptMs += O.OptMs;
    ValidateMs += O.ValidateMs;
    ServerMs += O.ServerMs;
    ClientMs += O.ClientMs;
    WorkerCpuMs += O.WorkerCpuMs;
    CacheHits += O.CacheHits;
    Retries += O.Retries;
    WorkerPeakRssKb = std::max(WorkerPeakRssKb, O.WorkerPeakRssKb);
    QueuePeak = std::max(QueuePeak, O.QueuePeak);
    ServeJobs += O.ServeJobs;
    PsnaStates += O.PsnaStates;
    Rewrites += O.Rewrites;
    MemoHits += O.MemoHits;
    MemoMisses += O.MemoMisses;
    MemoPruned += O.MemoPruned;
  }
};

/// What one verdict reports back to the pass loop.
struct Verdict {
  double Ms = 0;        ///< latency the caller saw
  bool Correct = false; ///< equals its known answer
  bool Decided = false; ///< no budget truncation
  std::string Error;    ///< why it is wrong, when it is
  /// Exact counts that must repeat for this job in every pass and run.
  std::vector<uint64_t> Counts;
  LayerTally Layers;
};

/// The traced run's instruments; null members mean "untraced".
struct Tracing {
  obs::SpanRecorder *Spans = nullptr;
  obs::Telemetry *Telem = nullptr;
};

/// Time per span name summed over every lane. The benchmark's spans
/// never nest, so this is each layer's self time. \p CoveredMs gets the
/// total and \p Lanes the number of lanes that recorded spans.
std::map<std::string, double> foldSelfMs(const obs::SpanRecorder &R,
                                         double &CoveredMs,
                                         unsigned &Lanes) {
  std::map<std::string, double> Self;
  CoveredMs = 0;
  Lanes = 0;
  for (unsigned L = 0; L != R.lanes(); ++L) {
    Lanes += !R.lane(L).empty();
    for (const obs::SpanRecord &S : R.lane(L)) {
      double Ms = (S.EndNs - S.BeginNs) / 1e6;
      Self[S.Name] += Ms;
      CoveredMs += Ms;
    }
  }
  return Self;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One workload: a fixed job set built from the seed, run in passes.
class Workload {
public:
  virtual ~Workload() = default;
  /// Generates and parses the inputs (and starts services). setup_s
  /// times it, with teardown() after each call, on a second instance.
  virtual bool setup(uint64_t Seed, std::string &Err) = 0;
  /// Jobs of pass \p Pass, in submission order. On single-client
  /// workloads a job index names the same work in every pass.
  virtual size_t jobsInPass(uint64_t Pass) = 0;
  /// Runs job \p Job of pass \p Pass. Concurrent calls happen only when
  /// clients() > 1.
  virtual Verdict run(uint64_t Pass, size_t Job, const Tracing &T,
                      unsigned Client) = 0;
  /// Closed-loop client count (1 = the calling thread runs every job).
  virtual unsigned clients() const { return 1; }
  /// Engine workers per verdict (the fingerprint; more than one makes
  /// the engine's memo and telemetry counters interleaving-dependent).
  virtual unsigned engineWorkers() const = 0;
  /// Parse time of the last setup, ms.
  double ParseMs = 0;
  /// Stable name of each job (for the determinism report).
  virtual std::string jobName(size_t Job) const = 0;
  virtual void teardown() {}
};

/// Known-answer check of a PS^na outcome set against litmus annotations.
std::string checkOutcomes(const PsBehaviorSet &B,
                          const std::vector<std::string> &MustInclude,
                          const std::vector<std::string> &MustExclude) {
  if (B.truncated())
    return "truncated: " + std::string(truncationCauseName(B.Cause));
  for (const std::string &S : MustInclude)
    if (!B.containsStr(S))
      return "missing " + S;
  for (const std::string &S : MustExclude)
    if (B.containsStr(S))
      return "forbidden " + S;
  return "";
}

/// The fresh memo context every verdict gets; its construction and its
/// release are the memo layer's spans.
class ColdMemo {
  obs::SpanRecorder *Spans;
  std::unique_ptr<memo::MemoContext> Ctx;

public:
  explicit ColdMemo(obs::SpanRecorder *Spans) : Spans(Spans) {
    obs::ScopedSpan S(Spans, "memo.context");
    Ctx = std::make_unique<memo::MemoContext>();
  }
  memo::MemoContext *get() { return Ctx.get(); }
  /// Copies the context's counters into \p L and frees its tables.
  void release(LayerTally &L) {
    L.MemoHits = Ctx->hits();
    L.MemoMisses = Ctx->misses();
    L.MemoPruned = Ctx->pruned();
    obs::ScopedSpan S(Spans, "memo.release");
    Ctx.reset();
  }
};

// litmus-promises: the classic litmus corpus at its promise/split budgets.
class LitmusWorkload : public Workload {
  struct Job {
    const LitmusCase *Case;
    std::string Name;
    std::unique_ptr<Program> Prog;
  };
  std::vector<Job> Jobs; // corpus order

  /// Copies per pass; every other case runs once. With these 26 verdicts
  /// per pass p50 falls between the two lb-rel jobs and p90 between two of
  /// the three appC-choose-rel-tgt jobs, not on the edge between two
  /// cases of different cost. Both are promise certification cases.
  static unsigned copies(const std::string &Name) {
    if (Name == "appC-choose-rel-src")
      return 4;
    if (Name == "appC-choose-rel-tgt")
      return 3;
    if (Name == "lb-rel")
      return 2;
    return 1;
  }

public:
  bool setup(uint64_t Seed, std::string &Err) override {
    Jobs.clear();
    std::vector<std::string> Texts;
    for (const LitmusCase &LC : litmusCorpus())
      for (unsigned C = 0; C != copies(LC.Name); ++C) {
        Texts.push_back(
            renameIdentifiers(LC.Text, namePrefix(Seed, 0, Jobs.size())));
        Jobs.push_back({&LC, LC.Name + (C ? "#" + std::to_string(C) : ""),
                        nullptr});
      }
    auto T0 = Clock::now();
    for (size_t I = 0; I != Jobs.size(); ++I)
      if (!(Jobs[I].Prog = parseChecked(Texts[I], Err)))
        return false;
    ParseMs = msSince(T0);
    return true;
  }
  size_t jobsInPass(uint64_t) override { return Jobs.size(); }
  unsigned engineWorkers() const override { return 1; }
  std::string jobName(size_t J) const override { return Jobs[J].Name; }

  Verdict run(uint64_t, size_t J, const Tracing &T, unsigned) override {
    const LitmusCase &LC = *Jobs[J].Case;
    Verdict V;
    auto T0 = Clock::now();
    ColdMemo Memo(T.Spans);
    PsConfig Cfg;
    Cfg.Domain = LC.Domain;
    Cfg.PromiseBudget = LC.PromiseBudget;
    Cfg.SplitBudget = LC.SplitBudget;
    Cfg.NumThreads = 1;
    Cfg.Memo = Memo.get();
    Cfg.Telem = T.Telem;
    PsBehaviorSet B;
    {
      obs::ScopedSpan S(T.Spans, "psna.explore");
      auto E0 = Clock::now();
      B = explorePsna(*Jobs[J].Prog, Cfg);
      V.Layers.ExploreMs = msSince(E0);
    }
    {
      obs::ScopedSpan S(T.Spans, "check");
      V.Error = checkOutcomes(B, LC.MustInclude, LC.MustExclude);
    }
    Memo.release(V.Layers);
    V.Ms = msSince(T0);
    V.Correct = V.Error.empty();
    V.Decided = !B.truncated();
    V.Layers.PsnaStates = B.StatesExplored;
    // One engine worker: the memo counters are exact too.
    V.Counts = {B.StatesExplored,   B.All.size(),        B.NaMarkers,
                V.Layers.MemoHits, V.Layers.MemoMisses, V.Layers.MemoPruned};
    return V;
  }
};

// realworld-protocols: the RealWorld corpus through runRealWorldCase.
class RealWorldWorkload : public Workload {
  std::vector<RealWorldCase> Cases; // renamed copies, corpus order

public:
  bool setup(uint64_t Seed, std::string &Err) override {
    Cases = realWorldCorpus();
    for (size_t I = 0; I != Cases.size(); ++I)
      Cases[I].Text = renameIdentifiers(Cases[I].Text, namePrefix(Seed, 0, I));
    // runRealWorldCase parses again; this parse checks the renaming.
    auto T0 = Clock::now();
    for (const RealWorldCase &RC : Cases)
      if (!parseChecked(RC.Text, Err))
        return false;
    ParseMs = msSince(T0);
    return true;
  }
  size_t jobsInPass(uint64_t) override { return Cases.size(); }
  unsigned engineWorkers() const override { return 1; }
  std::string jobName(size_t J) const override { return Cases[J].Name; }

  Verdict run(uint64_t, size_t J, const Tracing &T, unsigned) override {
    Verdict V;
    auto T0 = Clock::now();
    ColdMemo Memo(T.Spans);
    RealWorldRunOptions Opts;
    Opts.NumThreads = 1;
    Opts.Memo = Memo.get();
    Opts.Telem = T.Telem;
    RealWorldRunResult R;
    {
      obs::ScopedSpan S(T.Spans, "psna.explore");
      auto E0 = Clock::now();
      R = runRealWorldCase(Cases[J], Opts);
      V.Layers.ExploreMs = msSince(E0);
    }
    {
      obs::ScopedSpan S(T.Spans, "check");
      if (!R.clean())
        V.Error = R.Behaviors.truncated()
                      ? "truncated"
                      : "annotations: " +
                            std::to_string(R.MissingIncludes.size()) +
                            " missing, " +
                            std::to_string(R.ForbiddenSeen.size()) +
                            " forbidden, " +
                            std::to_string(R.MissingBad.size()) +
                            " bad missing, lint " +
                            (R.LintMatches ? "ok" : "wrong");
    }
    Memo.release(V.Layers);
    V.Ms = msSince(T0);
    V.Correct = V.Error.empty();
    V.Decided = !R.Behaviors.truncated();
    V.Layers.PsnaStates = R.Behaviors.StatesExplored;
    V.Counts = {R.Behaviors.StatesExplored, R.Behaviors.All.size(),
                R.Behaviors.NaMarkers,      V.Layers.MemoHits,
                V.Layers.MemoMisses,        V.Layers.MemoPruned};
    return V;
  }
};

// validate-pipeline: seeded programs through the validated optimizer.
class PipelineWorkload : public Workload {
  /// Block shapes of one pass (see pipelineProgram). Every seed gets this
  /// same cost mix; the seed varies constants and names. Sorted by
  /// cost, p50 falls between the two LR jobs and p90 between the two RRR
  /// jobs, not on the edge between two shapes of different cost.
  static constexpr const char *Schedule[] = {"L",  "LL", "R",  "LLL", "LR",
                                             "LR", "RR", "RR", "RRR", "RRR"};
  struct Job {
    std::string Name;
    std::unique_ptr<Program> Prog;
  };
  std::vector<Job> Jobs;

public:
  static constexpr unsigned Workers = 2;

  bool setup(uint64_t Seed, std::string &Err) override {
    Jobs.clear();
    Rng R(Seed);
    std::vector<std::string> Texts;
    for (const char *Shape : Schedule) {
      Texts.push_back(renameIdentifiers(pipelineProgram(Shape, R),
                                        namePrefix(Seed, 0, Jobs.size())));
      size_t Copy = std::count_if(
          std::begin(Schedule), std::begin(Schedule) + Jobs.size(),
          [&](const char *S) { return std::strcmp(S, Shape) == 0; });
      Jobs.push_back({"blocks-" + std::string(Shape) +
                          (Copy ? "#" + std::to_string(Copy) : ""),
                      nullptr});
    }
    auto T0 = Clock::now();
    for (size_t I = 0; I != Jobs.size(); ++I)
      if (!(Jobs[I].Prog = parseChecked(Texts[I], Err)))
        return false;
    ParseMs = msSince(T0);
    return true;
  }
  size_t jobsInPass(uint64_t) override { return Jobs.size(); }
  unsigned engineWorkers() const override { return Workers; }
  std::string jobName(size_t J) const override { return Jobs[J].Name; }

  Verdict run(uint64_t, size_t J, const Tracing &T, unsigned) override {
    Verdict V;
    auto T0 = Clock::now();
    ColdMemo Memo(T.Spans);
    PipelineOptions Opts;
    Opts.Cfg.Domain = ValueDomain::binary();
    Opts.NumThreads = Workers;
    Opts.Memo = Memo.get();
    Opts.Telem = T.Telem;
    PipelineResult R;
    {
      obs::ScopedSpan S(T.Spans, "opt.pipeline");
      R = runPipeline(*Jobs[J].Prog, Opts);
    }
    uint64_t States = 0;
    {
      obs::ScopedSpan S(T.Spans, "check");
      bool Bounded = false;
      for (const PassReport &PR : R.Reports) {
        if (PR.ValidationBounded && !Bounded)
          V.Error = PR.Name + ": bounded validation (" +
                    truncationCauseName(PR.ValidationCause) + ")";
        Bounded |= PR.ValidationBounded;
        V.Layers.OptMs += PR.OptMs;
        V.Layers.ValidateMs += PR.ValidateMs;
        States += PR.ValidationStates;
        if (!PR.Error.empty() && V.Error.empty())
          V.Error = PR.Name + ": " + PR.Error;
      }
      V.Decided = !Bounded;
      if (V.Error.empty() && !R.AllValidated)
        V.Error = "not all passes validated";
    }
    Memo.release(V.Layers);
    V.Ms = msSince(T0);
    V.Correct = V.Error.empty();
    V.Layers.PipelineMs = R.TotalMs;
    V.Layers.Rewrites = R.TotalRewrites;
    // Two workers share the suffix cache first-writer-wins, so the memo
    // counters depend on their interleaving; the checker's state count and
    // the rewrites do not.
    V.Counts = {States, R.TotalRewrites};
    return V;
  }
};

// serve-batch: corpus refinement pairs through an in-process server.
class ServeWorkload : public Workload {
  /// Resubmissions per pass, as a share of all jobs: 3 in 10. Far enough
  /// from 0.1 and 0.5 that neither p50 nor p90 sits on the hit/miss edge.
  static constexpr unsigned HitNum = 3, HitDen = 10;
  std::vector<const RefinementCase *> Pairs;
  uint64_t Seed = 0;
  std::string Socket;
  std::unique_ptr<serve::Server> Srv;
  std::thread Runner;
  std::vector<int> Fds;

  struct Job {
    serve::JobRequest Req;
    const RefinementCase *Case;
    bool Resubmit;
  };
  /// Pass p's jobs; resubmissions in pass p repeat jobs of pass p-1.
  std::map<uint64_t, std::vector<Job>> PassJobs;

  std::vector<Job> freshJobs(uint64_t Pass) {
    std::vector<Job> Out;
    for (size_t I = 0; I != Pairs.size(); ++I) {
      const RefinementCase &C = *Pairs[I];
      std::string Prefix = namePrefix(Seed, Pass + 1, I);
      Job J;
      J.Req.Source = renameIdentifiers(C.Src, Prefix);
      J.Req.Target = renameIdentifiers(C.Tgt, Prefix);
      J.Req.Method = ValidationMethod::Advanced;
      J.Req.StepBudget = C.StepBudget;
      J.Case = &C;
      J.Resubmit = false;
      Out.push_back(std::move(J));
    }
    return Out;
  }

  void stopServer() {
    for (int Fd : Fds)
      serve::closeFd(Fd);
    Fds.clear();
    if (Srv) {
      Srv->requestStop();
      // Wakes the accept loop from its 100 ms poll, so repeated set-ups
      // do not wait for it.
      int Fd = serve::connectUnix(Socket, nullptr);
      if (Fd >= 0)
        serve::closeFd(Fd);
    }
    if (Runner.joinable())
      Runner.join();
    Srv.reset();
    unlink(Socket.c_str());
  }

public:
  static constexpr unsigned Workers = 2, Clients = 2;

  ~ServeWorkload() override { stopServer(); }

  bool setup(uint64_t S, std::string &Err) override {
    PassJobs.clear();
    Pairs.clear();
    Seed = S;
    for (const auto *Corpus : {&refinementCorpus(), &extensionCorpus()})
      for (const RefinementCase &C : *Corpus)
        if (!C.HasLoops)
          Pairs.push_back(&C);
    Rng R(Seed);
    for (size_t I = Pairs.size(); I > 1; --I)
      std::swap(Pairs[I - 1], Pairs[R.below(I)]);
    // Generation and the parse check of the first pass's inputs.
    std::vector<Job> First = freshJobs(0);
    auto T0 = Clock::now();
    for (const Job &J : First)
      if (!parseChecked(J.Req.Source, Err) || !parseChecked(J.Req.Target, Err))
        return false;
    ParseMs = msSince(T0);
    PassJobs[0] = std::move(First);

    if (!serve::wireSupported()) {
      Err = "unix sockets unsupported";
      return false;
    }
    // Relative to the working directory, so the socket stays inside the
    // checkout and well under the sun_path limit.
    static unsigned Instances = 0;
    if (Socket.empty())
      Socket = ".perfbench-" + std::to_string(getpid()) + "-" +
               std::to_string(Instances++) + ".sock";
    serve::ServerOptions Opts;
    Opts.SocketPath = Socket;
    Opts.NumWorkers = Workers;
    // Small enough to fill during the warm-up: per-pass cost rises while
    // the cache fills, and peak RSS would grow with throughput.
    // Resubmissions repeat the previous pass, which stays resident.
    Opts.CacheCapBytes = 128u << 10;
    Srv = std::make_unique<serve::Server>(Opts);
    if (!Srv->start(Err))
      return false;
    Runner = std::thread([this] { Srv->run(); });
    for (unsigned C = 0; C != Clients; ++C) {
      int Fd = serve::connectUnix(Socket, &Err);
      if (Fd < 0)
        return false;
      Fds.push_back(Fd);
      std::string Reply;
      if (!serve::sendFrame(Fd, serve::encodePing(), &Err) ||
          !serve::recvFrame(Fd, Reply, &Err))
        return false;
      if (serve::replyOp(Reply) != "pong") {
        Err = "handshake: unexpected reply " + Reply;
        return false;
      }
    }
    return true;
  }

  void teardown() override { stopServer(); }

  unsigned clients() const override { return Clients; }
  unsigned engineWorkers() const override { return 1; }
  std::string jobName(size_t J) const override {
    return "job" + std::to_string(J);
  }

  size_t jobsInPass(uint64_t Pass) override {
    // Pass 0 (the first warm-up pass) is fresh-only; later passes add
    // resubmissions of the previous pass's jobs, all answered by then.
    PassJobs.erase(Pass >= 2 ? Pass - 2 : ~0ULL);
    if (!PassJobs.count(Pass)) {
      std::vector<Job> Jobs = freshJobs(Pass);
      const std::vector<Job> &Prev = PassJobs.at(Pass - 1);
      Rng R(mix64(Seed ^ (Pass * 0x51ed27ULL)));
      size_t Resubs = Jobs.size() * HitNum / (HitDen - HitNum);
      for (size_t I = 0; I != Resubs; ++I) {
        Job J = Prev[R.below(Prev.size())];
        if (J.Resubmit) {
          --I;
          continue;
        }
        J.Resubmit = true;
        Jobs.push_back(std::move(J));
      }
      for (size_t I = Jobs.size(); I > 1; --I)
        std::swap(Jobs[I - 1], Jobs[R.below(I)]);
      PassJobs[Pass] = std::move(Jobs);
    }
    return PassJobs[Pass].size();
  }

  Verdict run(uint64_t Pass, size_t JobIdx, const Tracing &T,
              unsigned Client) override {
    const Job &J = PassJobs.at(Pass)[JobIdx];
    Verdict V;
    serve::JobRequest Req = J.Req;
    Req.Id = Pass * 100000 + JobIdx + 1;
    int Fd = Fds[Client];
    auto T0 = Clock::now();
    std::string Reply, Err;
    bool Sent;
    {
      obs::ScopedSpan S(T.Spans, "serve.request");
      Sent = serve::sendFrame(Fd, serve::encodeJobRequest(Req), &Err) &&
             serve::recvFrame(Fd, Reply, &Err);
    }
    V.Ms = msSince(T0);
    serve::JobResult R;
    {
      obs::ScopedSpan S(T.Spans, "check");
      if (!Sent)
        V.Error = "wire: " + Err;
      else if (!serve::parseJobResult(Reply, R, Err))
        V.Error = "reply: " + Err;
      else if (R.Id != Req.Id)
        V.Error = "reply for another job";
      else if (R.Status != (J.Case->AdvancedHolds ? serve::JobStatus::Ok
                                                  : serve::JobStatus::Rejected))
        V.Error = J.Case->Name + ": got " +
                  serve::jobStatusName(R.Status) + " " + R.Detail;
      else if (R.CacheHit != J.Resubmit)
        V.Error = J.Case->Name + (J.Resubmit ? ": resubmission missed"
                                             : ": fresh job hit");
    }
    V.Correct = V.Error.empty();
    V.Decided = Sent && R.Status != serve::JobStatus::Bounded;
    V.Layers.ServerMs = R.ElapsedMs;
    V.Layers.ClientMs = V.Ms;
    V.Layers.WorkerCpuMs = R.UserMs + R.SysMs;
    V.Layers.CacheHits = R.CacheHit;
    V.Layers.Retries = R.Attempts > 1 ? R.Attempts - 1 : 0;
    V.Layers.WorkerPeakRssKb = R.PeakRssKb;
    V.Layers.QueuePeak = Srv->tallies().QueuePeak.load();
    V.Layers.ServeJobs = 1;
    V.Counts = {static_cast<uint64_t>(R.Status), R.CacheHit};
    return V;
  }
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "litmus-promises")
    return std::make_unique<LitmusWorkload>();
  if (Name == "realworld-protocols")
    return std::make_unique<RealWorldWorkload>();
  if (Name == "validate-pipeline")
    return std::make_unique<PipelineWorkload>();
  if (Name == "serve-batch")
    return std::make_unique<ServeWorkload>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// Persistent closed-loop client threads. Each pass hands every client the
/// same job-pulling body and waits for all of them; the threads live for
/// the whole run so each client keeps one span lane.
class ClientPool {
public:
  explicit ClientPool(unsigned N) {
    for (unsigned C = 0; C != N; ++C)
      Threads.emplace_back([this, C] { loop(C); });
  }
  ~ClientPool() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stop = true;
    }
    Cv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }
  ClientPool(const ClientPool &) = delete;
  ClientPool &operator=(const ClientPool &) = delete;

  /// Runs \p Body(c) on every client c; returns when all have finished.
  void run(const std::function<void(unsigned)> &Body) {
    std::unique_lock<std::mutex> L(Mu);
    Current = &Body;
    Busy = Threads.size();
    ++Generation;
    Cv.notify_all();
    DoneCv.wait(L, [&] { return Busy == 0; });
    Current = nullptr;
  }

private:
  void loop(unsigned C) {
    uint64_t Seen = 0;
    for (;;) {
      const std::function<void(unsigned)> *Body;
      {
        std::unique_lock<std::mutex> L(Mu);
        Cv.wait(L, [&] { return Stop || Generation != Seen; });
        if (Stop)
          return;
        Seen = Generation;
        Body = Current;
      }
      (*Body)(C);
      std::lock_guard<std::mutex> L(Mu);
      if (--Busy == 0)
        DoneCv.notify_one();
    }
  }

  std::mutex Mu;
  std::condition_variable Cv, DoneCv;
  const std::function<void(unsigned)> *Current = nullptr;
  uint64_t Generation = 0;
  size_t Busy = 0;
  bool Stop = false;
  std::vector<std::thread> Threads;
};

/// Everything one measured stretch of a run records.
struct Segment {
  /// One measured pass: its wall and CPU time, and per job index the
  /// verdict's latency.
  struct PassRecord {
    double WallMs = 0, CpuMs = 0;
    std::vector<double> LatMs;
    /// Per job index, the host speed factor around the verdict.
    std::vector<double> Speed;
    /// The pass's speed factor: the verdicts' mean, weighted by latency.
    double speed() const {
      double Lat = 0, Scaled = 0;
      for (size_t J = 0; J != LatMs.size(); ++J) {
        Lat += LatMs[J];
        Scaled += LatMs[J] * Speed[J];
      }
      return Lat > 0 ? Scaled / Lat : 1;
    }
  };
  std::vector<PassRecord> Log;
  uint64_t Attempted = 0, Failed = 0, Decided = 0;
  double WallMs = 0, CpuMs = 0;
  LayerTally Layers;
  std::vector<std::string> Errors;
  /// Guarded telemetry counters of the first pass, and of the segment.
  std::map<std::string, uint64_t> PassCounters, SegCounters;
  exec::ThreadPool::Stats PoolBefore{}, PoolAfter{};
};

/// Fixed CPU work that uses nothing of the library and allocates nothing
/// once built: open-addressing inserts and probes over a 1 MiB table and
/// a sort of 32 Ki keys, so cache- and branch-bound like the engines. On a
/// shared host other tenants slow it as they slow the verdicts around it,
/// which it measures; a change to the program cannot move it.
class SpeedProbe {
public:
  /// About the probe's fastest time on a 4-vCPU Intel Xeon 2.1 GHz host
  /// with this build. Only the ratio to it matters.
  static constexpr double RefMs = 3.0;

  SpeedProbe() : Table(1u << 17), Keys(1u << 15) {}

  /// The probe's time now, ms: the faster of two runs.
  double ms() { return std::min(once(), once()); }
  /// Speed factor between probe times \p Before and \p After: a time
  /// measured between them, multiplied by it, is that time at the
  /// reference speed.
  static double factor(double Before, double After) {
    return RefMs / ((Before + After) / 2);
  }

private:
  double once() {
    auto T0 = Clock::now();
    std::fill(Table.begin(), Table.end(), 0);
    const uint64_t Mask = Table.size() - 1;
    for (uint64_t I = 0; I != 50000; ++I) {
      uint64_t K = mix64(I + 1) | 1, H = K & Mask;
      while (Table[H] && Table[H] != K)
        H = (H + 1) & Mask;
      Table[H] = K;
    }
    uint64_t Found = 0;
    for (uint64_t I = 0; I != 50000; ++I) {
      uint64_t K = mix64(3 * I + 1) | 1, H = K & Mask;
      while (Table[H] && Table[H] != K)
        H = (H + 1) & Mask;
      Found += Table[H] == K;
    }
    for (size_t I = 0; I != Keys.size(); ++I)
      Keys[I] = mix64(I ^ Found);
    std::sort(Keys.begin(), Keys.end());
    Sink = Sink + Keys[Keys.size() / 2] + Found;
    return msSince(T0);
  }

  std::vector<uint64_t> Table, Keys;
  volatile uint64_t Sink = 0;
};

/// Gives verdicts their speed factor. It runs the probe at most every
/// GapMs, between verdicts on single-client workloads and between passes
/// on serve-batch, and hands the factor between the probe's last two
/// times to every verdict that finished in between. Its own time is
/// tallied so that it can be left out of the figures.
class SpeedClock {
public:
  static constexpr double GapMs = 40;

  SpeedClock(SpeedProbe &Probe, std::vector<Segment::PassRecord> &Log)
      : Probe(Probe), Log(Log), LastMs(Probe.ms()), LastAt(Clock::now()) {}

  /// Verdict \p Job of pass Log[\p Pass] has finished.
  void finished(size_t Pass, size_t Job) { Pending.push_back({Pass, Job}); }
  /// Runs the probe when it is due or \p Force is set.
  void poll(bool Force) {
    if (Pending.empty() || (!Force && msSince(LastAt) < GapMs))
      return;
    auto T0 = Clock::now();
    double Cpu0 = cpuMs(), Now = Probe.ms();
    double F = SpeedProbe::factor(LastMs, Now);
    for (const auto &[Pass, Job] : Pending)
      Log[Pass].Speed[Job] = F;
    Pending.clear();
    LastMs = Now;
    LastAt = Clock::now();
    AsideMs += msSince(T0);
    AsideCpuMs += cpuMs() - Cpu0;
  }
  /// Wall and CPU time spent probing.
  double AsideMs = 0, AsideCpuMs = 0;

private:
  SpeedProbe &Probe;
  std::vector<Segment::PassRecord> &Log;
  double LastMs;
  Clock::time_point LastAt;
  std::vector<std::pair<size_t, size_t>> Pending;
};

/// Runs pass \p Pass. Appends verdicts to \p Seg and their speed factors
/// to \p Speed (both or neither non-null) and checks every job's exact
/// counts against \p Reference (filled on the first pass). \returns false
/// on a count drift.
bool runPass(Workload &W, ClientPool *Clients, uint64_t Pass,
             const Tracing &T, Segment *Seg, SpeedClock *Speed,
             std::vector<std::vector<uint64_t>> &Reference,
             std::string &Drift) {
  size_t N = W.jobsInPass(Pass);
  std::vector<Verdict> Out(N);
  size_t Index = Seg ? Seg->Log.size() : 0;
  Segment::PassRecord Unlogged;
  Segment::PassRecord &Rec = Seg ? Seg->Log.emplace_back() : Unlogged;
  Rec.Speed.assign(N, 1);
  std::atomic<size_t> Next{0};
  std::function<void(unsigned)> Client = [&](unsigned C) {
    for (size_t J; (J = Next.fetch_add(1)) < N;) {
      Out[J] = W.run(Pass, J, T, C);
      if (Speed && !Clients) {
        Speed->finished(Index, J);
        Speed->poll(false);
      }
    }
  };
  double Aside0 = Speed ? Speed->AsideMs : 0;
  double AsideCpu0 = Speed ? Speed->AsideCpuMs : 0;
  auto T0 = Clock::now();
  double Cpu0 = cpuMs();
  if (Clients)
    Clients->run(Client);
  else
    Client(0);
  Rec.WallMs = msSince(T0);
  Rec.CpuMs = cpuMs() - Cpu0;
  for (size_t J = 0; Speed && Clients && J != N; ++J)
    Speed->finished(Index, J);
  if (Speed) {
    Rec.WallMs -= Speed->AsideMs - Aside0;
    Rec.CpuMs -= Speed->AsideCpuMs - AsideCpu0;
  }
  bool Ok = true;
  if (Reference.empty())
    for (const Verdict &V : Out)
      Reference.push_back(V.Counts);
  for (size_t J = 0; J != N; ++J) {
    // Serve passes reorder their jobs; their counts are per-status and
    // checked against the known answer instead.
    if (W.clients() == 1 && Out[J].Counts != Reference[J]) {
      Ok = false;
      Drift = W.jobName(J) + " counts drifted in pass " + std::to_string(Pass);
    }
  }
  if (Seg) {
    for (const Verdict &V : Out) {
      Rec.LatMs.push_back(V.Ms);
      Seg->Attempted++;
      Seg->Decided += V.Decided;
      if (!V.Correct) {
        Seg->Failed++;
        if (Seg->Errors.size() < 5)
          Seg->Errors.push_back(V.Error);
      }
      Seg->Layers.add(V.Layers);
    }
  }
  return Ok;
}

/// Telemetry counters the per-layer metrics report. Each must repeat
/// exactly in every pass of a single-worker, single-client workload.
const char *const GuardedCounters[] = {
    "psna.cert.nodes",           "psna.cert.searches",
    "psna.explore.dedup_hits",   "psna.na_markers",
    "analysis.markers_skipped",  "seq.enum.states_expanded",
    "seq.machine.successor_calls", "seq.check.advanced.calls"};

std::map<std::string, uint64_t> counterDelta(const obs::Stats &After,
                                             const obs::Stats &Before) {
  std::map<std::string, uint64_t> D;
  for (const char *Name : GuardedCounters)
    D[Name] = After.counter(Name) - Before.counter(Name);
  return D;
}

/// The end-to-end figures of a segment at the reference speed, with the
/// passes slowed by other tenants of a shared host left out. Each pass's
/// times are scaled by its speed factor, which removes load that lasts
/// longer than a pass; load in shorter bursts only ever adds time, so the
/// fastest quarter of the scaled passes is kept (more when a quarter
/// holds fewer than 100 verdicts) and their verdicts pooled. Every pass
/// has the same job mix, and whole passes are kept, so a verdict that is
/// slow only some of the time still reaches the percentiles.
struct Uncontended {
  std::vector<double> LatMs;
  double VerdictsPerS = 0, CpuMsPerVerdict = 0;
  double RawVerdictsPerS = 0; ///< the same passes, unscaled
};

Uncontended uncontended(const Segment &S) {
  std::vector<const Segment::PassRecord *> Fast;
  for (const Segment::PassRecord &P : S.Log)
    Fast.push_back(&P);
  std::sort(Fast.begin(), Fast.end(), [](const auto *A, const auto *B) {
    return A->WallMs * A->speed() < B->WallMs * B->speed();
  });
  Uncontended U;
  double WallMs = 0, CpuMs = 0, RawWallMs = 0;
  for (size_t I = 0; I != Fast.size(); ++I) {
    if (4 * I >= Fast.size() && U.LatMs.size() >= 100)
      break;
    const Segment::PassRecord &P = *Fast[I];
    for (size_t J = 0; J != P.LatMs.size(); ++J)
      U.LatMs.push_back(P.LatMs[J] * P.Speed[J]);
    WallMs += P.WallMs * P.speed();
    CpuMs += P.CpuMs * P.speed();
    RawWallMs += P.WallMs;
  }
  U.VerdictsPerS = U.LatMs.size() / (WallMs / 1e3);
  U.CpuMsPerVerdict = CpuMs / U.LatMs.size();
  U.RawVerdictsPerS = U.LatMs.size() / (RawWallMs / 1e3);
  return U;
}

/// Times set-ups of a second instance of the workload, in batches spread
/// over the run. One set-up takes well under a millisecond, so a batch
/// repeats it until BatchMs of set-up time are in and yields the mean;
/// teardown between set-ups is not timed. Each batch's mean is scaled by
/// the speed factor around it, and spread over the run the batches
/// straddle the host's bursts of load: the fastest quarter of them
/// (fastestQuarterMean) leaves those out as the verdict timings do.
class SetupTimer {
public:
  static constexpr unsigned Batches = 12;
  static constexpr double BatchMs = 25;

  SetupTimer(std::unique_ptr<Workload> W, uint64_t Seed, double RunMs,
             SpeedProbe &Probe)
      : W(std::move(W)), Seed(Seed), RunMs(RunMs), Probe(Probe),
        T0(Clock::now()) {}

  /// Runs a batch when one is due: the first at once, the rest evenly
  /// over RunMs. \returns false when a set-up fails.
  bool tick(std::string &Err) {
    if (SetupS.size() == Batches ||
        msSince(T0) < SetupS.size() * RunMs / (Batches - 1))
      return true;
    return batch(Err);
  }
  /// Runs the batches not yet due.
  bool finish(std::string &Err) {
    while (SetupS.size() != Batches)
      if (!batch(Err))
        return false;
    return true;
  }
  /// Mean set-up time per batch at the reference speed, s, and mean
  /// parse time per batch as measured, ms.
  std::vector<double> SetupS, ParseMs;

private:
  bool batch(std::string &Err) {
    double Before = Probe.ms(), Ms = 0, Parse = 0;
    unsigned Reps = 0;
    for (; Ms < BatchMs || Reps < 3; ++Reps) {
      auto S0 = Clock::now();
      bool Ok = W->setup(Seed, Err);
      Ms += msSince(S0);
      Parse += W->ParseMs;
      W->teardown();
      if (!Ok)
        return false;
    }
    double Speed = SpeedProbe::factor(Before, Probe.ms());
    SetupS.push_back(Ms / Reps / 1e3 * Speed);
    ParseMs.push_back(Parse / Reps);
    return true;
  }

  std::unique_ptr<Workload> W;
  uint64_t Seed;
  double RunMs;
  SpeedProbe &Probe;
  Clock::time_point T0;
};

/// Mean of the smallest quarter (rounded up) of \p V.
double fastestQuarterMean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  V.resize((V.size() + 3) / 4);
  return std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

/// Runs whole passes until \p Seconds elapse and at least 100 verdicts
/// are in, with the speed probe (SpeedClock) and due set-up batches in
/// between; their time is left out of the segment's.
bool measure(Workload &W, ClientPool *Clients, uint64_t &Pass,
             double Seconds, const Tracing &T, Segment &Seg,
             std::vector<std::vector<uint64_t>> &Reference,
             std::string &Drift, SpeedProbe &Probe, SetupTimer &Setup,
             std::string &SetupErr) {
  bool Ok = true;
  Seg.PoolBefore = exec::ThreadPool::global().stats();
  obs::Stats SegStart;
  if (T.Telem)
    SegStart = T.Telem->Counters;
  double Cpu0 = cpuMs(), AsideMs = 0, AsideCpuMs = 0;
  SpeedClock Speed(Probe, Seg.Log);
  auto T0 = Clock::now();
  auto Elapsed = [&] { return msSince(T0) - AsideMs - Speed.AsideMs; };
  while (Elapsed() < Seconds * 1e3 || Seg.Attempted < 100) {
    obs::Stats Before;
    if (T.Telem)
      Before = T.Telem->Counters;
    Ok &= runPass(W, Clients, Pass++, T, &Seg, &Speed, Reference, Drift);
    Speed.poll(Elapsed() >= Seconds * 1e3 && Seg.Attempted >= 100);
    double Cpu1 = cpuMs();
    auto S0 = Clock::now();
    if (!Setup.tick(SetupErr))
      return false;
    AsideMs += msSince(S0);
    AsideCpuMs += cpuMs() - Cpu1;
    if (T.Telem) {
      std::map<std::string, uint64_t> D =
          counterDelta(T.Telem->Counters, Before);
      if (Seg.Log.size() == 1)
        Seg.PassCounters = D;
      // Engine workers sharing a memo context make some engine counters
      // interleaving-dependent; those workloads guard their per-verdict
      // counts only.
      bool Exact = W.clients() == 1 && W.engineWorkers() == 1;
      for (const auto &[Name, V] : D)
        if (Exact && V != Seg.PassCounters[Name]) {
          Ok = false;
          Drift = Name + " drifted in pass " + std::to_string(Pass - 1) +
                  ": " + std::to_string(V) + " vs " +
                  std::to_string(Seg.PassCounters[Name]);
        }
    }
  }
  Speed.poll(true);
  Seg.WallMs = Elapsed();
  Seg.CpuMs = cpuMs() - Cpu0 - AsideCpuMs - Speed.AsideCpuMs;
  Seg.PoolAfter = exec::ThreadPool::global().stats();
  if (T.Telem)
    Seg.SegCounters = counterDelta(T.Telem->Counters, SegStart);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " +
           num(Ms[I].Value) + ", \"unit\": " + jsonString(Ms[I].Unit) + "}";
  std::printf("%s}}\n", Out.c_str());
}

/// The build refuses to report from sanitizer, Debug or unoptimized
/// builds: their timings say nothing about the shipped engines.
const char *refusedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(memory_sanitizer) ||                                         \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0)
    return "Debug build";
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  return nullptr;
}

void printFingerprint(const std::string &Name, const Workload &W) {
#ifdef NDEBUG
  const bool Assertions = false;
#else
  const bool Assertions = true;
#endif
  std::printf("fingerprint: {\"workload\": %s, \"nproc\": %ld, "
              "\"hardware_threads\": %u, \"compiler\": %s, "
              "\"build_type\": %s, \"cxx_flags\": %s, \"assertions\": %s, "
              "\"engine_workers\": %u, \"clients\": %u, "
              "\"server_workers\": %u}\n",
              jsonString(Name).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              exec::hardwareThreads(), jsonString(PERFBENCH_COMPILER).c_str(),
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              jsonString(PERFBENCH_CXX_FLAGS).c_str(),
              Assertions ? "true" : "false", W.engineWorkers(), W.clients(),
              Name == "serve-batch" ? ServeWorkload::Workers : 0u);
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "pseq_perfbench: %s\nusage: pseq_perfbench --workload "
               "<litmus-promises|realworld-protocols|validate-pipeline|"
               "serve-batch> --seed <n> --seconds <s> --trace <0|1>\n",
               Msg);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  uint64_t Seed = 0, Seconds = 0, Trace = 2;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *Val = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (!Val)
      return usage(("missing value for " + Flag).c_str());
    if (Flag == "--workload")
      Name = Val;
    else if (Flag == "--seed" && parseU64(Val, Seed))
      HaveSeed = true;
    else if (Flag == "--seconds" && parseU64(Val, Seconds) && Seconds)
      continue;
    else if (Flag == "--trace" && parseU64(Val, Trace) && Trace <= 1)
      continue;
    else
      return usage(("bad argument " + Flag + " " + Val).c_str());
  }
  if (Name.empty() || !HaveSeed || !Seconds || Trace > 1)
    return usage("--workload, --seed, --seconds and --trace are required");
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W)
    return usage(("unknown workload " + Name).c_str());
  if (const char *Why = refusedBuild()) {
    std::fprintf(stderr, "pseq_perfbench: refusing to report from a %s\n",
                 Why);
    return 3;
  }
  printFingerprint(Name, *W);

  // Set-up: generate, parse and (serve-batch) start the server and
  // handshake. It is timed on a second instance (SetupTimer).
  std::string Err;
  SpeedProbe Probe;
  SetupTimer Setup(makeWorkload(Name), Seed, Seconds * 1e3, Probe);
  if (!Setup.tick(Err) || !W->setup(Seed, Err)) {
    std::fprintf(stderr, "pseq_perfbench: setup failed: %s\n", Err.c_str());
    return 1;
  }

  std::vector<std::vector<uint64_t>> Reference;
  std::string Drift;
  uint64_t Pass = 0;
  // Unmeasured warm-up passes, for at least a second: they spawn pool
  // threads, fault in the allocator, fill serve-batch's verdict cache,
  // and the first records the reference counts every pass must repeat.
  std::unique_ptr<ClientPool> Clients;
  if (W->clients() > 1)
    Clients = std::make_unique<ClientPool>(W->clients());
  bool Steady = true;
  for (auto T0 = Clock::now(); Pass == 0 || msSince(T0) < 1e3;)
    Steady &= runPass(*W, Clients.get(), Pass++, Tracing(), nullptr, nullptr,
                      Reference, Drift);

  std::vector<Metric> Metrics;
  Segment Plain, Traced;
  double Secs = static_cast<double>(Seconds);
  obs::SpanRecorder Spans;
  obs::Telemetry Telem;
  if (!Trace) {
    Steady &= measure(*W, Clients.get(), Pass, Secs, Tracing(), Plain,
                      Reference, Drift, Probe, Setup, Err);
  } else {
    Steady &= measure(*W, Clients.get(), Pass, Secs / 2, Tracing(), Plain,
                      Reference, Drift, Probe, Setup, Err);
    Steady &= measure(*W, Clients.get(), Pass, Secs / 2,
                      Tracing{&Spans, &Telem}, Traced, Reference, Drift,
                      Probe, Setup, Err);
  }
  Clients.reset();
  W->teardown();
  if (!Err.empty() || !Setup.finish(Err)) {
    std::fprintf(stderr, "pseq_perfbench: setup failed: %s\n", Err.c_str());
    return 1;
  }

  const Segment &Main = Trace ? Traced : Plain;
  uint64_t Attempted = Plain.Attempted + Traced.Attempted;
  uint64_t Failed = Plain.Failed + Traced.Failed;
  for (const Segment *S : {&Plain, &Traced})
    for (const std::string &E : S->Errors)
      std::printf("wrong verdict: %s\n", E.c_str());
  if (!Steady)
    std::printf("determinism: %s\n", Drift.c_str());

  // Digest of every job's exact counts in corpus-name order: equal across
  // runs of one build whenever the counts repeat.
  {
    std::vector<std::pair<std::string, std::vector<uint64_t>>> Named;
    for (size_t J = 0; J != Reference.size(); ++J)
      Named.push_back({W->jobName(J), Reference[J]});
    std::sort(Named.begin(), Named.end());
    uint64_t H = 0;
    for (const auto &[N, Cs] : Named)
      for (uint64_t C : Cs)
        H = mix64(H ^ C);
    std::printf("counts digest: %016llx over %zu jobs\n",
                static_cast<unsigned long long>(H), Named.size());
  }

  // One row per job: fastest and median latency, and its exact counts.
  for (size_t J = 0; W->clients() == 1 && J != Reference.size(); ++J) {
    std::vector<double> Ms;
    for (const Segment::PassRecord &P : Main.Log)
      Ms.push_back(P.LatMs[J]);
    std::string Cs;
    for (uint64_t C : Reference[J])
      Cs += " " + std::to_string(C);
    std::printf("job %-28s fastest %9.3f ms  median %9.3f ms  counts%s\n",
                W->jobName(J).c_str(), quantile(Ms, 0), quantile(Ms, 0.5),
                Cs.c_str());
  }

  auto perSecond = [](const Segment &S) {
    return S.Attempted / (S.WallMs / 1e3);
  };
  double Passes = static_cast<double>(std::max<size_t>(Main.Log.size(), 1));

  if (!Trace) {
    Uncontended U = uncontended(Plain);
    Metrics = {
        {"setup_s", "s", fastestQuarterMean(Setup.SetupS)},
        {"verdicts_per_s", "1/s", U.VerdictsPerS},
        {"verdict_p50_ms", "ms", quantile(U.LatMs, 0.5)},
        {"verdict_p90_ms", "ms", quantile(U.LatMs, 0.9)},
        {"decided_ratio", "share",
         static_cast<double>(Plain.Decided) / Plain.Attempted},
        {"ok_ratio", "share",
         static_cast<double>(Plain.Attempted - Plain.Failed) /
             Plain.Attempted},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"cpu_ms_per_verdict", "ms", U.CpuMsPerVerdict},
    };
    std::vector<double> Speeds;
    for (const Segment::PassRecord &P : Plain.Log)
      Speeds.push_back(P.speed());
    std::printf("run: %llu verdicts in %llu passes over %.3f s; median "
                "speed factor %.3f; kept passes unscaled: %.3f verdicts/s\n",
                static_cast<unsigned long long>(Plain.Attempted),
                static_cast<unsigned long long>(Plain.Log.size()),
                Plain.WallMs / 1e3, quantile(Speeds, 0.5), U.RawVerdictsPerS);
  } else {
    const LayerTally &L = Traced.Layers;
    // Per pass; exact wherever the guard holds the counter fixed.
    auto C = [&](const char *Counter) {
      return Traced.SegCounters.at(Counter) / Passes;
    };
    double States = L.PsnaStates / Passes;
    double ExploreS = L.ExploreMs / Passes / 1e3;
    double Wall = Traced.WallMs;
    double PipeMs = L.PipelineMs > 0 ? L.PipelineMs : 1;
    double ClientMs = L.ClientMs > 0 ? L.ClientMs : 1;
    uint64_t Spawned = Traced.PoolAfter.ThreadsSpawned;
    double IdleMs =
        (Traced.PoolAfter.IdleWaitNs - Traced.PoolBefore.IdleWaitNs) / 1e6;
    double CoveredMs = 0;
    unsigned Lanes = 0;
    std::map<std::string, double> Self = foldSelfMs(Spans, CoveredMs, Lanes);
    double LaneWall = Wall * std::max(1u, Lanes);
    Metrics = {
        {"lang.parse_ms", "ms", fastestQuarterMean(Setup.ParseMs)},
        {"psna.explore_share", "share", L.ExploreMs / Wall},
        {"psna.states_per_s", "1/s", ExploreS > 0 ? States / ExploreS : 0},
        {"psna.states", "count", States},
        {"psna.cert_nodes", "count", C("psna.cert.nodes")},
        {"psna.cert_searches", "count", C("psna.cert.searches")},
        {"psna.dedup_hits", "count", C("psna.explore.dedup_hits")},
        {"psna.na_markers", "count", C("psna.na_markers")},
        {"analysis.markers_skipped", "count", C("analysis.markers_skipped")},
        {"memo.hits", "count", L.MemoHits / Passes},
        {"memo.misses", "count", L.MemoMisses / Passes},
        {"memo.pruned_states", "count", L.MemoPruned / Passes},
        {"seq.states_expanded", "count", C("seq.enum.states_expanded")},
        {"seq.successor_calls", "count", C("seq.machine.successor_calls")},
        {"seq.advanced_checks", "count", C("seq.check.advanced.calls")},
        {"opt.validate_share", "share", L.ValidateMs / PipeMs},
        {"opt.pass_share", "share", L.OptMs / PipeMs},
        {"opt.rewrites", "count", L.Rewrites / Passes},
        {"exec.steals", "count",
         (Traced.PoolAfter.Steals - Traced.PoolBefore.Steals) / Passes},
        {"exec.idle_share", "share",
         Spawned ? IdleMs / (Wall * Spawned) : 0.0},
        {"exec.cpu_per_wall", "ratio", Traced.CpuMs / Wall},
        {"serve.server_share", "share", L.ServerMs / ClientMs},
        {"serve.overhead_share", "share",
         L.ServeJobs ? (L.ClientMs - L.ServerMs) / ClientMs : 0.0},
        {"serve.cache_hit_ratio", "share",
         L.ServeJobs ? static_cast<double>(L.CacheHits) / L.ServeJobs : 0.0},
        {"serve.worker_cpu_share", "share", L.WorkerCpuMs / ClientMs},
        {"serve.retries", "count", L.Retries / Passes},
        {"serve.queue_peak", "count", static_cast<double>(L.QueuePeak)},
        {"serve.worker_peak_rss_mb", "MB", L.WorkerPeakRssKb / 1024.0},
        {"obs.trace_overhead", "ratio", perSecond(Plain) / perSecond(Traced)},
        {"obs.span_coverage", "share", CoveredMs / LaneWall},
    };
    std::printf("traced: %llu verdicts in %llu passes over %.3f s on %u "
                "lane(s); spans cover %.1f%% of lane wall time\n",
                static_cast<unsigned long long>(Traced.Attempted),
                static_cast<unsigned long long>(Traced.Log.size()), Wall / 1e3,
                Lanes, 100 * CoveredMs / LaneWall);
    std::printf("self time per layer (ms per pass, share of lane wall):\n");
    for (const auto &[Span, Ms] : Self)
      std::printf("  %-16s %10.3f  %5.1f%%\n", Span.c_str(), Ms / Passes,
                  100 * Ms / LaneWall);
    if (L.PipelineMs > 0)
      std::printf("  opt.pipeline split: opt passes %.3f, validation %.3f "
                  "ms per pass\n",
                  L.OptMs / Passes, L.ValidateMs / Passes);
    if (L.ServeJobs)
      std::printf("  serve.request split: server %.3f, wire+queue %.3f ms "
                  "per pass\n",
                  L.ServerMs / Passes, (L.ClientMs - L.ServerMs) / Passes);
  }

  bool Correct = Failed == 0 && Steady;
  printResult(Correct, Attempted, Failed, Metrics);
  return Correct ? 0 : 1;
}
