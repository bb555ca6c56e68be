//===- psna/Machine.h - PS^na machine transitions ---------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PS^na machine (Fig. 5): thread configuration steps (read, write with
/// multi-message non-atomic writes, promise, lower, racy-read, racy-write,
/// silent/choose/fail) and machine steps with per-step certification.
///
/// Executability choices (all documented in DESIGN.md):
///  * machine steps are taken one thread micro-step at a time, certifying
///    after each step with outstanding promises (a sound, standard
///    granularity: Fig. 5's →+ decomposes into certified single steps for
///    this fragment);
///  * timestamps are dense per-location ranks (psna/View.h): a new message
///    takes fresh ranks in a gap, past the maximum, or (for RMW writes)
///    directly above the message read, and every higher rank at that
///    location moves up in the same pass. States are therefore canonical
///    by construction: order-isomorphic states are equal, with no
///    normalization step. RMW writes attach From to the read timestamp,
///    which is exactly PS2.1's mechanism for update atomicity;
///  * promised messages carry view ⊥ (non-atomic locations, plus valueless
///    NAMsg) or [x↦t] (atomic locations); release writes are never
///    promised (PS1's restriction — release fulfillment is not needed by
///    any example in the paper);
///  * every state caches its hash, computed once per step and reused by
///    the explorer's and the certification search's visited sets.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_MACHINE_H
#define PSEQ_PSNA_MACHINE_H

#include "exec/ThreadPool.h"
#include "psna/Thread.h"
#include "support/ValueDomain.h"

namespace pseq {

namespace obs {
struct Telemetry;
} // namespace obs

namespace guard {
class ResourceGuard;
} // namespace guard

namespace memo {
class MemoContext;
} // namespace memo

/// Bounding knobs of the PS^na explorer.
struct PsConfig {
  ValueDomain Domain = ValueDomain::binary();
  unsigned PromiseBudget = 1;  ///< max outstanding promises per thread
  unsigned SplitBudget = 0;    ///< extra messages per non-atomic write
  unsigned CertNodeBudget = 20000; ///< certification search nodes
  unsigned MaxStates = 400000; ///< explorer state cap
  /// Run the static race analyzer (analysis/RaceLint.h) before exploring
  /// and skip valueless NAMsg race markers when the verdict proves no
  /// race transition can fire. Behaviors are bit-identical either way
  /// (DESIGN.md "Static race analysis"); only the state count shrinks.
  /// --no-lint in the drivers.
  bool Lint = true;
  /// Derived knob (set by the explorer from the analyzer's verdict; tests
  /// may force it): suppress valueless NAMsg marker promises.
  bool SkipNaMarkers = false;
  /// Worker count for the explorer: 1 runs on the calling thread, 0 uses
  /// all hardware threads. The frontier is expanded level-synchronously
  /// and merged in pop order, so behaviors, StatesExplored, and the
  /// truncation cause are identical for every value (see DESIGN.md).
  /// Defaults to the PSEQ_THREADS environment variable (unset = 1).
  unsigned NumThreads = exec::defaultNumThreads();
  /// Optional telemetry (borrowed; see obs/Telemetry.h). Null — the
  /// default — keeps the explorer and machine on their fast paths.
  obs::Telemetry *Telem = nullptr;
  /// Optional resource guard (borrowed; see guard/Guard.h): deadline,
  /// memory budget, cancellation. Null — the default — means ungoverned.
  guard::ResourceGuard *Guard = nullptr;
  /// Optional memoization context (borrowed; see memo/MemoContext.h):
  /// sleep-set pruning inside one exploration plus a cross-run behavior
  /// cache keyed by (program, config) fingerprints. Null — the default —
  /// keeps the exact unpruned paths.
  memo::MemoContext *Memo = nullptr;
  /// Cache-partitioning salt mixed into the behavior-cache key (see
  /// SeqConfig::ConfigSalt): callers sharing one MemoContext across
  /// different pipeline/atlas configurations set it to a hash of the
  /// active setup so stale cross-configuration hits are impossible.
  uint64_t ConfigSalt = 0;
};

/// A whole-machine state ⟨T, M⟩ plus the system-call output so far.
struct PsMachineState {
  std::vector<PsThread> Threads;
  PsMemory Mem;
  bool Bottom = false;
  std::vector<Value> Outs;
  /// hash(), cached: the machine sets it on every state it hands out.
  uint64_t Hash = 0;

  bool allDone() const;

  /// Stores \p M at \p Slot with view \p View (nullptr = ⊥). One pass
  /// over the slot's location opens its fresh ranks: every timestamp above
  /// Slot.Base there — message endpoints, message and thread views,
  /// promise ids — moves up by Slot.To - Slot.Base. Ranks stay dense, so
  /// this is the whole of timestamp canonicalization.
  void insertMessage(const TimeSlot &Slot, const PsMessage &M,
                     const Time *View);

  /// Recomputes the cached hash after a mutation.
  void rehash() { Hash = computeHash(); }
  uint64_t computeHash() const;
  uint64_t hash() const { return Hash; }

  bool operator==(const PsMachineState &O) const;
  std::string str() const;
};

/// The PS^na transition relation for a whole program.
class PsMachine {
  const Program &Prog;
  PsConfig Cfg;

public:
  PsMachine(const Program &Prog, PsConfig Cfg)
      : Prog(Prog), Cfg(Cfg) {}

  const Program &program() const { return Prog; }
  const PsConfig &config() const { return Cfg; }

  /// ⟨λπ.⟨σ_π, V_init, ∅⟩, M_init⟩.
  PsMachineState initialState() const;

  /// All certified machine steps in which thread \p Tid moves once.
  /// (machine: normal) steps are filtered by
  /// certification; (machine: failure) steps yield Bottom states.
  std::vector<PsMachineState> threadSuccessors(const PsMachineState &S,
                                               unsigned Tid) const;

  /// Certification: thread \p Tid, running alone, can fulfill all its
  /// promises (bounded search; a budget miss counts as not certified and
  /// is recorded by the caller via certBudgetHit()).
  bool certifiable(const PsMachineState &S, unsigned Tid) const;

  /// True when some certification search ran out of budget (verdicts may
  /// then under-approximate the allowed behaviors).
  bool certBudgetHit() const { return CertBudgetHit; }

  /// Dynamic race observations: micro-steps outside certification in which
  /// isRacy() enabled a racy-read/racy-write/racy-update transition. The
  /// adequacy/fuzz harnesses cross-validate the static verdict against
  /// this oracle (a statically race-free program must keep it at 0).
  uint64_t raceSteps() const { return RaceStepCount; }
  /// Valueless NAMsg marker promises emitted (outside certification).
  uint64_t naMarkers() const { return NaMarkerCount; }

private:
  mutable bool CertBudgetHit = false;
  mutable uint64_t RaceStepCount = 0;
  mutable uint64_t NaMarkerCount = 0;

  /// Enumerates raw thread micro-steps (no certification). When
  /// \p ForCertification, promise steps are disabled.
  std::vector<PsMachineState> microSteps(const PsMachineState &S,
                                         unsigned Tid,
                                         bool ForCertification) const;

  void stepRead(const PsMachineState &S, unsigned Tid,
                const ProgState::Pending &Pend,
                std::vector<PsMachineState> &Out,
                bool ForCertification) const;
  void stepWrite(const PsMachineState &S, unsigned Tid,
                 const ProgState::Pending &Pend,
                 std::vector<PsMachineState> &Out,
                 bool ForCertification) const;
  void stepRmw(const PsMachineState &S, unsigned Tid,
               const ProgState::Pending &Pend,
               std::vector<PsMachineState> &Out,
               bool ForCertification) const;
  void stepPromise(const PsMachineState &S, unsigned Tid,
                   std::vector<PsMachineState> &Out) const;
  void stepLower(const PsMachineState &S, unsigned Tid,
                 std::vector<PsMachineState> &Out) const;
  void stepFail(const PsMachineState &S, unsigned Tid,
                std::vector<PsMachineState> &Out) const;

  /// Race detection (race-helper): the thread is unaware of some message
  /// at \p Loc; atomic accesses race only with valueless NAMsg markers.
  bool isRacy(const PsMachineState &S, unsigned Tid, unsigned Loc,
              bool AtomicAccess) const;

  std::vector<Value> readValues() const;
};

} // namespace pseq

#endif // PSEQ_PSNA_MACHINE_H
