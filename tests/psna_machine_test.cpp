//===- tests/psna_machine_test.cpp - Fig 5 transition rules ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Unit tests of the PS^na machine: views, rank timestamps and message
// placement, race detection, promises/certification, lowering, and state
// identity.
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "psna/Explorer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

using namespace pseq;

namespace {

PsConfig cfg(unsigned Promises = 0, unsigned Splits = 0) {
  PsConfig C;
  C.Domain = ValueDomain::binary();
  C.PromiseBudget = Promises;
  C.SplitBudget = Splits;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===
// Memory primitives
//===----------------------------------------------------------------------===

TEST(PsMemoryTest, InitialMemoryHasInitMessages) {
  PsMemory M = PsMemory::initial(2);
  ASSERT_EQ(M.msgs(0).size(), 1u);
  EXPECT_TRUE(M.msgs(0)[0].isInit());
  EXPECT_EQ(M.msgs(0)[0].V, Value::of(0));
}

TEST(PsMemoryTest, SlotsAboveLeaveRoom) {
  PsMemory M = PsMemory::initial(1);
  std::vector<TimeSlot> S1 = M.slotsAbove(0, 0);
  ASSERT_EQ(S1.size(), 1u) << "only the past-the-end slot initially";
  EXPECT_EQ(S1[0].Base, 0u);
  EXPECT_EQ(S1[0].From, 1u);
  EXPECT_EQ(S1[0].To, 2u);
  PsMessage A;
  A.Loc = 0;
  A.V = Value::of(1);
  M.insert(S1[0], A, nullptr);

  // Now: a gap slot between init and A, plus past-the-end.
  std::vector<TimeSlot> S2 = M.slotsAbove(0, 0);
  ASSERT_EQ(S2.size(), 2u);
  EXPECT_EQ(S2[0].Base, 0u);
  EXPECT_EQ(S2[0].To, 2u);
  EXPECT_EQ(S2[1].Base, 2u) << "past A's timestamp";
  EXPECT_EQ(S2[1].To, 4u);
  EXPECT_EQ(M.slotsAbove(0, 2).size(), 1u) << "no gap above A";

  // Filling the gap moves A up by the two fresh ranks.
  M.insert(S2[0], A, nullptr);
  ASSERT_EQ(M.msgs(0).size(), 3u);
  EXPECT_EQ(M.msgs(0)[1].From, 1u);
  EXPECT_EQ(M.msgs(0)[1].To, 2u);
  EXPECT_EQ(M.msgs(0)[2].From, 3u);
  EXPECT_EQ(M.msgs(0)[2].To, 4u);
}

TEST(PsMemoryTest, AdjacentSlotAttachesAndBlocks) {
  PsMemory M = PsMemory::initial(1);
  std::optional<TimeSlot> Adj = M.adjacentSlot(0, 0);
  ASSERT_TRUE(Adj.has_value());
  EXPECT_EQ(Adj->From, 0u) << "RMW attaches to the read message";
  EXPECT_EQ(Adj->To, 1u);

  PsMessage A;
  A.Loc = 0;
  A.V = Value::of(1);
  M.insert(*Adj, A, nullptr);
  EXPECT_FALSE(M.adjacentSlot(0, 0).has_value())
      << "no second update can read the same message";
  std::optional<TimeSlot> Next = M.adjacentSlot(0, 1);
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(Next->From, 1u);
  EXPECT_EQ(Next->To, 2u);
  EXPECT_FALSE(M.adjacentSlot(0, 7).has_value()) << "no message at 7";
}

TEST(PsMemoryTest, MessagesAndViewsStaySortedAcrossLocations) {
  // Inserting at location 1 before location 0, or after, yields the same
  // memory: messages are kept in (location, timestamp) order with their
  // views alongside.
  PsMessage A;
  A.Loc = 0;
  A.V = Value::of(1);
  PsMessage B;
  B.Loc = 1;
  B.Valueless = true;
  const Time AView[] = {2, 0};
  PsMemory M1 = PsMemory::initial(2), M2 = PsMemory::initial(2);
  M1.insert(M1.slotsAbove(0, 0)[0], A, AView);
  M1.insert(M1.slotsAbove(1, 0)[0], B, nullptr);
  M2.insert(M2.slotsAbove(1, 0)[0], B, nullptr);
  M2.insert(M2.slotsAbove(0, 0)[0], A, AView);
  EXPECT_TRUE(M1 == M2);
  EXPECT_EQ(M1.hash(), M2.hash());

  const PsMessage *FoundA = M2.find(MsgId{0, 2});
  ASSERT_NE(FoundA, nullptr);
  ASSERT_NE(M2.view(*FoundA), nullptr);
  EXPECT_EQ(M2.view(*FoundA)[0], 2u);
  EXPECT_EQ(M2.view(*FoundA)[1], 0u);
  ASSERT_NE(M2.find(MsgId{1, 2}), nullptr);
  EXPECT_TRUE(M2.find(MsgId{1, 2})->Valueless);
  EXPECT_EQ(M2.view(*M2.find(MsgId{1, 2})), nullptr) << "NAMsg view is ⊥";

  // (lower) to ⊥ clears the stored view, so the memory stays canonical.
  PsMemory M3 = PsMemory::initial(2);
  M3.insert(M3.slotsAbove(0, 0)[0], A, nullptr);
  M3.insert(M3.slotsAbove(1, 0)[0], B, nullptr);
  M1.lower(MsgId{0, 2}, /*ToUndef=*/false, /*ToBot=*/true);
  EXPECT_TRUE(M1 == M3);
}

//===----------------------------------------------------------------------===
// Rank timestamps
//===----------------------------------------------------------------------===

TEST(TimeRankTest, RankAddIsExactUpToTheLimit) {
  EXPECT_EQ(rankAdd(3, 2), 5u);
  EXPECT_EQ(rankAdd(UINT32_MAX - 1, 1), UINT32_MAX);
  EXPECT_EQ(rankAdd(UINT32_MAX, 0), UINT32_MAX);
}

TEST(TimeRankTest, ViewJoinIsPointwiseMax) {
  View V = View::zero(3);
  V.set(0, 4);
  const Time O[] = {2, 5, 0};
  V.join(O);
  EXPECT_EQ(V.str(), "[4,5,0]");
  View W = View::zero(3);
  W.set(0, 4);
  W.set(1, 5);
  EXPECT_TRUE(V == W);
  EXPECT_EQ(V.hash(), W.hash());
}

TEST(TimeRankTest, ViewShiftMovesOnlyRanksAboveBase) {
  View V = View::zero(2);
  V.set(0, 3);
  V.set(1, 3);
  V.shift(0, 2, 2);
  V.shift(1, 3, 2);
  EXPECT_EQ(V.str(), "[5,3]");
}

TEST(TimeRankDeathTest, OverflowIsHardError) {
  // A rank past Time's range would wrap around and reorder messages: like
  // any exact timestamp arithmetic, it aborts in every build type.
  EXPECT_DEATH(rankAdd(UINT32_MAX, 1), "timestamp rank overflow");
  PsMemory M = PsMemory::initial(1);
  PsMessage A;
  A.Loc = 0;
  A.V = Value::of(1);
  M.insert(TimeSlot{0, 1, UINT32_MAX - 1}, A, nullptr);
  EXPECT_DEATH(M.slotsAbove(0, 0), "timestamp rank overflow")
      << "no fresh rank past the maximum";
  EXPECT_DEATH(M.insert(TimeSlot{0, 1, 2}, A, nullptr),
               "timestamp rank overflow")
      << "shifting the maximum past the limit";
}

//===----------------------------------------------------------------------===
// Machine behaviors on single-threaded programs
//===----------------------------------------------------------------------===

TEST(PsMachineTest, SequentialExecutionIsDeterministic) {
  auto P = prog("na x;\nthread { x@na := 1; a := x@na; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "ret(1)");
  EXPECT_FALSE(B.truncated());
}

TEST(PsMachineTest, SingleThreadReadsLatestOrInit) {
  auto P = prog("atomic x;\nthread { x@rlx := 1; a := x@rlx; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  // Coherence: after writing 1, the thread's view points at its write.
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "ret(1)");
}

TEST(PsMachineTest, AbortIsUB) {
  auto P = prog("thread { abort; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_TRUE(B.All[0].IsUB);
}

TEST(PsMachineTest, ChooseEnumeratesDomain) {
  auto P = prog("thread { c := choose; return c; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("ret(0)"));
  EXPECT_TRUE(B.containsStr("ret(1)"));
  EXPECT_EQ(B.All.size(), 2u);
}

TEST(PsMachineTest, PrintsAreObservableInOrder) {
  auto P = prog("thread { print(1); print(0); return 0; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "out(1,0) ret(0)");
}

//===----------------------------------------------------------------------===
// Races
//===----------------------------------------------------------------------===

TEST(PsMachineTest, NoRaceOnSequentialThread) {
  auto P = prog("na x;\nthread { a := x@na; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "ret(0)") << "no race without a second thread";
}

TEST(PsMachineTest, ConcurrentNaWriteMakesReadsRacy) {
  auto P = prog("na x;\n"
                "thread { x@na := 1; return 0; }\n"
                "thread { a := x@na; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("ret(0,undef)")) << "racy read returns undef";
  EXPECT_TRUE(B.containsStr("ret(0,0)")) << "read before the write";
  EXPECT_TRUE(B.containsStr("ret(0,1)")) << "read after the write";
  EXPECT_FALSE(B.containsStr("UB")) << "wr races are not UB";
}

TEST(PsMachineTest, WriteWriteRaceIsUB) {
  auto P = prog("na x;\n"
                "thread { x@na := 1; return 0; }\n"
                "thread { x@na := 0; return 0; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("UB"));
}

TEST(PsMachineTest, AtomicAccessesNeverRaceWithAtomics) {
  auto P = prog("atomic x;\n"
                "thread { x@rlx := 1; return 0; }\n"
                "thread { a := x@rlx; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_FALSE(B.containsStr("UB"));
  EXPECT_FALSE(B.containsStr("ret(0,undef)"))
      << "atomic accesses race only with NAMsg markers";
}

TEST(PsMachineTest, ReleaseAcquireSynchronizesNaData) {
  auto P = prog("na x; atomic y;\n"
                "thread { x@na := 1; y@rel := 1; return 0; }\n"
                "thread { b := y@acq; if (b == 1) { a := x@na; return a; } "
                "return 2; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("ret(0,1)"));
  EXPECT_TRUE(B.containsStr("ret(0,2)"));
  EXPECT_FALSE(B.containsStr("ret(0,undef)"))
      << "the acquire view covers the na write";
  EXPECT_FALSE(B.containsStr("ret(0,0)"));
}

//===----------------------------------------------------------------------===
// RMWs
//===----------------------------------------------------------------------===

TEST(PsMachineTest, FaddsAreAtomic) {
  auto P = prog("atomic x;\n"
                "thread { a := fadd(x, 1) @ rlx rlx; return a; }\n"
                "thread { b := fadd(x, 1) @ rlx rlx; return b; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  // One fadd reads 0, the other must read 1: total increment is 2.
  EXPECT_TRUE(B.containsStr("ret(0,1)"));
  EXPECT_TRUE(B.containsStr("ret(1,0)"));
  EXPECT_FALSE(B.containsStr("ret(0,0)")) << "updates attach to the read";
  EXPECT_FALSE(B.containsStr("ret(1,1)"));
}

TEST(PsMachineTest, CasMutualExclusion) {
  auto P = prog("atomic l;\n"
                "thread { a := cas(l, 0, 1) @ acq rel; return a; }\n"
                "thread { b := cas(l, 0, 1) @ acq rel; return b; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("ret(0,1)"));
  EXPECT_TRUE(B.containsStr("ret(1,0)"));
  EXPECT_FALSE(B.containsStr("ret(0,0)")) << "both CASes cannot win";
}

//===----------------------------------------------------------------------===
// Promises and certification
//===----------------------------------------------------------------------===

TEST(PsMachineTest, PromiseRequiresCertification) {
  // A thread that never writes x cannot sustain a promise to x; with the
  // promise budget the only behaviors are the promise-free ones.
  auto P = prog("atomic x;\n"
                "thread { a := x@rlx; return a; }\n"
                "thread { x@rlx := 1; return 0; }");
  PsBehaviorSet B = explorePsna(*P, cfg(/*Promises=*/1));
  EXPECT_TRUE(B.containsStr("ret(0,0)"));
  EXPECT_TRUE(B.containsStr("ret(1,0)"));
  EXPECT_EQ(B.All.size(), 2u);
}

TEST(PsMachineTest, LowerAllowsUndefFulfillment) {
  // The thread promises x = 1 but the actual write is undef (via a racy
  // read); lowering the promise to undef lets it be fulfilled. Mirrors
  // Appendix E's motivation.
  auto P = prog("na d; atomic x, y;\n"
                "thread { a := d@na; x@rlx := a; b := y@rlx; return b; }\n"
                "thread { c := x@rlx; y@rlx := c; d@na := 1; return c; }");
  PsBehaviorSet B = explorePsna(*P, cfg(/*Promises=*/1));
  // Thread 0 can promise x = undef (or lower a defined promise), thread 1
  // reads it, passes it through y; thread 0 reads it back.
  EXPECT_TRUE(B.containsStr("ret(undef,undef)"));
}

//===----------------------------------------------------------------------===
// Witness extraction
//===----------------------------------------------------------------------===

TEST(PsWitnessTest, Example51WitnessGoesThroughAPromise) {
  auto P = prog("na x; atomic y;\n"
                "thread { a := x@na; y@rlx := 1; return a; }\n"
                "thread { b := y@rlx; if (b == 1) { x@na := 1; } "
                "return b; }");
  std::vector<PsMachineState> Path =
      findPsnaWitness(*P, cfg(/*Promises=*/1), "ret(undef,1)");
  ASSERT_FALSE(Path.empty());
  // The path starts at the initial state and ends terminated.
  EXPECT_TRUE(Path.front().Mem.msgs(0).size() == 1 &&
              Path.front().Mem.msgs(1).size() == 1);
  EXPECT_TRUE(Path.back().allDone());
  // Some intermediate state carries an outstanding promise — the paper's
  // execution needs one.
  bool SawPromise = false;
  for (const PsMachineState &S : Path)
    for (const PsThread &T : S.Threads)
      SawPromise |= !T.Promises.empty();
  EXPECT_TRUE(SawPromise);
}

TEST(PsWitnessTest, UnreachableBehaviorHasNoWitness) {
  auto P = prog("atomic y;\n"
                "thread { a := y@rlx; return a; }");
  EXPECT_TRUE(findPsnaWitness(*P, cfg(), "ret(7)").empty());
  EXPECT_FALSE(findPsnaWitness(*P, cfg(), "ret(0)").empty());
}

//===----------------------------------------------------------------------===
// Normalization
//===----------------------------------------------------------------------===

TEST(PsMachineTest, IsomorphicStatesMerge) {
  // Two relaxed writes to different locations commute up to timestamps;
  // exploration stays tiny because rank timestamps make the two orders
  // produce the same state.
  auto P = prog("atomic x, y;\n"
                "thread { x@rlx := 1; return 0; }\n"
                "thread { y@rlx := 1; return 0; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_EQ(B.All.size(), 1u);
  EXPECT_LT(B.StatesExplored, 40u) << "state dedup must be effective";
}

namespace {

/// A two-thread, two-location initial state to insert messages into.
PsMachineState twoLocState() {
  static auto P = prog("atomic x; na y;\n"
                       "thread { x@rlx := 1; return 0; }\n"
                       "thread { y@na := 1; return 0; }");
  return PsMachine(*P, cfg()).initialState();
}

PsMessage valued(unsigned Loc, int64_t V) {
  PsMessage M;
  M.Loc = Loc;
  M.V = Value::of(V);
  return M;
}

} // namespace

TEST(PsMachineStateTest, GapInsertShiftsHigherRanksAtThatLocationOnly) {
  PsMachineState S = twoLocState();
  // x: init, A at (1,2] with view [x@2]; thread 1 has seen A and holds a
  // promise on it. y: C at (1,2] whose (release) view records x@2.
  const Time AView[] = {2, 0};
  S.insertMessage(S.Mem.slotsAbove(0, 0)[0], valued(0, 1), AView);
  S.Threads[1].V.set(0, 2);
  S.Threads[1].addPromise(MsgId{0, 2});
  const Time CView[] = {2, 2};
  S.insertMessage(S.Mem.slotsAbove(1, 0)[0], valued(1, 1), CView);
  S.Threads[0].V.set(1, 2);

  // A new message in x's gap above init takes ranks (1,2]: everything at
  // x above rank 0 moves up by two, nothing at y moves.
  std::vector<TimeSlot> Slots = S.Mem.slotsAbove(0, 0);
  ASSERT_EQ(Slots.size(), 2u);
  S.insertMessage(Slots[0], valued(0, 0), nullptr);

  ASSERT_EQ(S.Mem.msgs(0).size(), 3u);
  EXPECT_EQ(S.Mem.msgs(0)[1].To, 2u) << "the new message";
  EXPECT_EQ(S.Mem.msgs(0)[2].From, 3u);
  EXPECT_EQ(S.Mem.msgs(0)[2].To, 4u) << "A moved up";
  EXPECT_EQ(S.Mem.view(S.Mem.msgs(0)[2])[0], 4u) << "A's own view entry";
  EXPECT_EQ(S.Threads[1].V.get(0), 4u) << "thread view at x";
  ASSERT_EQ(S.Threads[1].Promises.size(), 1u);
  EXPECT_TRUE(S.Threads[1].hasPromise(MsgId{0, 4})) << "promise id at x";
  const PsMessage &C = S.Mem.msgs(1)[1];
  EXPECT_EQ(C.From, 1u) << "y's endpoints do not move";
  EXPECT_EQ(C.To, 2u);
  EXPECT_EQ(S.Mem.view(C)[0], 4u) << "C's view entry at x moves";
  EXPECT_EQ(S.Mem.view(C)[1], 2u) << "C's view entry at y does not";
  EXPECT_EQ(S.Threads[0].V.get(0), 0u) << "views at rank 0 stay";
  EXPECT_EQ(S.Threads[0].V.get(1), 2u);
}

TEST(PsMachineStateTest, IsomorphicHistoriesGiveEqualStatesAndHashes) {
  // History 1 writes x=1 then x=2 past the maximum and then y. History 2
  // writes y first, then x=2, then x=1 in the gap below it. Both end with
  // x: init < 1 < 2 and y: init < 1 — the same order type.
  PsMachineState H1 = twoLocState();
  H1.insertMessage(H1.Mem.slotsAbove(0, 0).back(), valued(0, 1), nullptr);
  H1.insertMessage(H1.Mem.slotsAbove(0, 0).back(), valued(0, 2), nullptr);
  H1.insertMessage(H1.Mem.slotsAbove(1, 0).back(), valued(1, 1), nullptr);
  H1.rehash();

  PsMachineState H2 = twoLocState();
  H2.insertMessage(H2.Mem.slotsAbove(1, 0).back(), valued(1, 1), nullptr);
  H2.insertMessage(H2.Mem.slotsAbove(0, 0).back(), valued(0, 2), nullptr);
  H2.insertMessage(H2.Mem.slotsAbove(0, 0).front(), valued(0, 1), nullptr);
  H2.rehash();

  EXPECT_TRUE(H1 == H2) << H1.str() << "\nvs\n" << H2.str();
  EXPECT_EQ(H1.hash(), H2.hash());
  EXPECT_EQ(H1.Mem.str(), "<x0@(0,0], 0, bot> <x0@(1,2], 1, bot> "
                          "<x0@(3,4], 2, bot> <x1@(0,0], 0, bot> "
                          "<x1@(1,2], 1, bot> ");
}

namespace {

/// Checks the rank invariant of \p S: at every location the message
/// endpoints ∪ {0} are exactly 0..k, and every view entry and promise id
/// is a message timestamp at its location.
void expectDenseRanks(const PsMachineState &S, const std::string &Where) {
  unsigned NumLocs = S.Mem.numLocs();
  auto isTo = [&](unsigned Loc, Time T) {
    for (const PsMessage &M : S.Mem.msgs(Loc))
      if (M.To == T)
        return true;
    return false;
  };
  for (unsigned Loc = 0; Loc != NumLocs; ++Loc) {
    std::vector<Time> Ends{0};
    for (const PsMessage &M : S.Mem.msgs(Loc)) {
      Ends.push_back(M.From);
      Ends.push_back(M.To);
      if (const Time *MV = S.Mem.view(M)) {
        for (unsigned L = 0; L != NumLocs; ++L)
          EXPECT_TRUE(isTo(L, MV[L])) << Where;
      }
    }
    std::sort(Ends.begin(), Ends.end());
    Ends.erase(std::unique(Ends.begin(), Ends.end()), Ends.end());
    for (size_t I = 0; I != Ends.size(); ++I)
      ASSERT_EQ(Ends[I], I) << Where << ": ranks at x" << Loc
                            << " are not dense in " << S.str();
  }
  for (const PsThread &T : S.Threads) {
    for (unsigned L = 0; L != NumLocs; ++L)
      EXPECT_TRUE(isTo(L, T.V.get(L))) << Where;
    for (const MsgId &Id : T.Promises)
      EXPECT_TRUE(isTo(Id.Loc, Id.To)) << Where;
  }
}

} // namespace

TEST(PsMachineStateTest, SuccessorsCacheTheirHashAndKeepRanksDense) {
  // Breadth-first over every classic litmus case at its budgets: each
  // successor's cached hash equals a fresh recomputation and its ranks are
  // dense, which is what makes the cached hash a canonical fingerprint.
  uint64_t Checked = 0;
  for (const LitmusCase &LC : litmusCorpus()) {
    auto P = prog(LC.Text);
    PsConfig Cfg = cfg(LC.PromiseBudget, LC.SplitBudget);
    Cfg.Domain = LC.Domain;
    PsMachine M(*P, Cfg);
    std::vector<PsMachineState> Seen{M.initialState()};
    ASSERT_EQ(Seen[0].hash(), Seen[0].computeHash()) << LC.Name;
    std::unordered_set<uint64_t> Hashes{Seen[0].hash()};
    for (size_t I = 0; I != Seen.size() && Seen.size() < 3000; ++I) {
      if (Seen[I].Bottom || Seen[I].allDone())
        continue;
      for (unsigned Tid = 0; Tid != Seen[I].Threads.size(); ++Tid)
        for (PsMachineState &Next : M.threadSuccessors(Seen[I], Tid)) {
          ++Checked;
          ASSERT_EQ(Next.hash(), Next.computeHash())
              << LC.Name << ": " << Next.str();
          expectDenseRanks(Next, LC.Name);
          if (Hashes.insert(Next.hash()).second)
            Seen.push_back(std::move(Next));
        }
    }
  }
  EXPECT_GT(Checked, 5000u) << "the sweep must not be vacuous";
}
