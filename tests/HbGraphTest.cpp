//===- tests/HbGraphTest.cpp - Happens-before graph machinery -------------===//
//
// Direct unit tests of the data structures behind the optimized analysis:
// packed steps, stale-step watermarks, edge insertion and cycle rejection,
// ancestor-set propagation, reference-counting GC with cascades, the merge
// function's three cases, and slot recycling.
//
//===----------------------------------------------------------------------===//

#include "core/HbGraph.h"
#include "core/Step.h"

#include <gtest/gtest.h>

namespace velo {
namespace {

const EdgeInfo TestInfo{Op::Write, 0, 0};

TEST(StepTest, PackingRoundTrips) {
  Step S = Step::make(5, 123456789);
  EXPECT_FALSE(S.isBottom());
  EXPECT_EQ(S.slot(), 5u);
  EXPECT_EQ(S.stamp(), 123456789u);

  Step Max = Step::make(Step::MaxSlots - 1, (1ULL << 48) - 1);
  EXPECT_EQ(Max.slot(), Step::MaxSlots - 1);
  EXPECT_EQ(Max.stamp(), (1ULL << 48) - 1);
}

TEST(StepTest, BottomIsDistinctFromEverySlotZeroStamp) {
  EXPECT_TRUE(Step::bottom().isBottom());
  EXPECT_TRUE(Step().isBottom());
  // Slot 0 with the smallest stamp is not bottom.
  EXPECT_FALSE(Step::make(0, 1).isBottom());
  EXPECT_NE(Step::make(0, 1).raw(), 0u);
}

TEST(StepTest, EqualityComparesSlotAndStamp) {
  EXPECT_EQ(Step::make(1, 2), Step::make(1, 2));
  EXPECT_NE(Step::make(1, 2), Step::make(1, 3));
  EXPECT_NE(Step::make(1, 2), Step::make(2, 2));
}

TEST(HbGraphTest, AllocAndTickIssueMonotonicStamps) {
  HbGraph G;
  Step S0 = G.allocNode(0, 7, /*Active=*/true);
  EXPECT_TRUE(G.isLive(S0));
  Step S1 = G.tick(S0);
  Step S2 = G.tick(S1);
  EXPECT_EQ(S0.slot(), S1.slot());
  EXPECT_LT(S0.stamp(), S1.stamp());
  EXPECT_LT(S1.stamp(), S2.stamp());
  EXPECT_EQ(G.nodesAllocated(), 1u);
  EXPECT_EQ(G.nodesAlive(), 1u);
  EXPECT_EQ(G.rootOf(S0.slot()), 7u);
  EXPECT_EQ(G.ownerOf(S0.slot()), 0u);
}

TEST(HbGraphTest, TickOfBottomIsBottom) {
  HbGraph G;
  EXPECT_TRUE(G.tick(Step::bottom()).isBottom());
}

TEST(HbGraphTest, EdgeFromBottomIsSkipped) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  EXPECT_EQ(G.addEdge(Step::bottom(), A, TestInfo, nullptr),
            HbGraph::AddEdgeResult::Skipped);
}

TEST(HbGraphTest, IntraNodeEdgeIsSkipped) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step A2 = G.tick(A);
  EXPECT_EQ(G.addEdge(A, A2, TestInfo, nullptr),
            HbGraph::AddEdgeResult::Skipped);
}

TEST(HbGraphTest, CycleIsDetectedAndRejected) {
  HbGraph G;
  Step A = G.allocNode(0, 1, true);
  Step B = G.allocNode(1, 2, true);
  ASSERT_EQ(G.addEdge(A, B, TestInfo, nullptr),
            HbGraph::AddEdgeResult::Added);
  CycleReport Report;
  EXPECT_EQ(G.addEdge(B, A, TestInfo, &Report),
            HbGraph::AddEdgeResult::Cycle);
  ASSERT_EQ(Report.Entries.size(), 2u);
  // Entries[0] is the node the closing edge points at (A).
  EXPECT_EQ(Report.Entries[0].Node, A.slot());
  EXPECT_EQ(Report.Entries[1].Node, B.slot());
  // The rejected edge left the graph acyclic: A => B still holds, B !=> A.
  EXPECT_TRUE(G.happensBeforeEq(A.slot(), B.slot()));
  EXPECT_FALSE(G.happensBeforeEq(B.slot(), A.slot()));
}

TEST(HbGraphTest, TransitiveCycleThroughChainIsDetected) {
  HbGraph G;
  std::vector<Step> Nodes;
  for (int I = 0; I < 5; ++I)
    Nodes.push_back(G.allocNode(static_cast<Tid>(I), 0, true));
  for (int I = 0; I + 1 < 5; ++I)
    ASSERT_EQ(G.addEdge(Nodes[I], Nodes[I + 1], TestInfo, nullptr),
              HbGraph::AddEdgeResult::Added);
  CycleReport Report;
  EXPECT_EQ(G.addEdge(Nodes[4], Nodes[0], TestInfo, &Report),
            HbGraph::AddEdgeResult::Cycle);
  EXPECT_EQ(Report.Entries.size(), 5u);
}

TEST(HbGraphTest, AncestorsPropagateThroughDescendants) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step B = G.allocNode(1, 0, true);
  Step C = G.allocNode(2, 0, true);
  // Build B -> C first, then A -> B: C must learn about A transitively.
  G.addEdge(B, C, TestInfo, nullptr);
  G.addEdge(A, B, TestInfo, nullptr);
  EXPECT_TRUE(G.happensBeforeEq(A.slot(), C.slot()));
  CycleReport Report;
  EXPECT_EQ(G.addEdge(C, A, TestInfo, &Report),
            HbGraph::AddEdgeResult::Cycle);
}

TEST(HbGraphTest, DuplicateEdgeRefreshesStamps) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step B = G.allocNode(1, 0, true);
  EXPECT_EQ(G.addEdge(A, B, TestInfo, nullptr),
            HbGraph::AddEdgeResult::Added);
  uint64_t EdgesBefore = G.edgesAdded();
  // Re-adding between the same nodes with later stamps is the (+) refresh:
  // no new edge is counted.
  Step A2 = G.tick(A);
  Step B2 = G.tick(B);
  EXPECT_EQ(G.addEdge(A2, B2, TestInfo, nullptr),
            HbGraph::AddEdgeResult::Added);
  EXPECT_EQ(G.edgesAdded(), EdgesBefore);
}

TEST(HbGraphTest, FinishedSourceNodeIsCollectedAndCascades) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step B = G.allocNode(1, 0, true);
  G.addEdge(A, B, TestInfo, nullptr);
  EXPECT_EQ(G.nodesAlive(), 2u);

  // B finishes first: it still has an incoming edge from A, so it stays.
  G.finishNode(B.slot());
  EXPECT_EQ(G.nodesAlive(), 2u);
  EXPECT_TRUE(G.isLive(B));

  // A finishes with no incoming edges: collected, and dropping its edge
  // releases B too.
  G.finishNode(A.slot());
  EXPECT_EQ(G.nodesAlive(), 0u);
  EXPECT_FALSE(G.isLive(A));
  EXPECT_FALSE(G.isLive(B));
}

TEST(HbGraphTest, LongChainCascadesInOneCollection) {
  HbGraph G;
  std::vector<Step> Nodes;
  for (int I = 0; I < 50; ++I) {
    Nodes.push_back(G.allocNode(0, 0, true));
    if (I > 0)
      G.addEdge(Nodes[I - 1], Nodes[I], TestInfo, nullptr);
  }
  // Finish from the tail: nothing can be collected until the head goes.
  for (int I = 49; I > 0; --I)
    G.finishNode(Nodes[I].slot());
  EXPECT_EQ(G.nodesAlive(), 50u);
  G.finishNode(Nodes[0].slot());
  EXPECT_EQ(G.nodesAlive(), 0u) << "whole chain collapses in cascade";
}

TEST(HbGraphTest, CollectedStepsDereferenceToBottom) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step ALater = G.tick(A);
  G.finishNode(A.slot());
  EXPECT_FALSE(G.isLive(A));
  EXPECT_FALSE(G.isLive(ALater));
  EXPECT_TRUE(G.resolve(ALater).isBottom());
}

TEST(HbGraphTest, RecycledSlotDoesNotAliasStaleSteps) {
  HbGraph G;
  Step Old = G.allocNode(0, 0, true);
  NodeId Slot = Old.slot();
  G.finishNode(Slot);

  // The slot is recycled for a new transaction.
  Step Fresh = G.allocNode(1, 0, true);
  ASSERT_EQ(Fresh.slot(), Slot) << "free list should reuse the slot";
  EXPECT_TRUE(G.isLive(Fresh));
  EXPECT_FALSE(G.isLive(Old)) << "stale step must stay dead after reuse";
  EXPECT_GT(Fresh.stamp(), Old.stamp()) << "stamps monotone across reuse";
  G.finishNode(Slot);
}

TEST(HbGraphTest, AncestorSetsAreRepairedOnCollection) {
  HbGraph G;
  // A -> B; collect A; recycle A's slot as C; C -> B must NOT be a cycle
  // (stale ancestor entries would wrongly report one).
  Step A = G.allocNode(0, 0, true);
  Step B = G.allocNode(1, 0, true);
  G.addEdge(A, B, TestInfo, nullptr);
  G.finishNode(A.slot()); // collected; B's ancestors must drop A's slot
  ASSERT_EQ(G.nodesAlive(), 1u);

  Step C = G.allocNode(2, 0, true);
  ASSERT_EQ(C.slot(), A.slot());
  EXPECT_EQ(G.addEdge(C, B, TestInfo, nullptr),
            HbGraph::AddEdgeResult::Added)
      << "recycled slot must not inherit the old ancestry";
  G.finishNode(B.slot());
  G.finishNode(C.slot());
  EXPECT_EQ(G.nodesAlive(), 0u);
}

TEST(HbGraphTest, CascadingCollectRepairsEveryAncestorSet) {
  // Chain N0 -> N1 -> N2 -> N3 -> N4 with shortcuts N1 -> N3 and N1 -> N4,
  // and an open R -> N2 that keeps the tail alive. Finishing N0 collects N0
  // and then N1 in one cascade; each collection walks every descendant,
  // reaching N3 and N4 along more than one path, and must erase the
  // collected slot from all of their ancestor sets.
  HbGraph G;
  Step R = G.allocNode(9, 0, true);
  std::vector<Step> N;
  for (Tid T = 0; T < 5; ++T)
    N.push_back(G.allocNode(T, 0, true));
  for (int I = 0; I + 1 < 5; ++I)
    ASSERT_EQ(G.addEdge(N[I], N[I + 1], TestInfo, nullptr),
              HbGraph::AddEdgeResult::Added);
  G.addEdge(N[1], N[3], TestInfo, nullptr);
  G.addEdge(N[1], N[4], TestInfo, nullptr);
  G.addEdge(R, N[2], TestInfo, nullptr);
  for (int I = 4; I >= 1; --I)
    G.finishNode(N[I].slot());
  ASSERT_EQ(G.nodesAlive(), 6u);

  G.finishNode(N[0].slot());
  EXPECT_EQ(G.nodesAlive(), 4u) << "N0 and N1 cascade; R pins N2";
  EXPECT_FALSE(G.isLive(N[0]));
  EXPECT_FALSE(G.isLive(N[1]));
  for (int I = 2; I < 5; ++I) {
    ASSERT_TRUE(G.isLive(N[I]));
    EXPECT_TRUE(G.happensBeforeEq(R.slot(), N[I].slot()));
  }
  EXPECT_TRUE(G.happensBeforeEq(N[2].slot(), N[4].slot()));

  // Recycle both freed slots. A stale entry for either in N3's or N4's set
  // would turn these edges into false cycles.
  Step C0 = G.allocNode(7, 0, true);
  Step C1 = G.allocNode(8, 0, true);
  ASSERT_TRUE((C0.slot() == N[0].slot() && C1.slot() == N[1].slot()) ||
              (C0.slot() == N[1].slot() && C1.slot() == N[0].slot()));
  EXPECT_EQ(G.addEdge(N[4], C0, TestInfo, nullptr),
            HbGraph::AddEdgeResult::Added);
  EXPECT_EQ(G.addEdge(N[3], C1, TestInfo, nullptr),
            HbGraph::AddEdgeResult::Added);
  EXPECT_TRUE(G.happensBeforeEq(R.slot(), C0.slot()));

  // Finishing R now takes the whole tail; the open recycled nodes stay.
  G.finishNode(R.slot());
  EXPECT_EQ(G.nodesAlive(), 2u);
  EXPECT_FALSE(G.happensBeforeEq(N[4].slot(), C0.slot()));
  G.finishNode(C0.slot());
  G.finishNode(C1.slot());
  EXPECT_EQ(G.nodesAlive(), 0u);
}

// --- merge ---

TEST(HbMergeTest, AllBottomYieldsBottom) {
  HbGraph G;
  EXPECT_TRUE(G.merge({Step::bottom(), Step::bottom()}, 0, TestInfo)
                  .isBottom());
  EXPECT_TRUE(G.merge({}, 0, TestInfo).isBottom());
}

TEST(HbMergeTest, StaleInputsCountAsBottom) {
  HbGraph G;
  Step Dead = G.allocNode(0, 0, true);
  G.finishNode(Dead.slot());
  EXPECT_TRUE(G.merge({Dead}, 0, TestInfo).isBottom());
}

TEST(HbMergeTest, FinishedDominatorIsReused) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step B = G.allocNode(1, 0, true);
  G.addEdge(A, B, TestInfo, nullptr);
  G.finishNode(B.slot()); // B finished but pinned alive by A's edge... no:
  // B has an incoming edge, so it survives collection; it is a valid
  // representative because it is finished and A happens-before it.
  uint64_t AllocBefore = G.nodesAllocated();
  Step M = G.merge({A, B}, 2, TestInfo);
  EXPECT_EQ(M.slot(), B.slot()) << "B dominates A and is finished";
  EXPECT_EQ(G.nodesAllocated(), AllocBefore) << "no fresh node";
  EXPECT_EQ(G.nodesMerged(), 1u);
}

TEST(HbMergeTest, ActiveDominatorIsNotReused) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step B = G.allocNode(1, 0, true); // still open
  G.addEdge(A, B, TestInfo, nullptr);
  uint64_t AllocBefore = G.nodesAllocated();
  Step M = G.merge({A, B}, 2, TestInfo);
  EXPECT_NE(M.slot(), B.slot())
      << "an open transaction may still conflict after the unary op";
  EXPECT_EQ(G.nodesAllocated(), AllocBefore + 1) << "fresh node instead";
  // The fresh node happens-after both inputs.
  EXPECT_TRUE(G.happensBeforeEq(A.slot(), M.slot()));
  EXPECT_TRUE(G.happensBeforeEq(B.slot(), M.slot()));
}

TEST(HbMergeTest, IncomparableInputsGetFreshJoinNode) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step B = G.allocNode(1, 0, true);
  G.finishNode(A.slot()); // hmm: no edges, so A is collected outright.
  // Rebuild: two finished-but-alive incomparable nodes require incoming
  // edges to stay alive.
  Step P = G.allocNode(2, 0, true);
  Step X = G.allocNode(3, 0, true);
  Step Y = G.allocNode(4, 0, true);
  G.addEdge(P, X, TestInfo, nullptr);
  G.addEdge(P, Y, TestInfo, nullptr);
  G.finishNode(X.slot());
  G.finishNode(Y.slot());
  ASSERT_TRUE(G.isLive(X));
  ASSERT_TRUE(G.isLive(Y));

  Step M = G.merge({X, Y}, 5, TestInfo);
  EXPECT_NE(M.slot(), X.slot());
  EXPECT_NE(M.slot(), Y.slot());
  EXPECT_TRUE(G.happensBeforeEq(X.slot(), M.slot()));
  EXPECT_TRUE(G.happensBeforeEq(Y.slot(), M.slot()));
  (void)A;
  (void)B;
}

TEST(HbMergeTest, FreshNodeDrawsAnEdgeFromEveryLiveInput) {
  // merge() walks its resolved input list while addEdge() runs for the
  // fresh node. If the two shared a buffer, addEdge()'s worklist would
  // clobber the list after the first edge.
  HbGraph G;
  Step P = G.allocNode(0, 0, true);
  Step X = G.allocNode(1, 0, true);
  Step Y = G.allocNode(2, 0, true); // stays open
  Step Q = G.allocNode(3, 0, true);
  Step Z = G.allocNode(4, 0, true); // stays open
  G.addEdge(P, X, TestInfo, nullptr);
  G.addEdge(Q, Z, TestInfo, nullptr);
  G.finishNode(X.slot()); // finished, but no representative: Y, Z are open
  Step Z2 = G.tick(Z);

  uint64_t Edges = G.edgesAdded(), Allocated = G.nodesAllocated();
  Step M = G.merge({X, Step::bottom(), Y, Z, Z2}, 5, TestInfo);
  ASSERT_FALSE(M.isBottom());
  EXPECT_EQ(G.nodesAllocated(), Allocated + 1) << "fresh node";
  EXPECT_EQ(G.edgesAdded(), Edges + 3) << "one edge per live input slot";
  for (Step S : {P, X, Y, Q, Z})
    EXPECT_TRUE(G.happensBeforeEq(S.slot(), M.slot()));
  EXPECT_FALSE(G.isActive(M.slot()));
  EXPECT_EQ(G.ownerOf(M.slot()), 5u);
  EXPECT_EQ(G.rootOf(M.slot()), NoLabel);
}

TEST(HbMergeTest, MergeNodeIsBornFinishedAndCollectable) {
  HbGraph G;
  Step P = G.allocNode(0, 0, true);
  Step X = G.allocNode(1, 0, true);
  Step Y = G.allocNode(2, 0, true);
  G.addEdge(P, X, TestInfo, nullptr);
  G.addEdge(P, Y, TestInfo, nullptr);
  G.finishNode(X.slot());
  G.finishNode(Y.slot());
  Step M = G.merge({X, Y}, 3, TestInfo);
  ASSERT_TRUE(G.isLive(M));
  // When P finishes, the entire structure P -> {X, Y} -> M cascades away.
  G.finishNode(P.slot());
  EXPECT_EQ(G.nodesAlive(), 0u);
  EXPECT_FALSE(G.isLive(M));
}

TEST(HbGraphTest, ClearResetsEverything) {
  HbGraph G;
  Step A = G.allocNode(0, 0, true);
  Step B = G.allocNode(1, 0, true);
  G.addEdge(A, B, TestInfo, nullptr);
  G.clear();
  EXPECT_EQ(G.nodesAllocated(), 0u);
  EXPECT_EQ(G.nodesAlive(), 0u);
  EXPECT_EQ(G.edgesAdded(), 0u);
  Step C = G.allocNode(0, 0, true);
  EXPECT_TRUE(G.isLive(C));
}

// Stress: many transactions with contention; the graph must stay bounded
// and every slot must be recycled cleanly.
TEST(HbGraphStress, SustainedChurnKeepsGraphTiny) {
  HbGraph G;
  // Simulated W(x) for a single variable shared by 4 "threads".
  Step LastWrite = Step::bottom();
  std::vector<Step> Open; // one open transaction per thread
  for (int T = 0; T < 4; ++T)
    Open.push_back(G.allocNode(static_cast<Tid>(T), 0, true));

  for (int Round = 0; Round < 20000; ++Round) {
    int T = Round % 4;
    // write inside the open transaction
    Step S = G.tick(Open[T]);
    G.addEdge(LastWrite, S, TestInfo, nullptr);
    LastWrite = S;
    // close and reopen the transaction
    G.finishNode(Open[T].slot());
    Open[T] = G.allocNode(static_cast<Tid>(T), 0, true);
  }
  EXPECT_EQ(G.nodesAllocated(), 4u + 20000u);
  EXPECT_LE(G.maxNodesAlive(), 12u);
  for (Step S : Open)
    G.finishNode(S.slot());
  EXPECT_EQ(G.nodesAlive(), 0u);
}

} // namespace
} // namespace velo
