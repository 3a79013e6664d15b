//===- tests/GovernorTest.cpp - Resource governor unit tests --------------===//
//
// The governor must degrade from the graph checker to the vector-clock
// fallback at the node/memory caps (keeping the verdict), stop at the event
// cap or deadline (Unknown unless a violation was already found), and never
// change a verdict relative to the ungoverned analyses.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "analysis/EmptyBackend.h"
#include "analysis/Governor.h"
#include "core/Velodrome.h"
#include "events/TraceGen.h"
#include "events/TraceText.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace velo {
namespace {

Trace parse(const std::string &Text) {
  Trace T;
  std::string Error;
  EXPECT_TRUE(parseTrace(Text, T, Error)) << Error;
  return T;
}

/// Non-serializable: T1's write splits T0's read-modify-write transaction.
const char *RmwViolation = "T0 begin update\n"
                           "T0 rd x\n"
                           "T1 begin clobber\n"
                           "T1 wr x\n"
                           "T1 end\n"
                           "T0 wr x\n"
                           "T0 end\n";

/// Serializable: both transactions guard x with m.
const char *CleanGuarded = "T0 begin a\nT0 acq m\nT0 wr x\nT0 rel m\nT0 end\n"
                           "T1 begin b\nT1 acq m\nT1 rd x\nT1 rel m\nT1 end\n";

/// Serializable, but four transactions are simultaneously in progress on
/// disjoint variables — at least four graph nodes stay live mid-trace, so
/// tiny node caps are guaranteed to trip (CleanGuarded is collected down to
/// a node or two as it goes and never would).
const char *WideOpen = "T0 begin a\nT0 wr a0\n"
                       "T1 begin b\nT1 wr b1\n"
                       "T2 begin c\nT2 wr c2\n"
                       "T3 begin d\nT3 wr d3\n"
                       "T0 end\nT1 end\nT2 end\nT3 end\n";

/// Probe reporting Velodrome's live happens-before-graph node count.
GovernedAnalysis::Probe veloProbe(Velodrome &V, uint64_t BytesPerNode = 0) {
  return [&V, BytesPerNode](uint64_t &Nodes, uint64_t &Bytes) {
    Nodes = V.graph().nodesAlive();
    Bytes = Nodes * BytesPerNode;
  };
}

TEST(GovernorTest, NoLimitsPassesThrough) {
  Velodrome Velo;
  GovernedAnalysis Gov(Velo, nullptr, GovernorLimits{});
  replay(parse(RmwViolation), Gov);
  EXPECT_EQ(Gov.state(), GovernorState::Normal);
  EXPECT_EQ(Gov.verdict(), GovernorVerdict::Violation);
  EXPECT_TRUE(Gov.breachReason().empty());

  Velodrome Velo2;
  GovernedAnalysis Gov2(Velo2, nullptr, GovernorLimits{});
  replay(parse(CleanGuarded), Gov2);
  EXPECT_EQ(Gov2.verdict(), GovernorVerdict::Serializable);
}

TEST(GovernorTest, EventCapWithoutFallbackIsUnknown) {
  Velodrome Velo;
  GovernorLimits Limits;
  Limits.MaxEvents = 3;
  GovernedAnalysis Gov(Velo, nullptr, Limits);
  replay(parse(CleanGuarded), Gov); // 10 events, cap at 3
  EXPECT_EQ(Gov.state(), GovernorState::Exhausted);
  EXPECT_EQ(Gov.verdict(), GovernorVerdict::Unknown);
  EXPECT_EQ(Gov.eventsDelivered(), 3u);
  EXPECT_FALSE(Gov.breachReason().empty());
}

TEST(GovernorTest, ViolationFoundBeforeCapSurvivesTruncation) {
  // The cycle completes on T0's write (event 6); capping right there must
  // still report Violation — a cycle on a prefix is a cycle of the trace.
  Velodrome Velo;
  GovernorLimits Limits;
  Limits.MaxEvents = 6;
  GovernedAnalysis Gov(Velo, nullptr, Limits);
  replay(parse(RmwViolation), Gov);
  EXPECT_EQ(Gov.state(), GovernorState::Exhausted);
  EXPECT_EQ(Gov.verdict(), GovernorVerdict::Violation);
}

TEST(GovernorTest, NodeCapDegradesToFallbackKeepingVerdict) {
  for (const char *Text : {RmwViolation, WideOpen}) {
    AeroDrome Reference;
    replay(parse(Text), Reference);

    Velodrome Velo;
    AeroDrome Fallback;
    GovernorLimits Limits;
    Limits.MaxLiveNodes = 1; // any real trace exceeds this immediately
    GovernedAnalysis Gov(Velo, &Fallback, Limits, veloProbe(Velo));
    replay(parse(Text), Gov);

    EXPECT_EQ(Gov.state(), GovernorState::Degraded) << Text;
    EXPECT_NE(Gov.breachReason().find("node"), std::string::npos)
        << Gov.breachReason();
    EXPECT_EQ(Gov.sawViolation(), Reference.sawViolation())
        << "degraded verdict must match the ungoverned fallback: " << Text;
  }
}

TEST(GovernorTest, ReferenceSeesEveryEventUntilNormalEnds) {
  const Trace T = parse(WideOpen); // 12 events
  // A scripted probe: the primary's event count stands in for live nodes,
  // so a 4-node cap trips on event 5.
  {
    EmptyBackend Primary, Fallback, Reference;
    GovernorLimits Limits;
    Limits.MaxLiveNodes = 4;
    GovernedAnalysis Gov(
        Primary, &Fallback, Limits,
        [&](uint64_t &Nodes, uint64_t &) { Nodes = Primary.eventCount(); },
        nullptr, &Reference);
    replay(T, Gov);
    EXPECT_EQ(Gov.state(), GovernorState::Degraded);
    EXPECT_TRUE(Gov.referenceStopped());
    EXPECT_EQ(Reference.eventCount(), 5u) << "the breaching event included";
    EXPECT_EQ(Fallback.eventCount(), 12u);
  }
  // The event budget refuses event 4; the reference still takes it.
  {
    EmptyBackend Primary, Reference;
    GovernorLimits Limits;
    Limits.MaxEvents = 3;
    GovernedAnalysis Gov(Primary, nullptr, Limits, nullptr, nullptr,
                         &Reference);
    replay(T, Gov);
    EXPECT_EQ(Gov.state(), GovernorState::Exhausted);
    EXPECT_EQ(Primary.eventCount(), 3u);
    EXPECT_EQ(Reference.eventCount(), 4u);
  }
  // Without a breach the reference sees the whole trace.
  {
    EmptyBackend Primary, Reference;
    GovernedAnalysis Gov(Primary, nullptr, GovernorLimits{}, nullptr, nullptr,
                         &Reference);
    replay(T, Gov);
    EXPECT_FALSE(Gov.referenceStopped());
    EXPECT_EQ(Reference.eventCount(), 12u);
  }
}

TEST(GovernorTest, NodeCapWithoutFallbackIsUnknown) {
  Velodrome Velo;
  GovernorLimits Limits;
  Limits.MaxLiveNodes = 1;
  GovernedAnalysis Gov(Velo, nullptr, Limits, veloProbe(Velo));
  replay(parse(WideOpen), Gov);
  EXPECT_EQ(Gov.state(), GovernorState::Exhausted);
  EXPECT_EQ(Gov.verdict(), GovernorVerdict::Unknown);
}

TEST(GovernorTest, MemoryCapDegradesLikeNodeCap) {
  Velodrome Velo;
  AeroDrome Fallback;
  GovernorLimits Limits;
  Limits.MaxMemoryBytes = 1; // 256 bytes/node estimate trips at once
  GovernedAnalysis Gov(Velo, &Fallback, Limits, veloProbe(Velo, 256));
  replay(parse(RmwViolation), Gov);
  EXPECT_EQ(Gov.state(), GovernorState::Degraded);
  EXPECT_EQ(Gov.verdict(), GovernorVerdict::Violation);
}

TEST(GovernorTest, LargeTraceUnderCapsCompletesWithoutAborting) {
  // A generated trace far past the caps: the governor must come back with
  // *some* verdict (never abort), and a Serializable verdict is only
  // allowed when analysis actually covered the whole trace.
  TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Steps = 5000;
  Trace T = generateRandomTrace(42, Opts);

  Velodrome Velo;
  AeroDrome Fallback;
  GovernorLimits Limits;
  Limits.MaxLiveNodes = 8;
  Limits.MaxEvents = 2000;
  Limits.DeadlineMillis = 60000;
  GovernedAnalysis Gov(Velo, &Fallback, Limits, veloProbe(Velo));
  replay(T, Gov);
  EXPECT_EQ(Gov.state(), GovernorState::Exhausted);
  EXPECT_EQ(Gov.eventsDelivered(), 2000u);
  EXPECT_NE(Gov.verdict(), GovernorVerdict::Serializable)
      << "a truncated clean run must not claim a full-trace verdict";
}

TEST(GovernorTest, DeadlineBudgetIsCumulativeAcrossSnapshot) {
  // The deadline is a budget for *analysis* wall time, cumulative across
  // evict/rehydrate: time already burned before the snapshot still counts
  // after the restore, while time the snapshot spends sitting evicted (or
  // on disk across a daemon crash) does not. Both directions matter to
  // velodrome-serve: an idle-evicted session must not time out while
  // parked, and a crash-looping one must not get a fresh budget per life.
  Trace T = parse(CleanGuarded); // 10 events, serializable
  GovernorLimits Limits;
  Limits.DeadlineMillis = 600;
  Limits.CheckIntervalEvents = 1; // probe the clock on every event

  Velodrome Velo;
  GovernedAnalysis Gov(Velo, nullptr, Limits, veloProbe(Velo));
  Gov.beginAnalysis(T.symbols());
  auto It = T.begin();
  for (int I = 0; I < 5; ++I, ++It)
    Gov.onEvent(*It);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Gov.onEvent(*It++); // ~200ms burned, under the 600ms budget
  ASSERT_EQ(Gov.state(), GovernorState::Normal);
  SnapshotWriter W;
  Gov.serialize(W);

  // Park the snapshot well past the whole deadline. If idle time counted,
  // the very first event after the restore would exhaust the governor.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));

  Velodrome Velo2;
  GovernedAnalysis Gov2(Velo2, nullptr, Limits, veloProbe(Velo2));
  Gov2.beginAnalysis(T.symbols());
  SnapshotReader R(W.payload());
  ASSERT_TRUE(Gov2.deserialize(R));
  Gov2.onEvent(*It++);
  EXPECT_EQ(Gov2.state(), GovernorState::Normal)
      << "idle time while evicted must not count against the deadline: "
      << Gov2.breachReason();

  // ...but the 200ms burned before the snapshot must still count: another
  // 500ms of active time crosses 600ms cumulative even though this
  // incarnation has been running well under the budget on its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  Gov2.onEvent(*It++);
  EXPECT_EQ(Gov2.state(), GovernorState::Exhausted)
      << "pre-snapshot time must carry into the restored budget";
  EXPECT_NE(Gov2.breachReason().find("deadline"), std::string::npos)
      << Gov2.breachReason();
}

} // namespace
} // namespace velo
