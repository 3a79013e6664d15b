//===- tests/AllocationTest.cpp - Heap allocations per event --------------===//
//
// Counts every global operator new while a trace streams through the
// strict sanitizer and a checker one event at a time, the per-event path
// velodrome-check runs. Once warm (after the first 10% of the events) that
// path may allocate at most once per 100 events: the id-indexed state
// tables, Velodrome's recycled graph slots, AeroDrome's clock pool and
// every scratch buffer have reached their working size by then. Velodrome
// runs on a serializable workload recording, which produces no cycle
// reports; AeroDrome also runs on a contended generated stream, whose
// reports are deduplicated by method after the first few.
//
// The counting operator new replaces the global one for this test binary
// only, which is why the test has a binary of its own.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "analysis/TraceRecorder.h"
#include "core/Velodrome.h"
#include "events/TraceGen.h"
#include "events/TraceSanitizer.h"
#include "rt/Runtime.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};
} // namespace

// Out of line, so that the compiler never sees an inlined free() meet a
// new-expression's pointer (GCC's -Wmismatched-new-delete).
[[gnu::noinline]] void *operator new(std::size_t N) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

namespace velo {
namespace {

/// raja at --scale=200 --seed=1, recorded in-process exactly as
/// velodrome-run records it.
Trace recordRaja() {
  std::unique_ptr<Workload> W = makeWorkload("raja");
  W->Scale = 200;
  RuntimeOptions Opts;
  Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
  Opts.SchedulerSeed = 1;
  Opts.WorkloadSeed = 1 * 11 + 3;
  TraceRecorder Rec;
  Runtime RT(Opts, {&Rec});
  W->run(RT);
  return Rec.trace();
}

/// velobench's contended-text shape (8 threads, 64 variables, 8 locks,
/// 60% guarded accesses): closed chunks of seed 1, about 200k events.
Trace contendedStream() {
  TraceGenOptions G;
  G.Threads = 8;
  G.Vars = 64;
  G.Locks = 8;
  G.Steps = 20000;
  G.GuardedAccessPct = 60;
  Trace T;
  for (uint64_t Chunk = 0; T.size() < 200000; ++Chunk) {
    Trace Part = generateClosedChunk(1, Chunk, G);
    if (Chunk == 0)
      T.symbols() = Part.symbols();
    for (const Event &E : Part)
      T.push(E);
  }
  return T;
}

/// Stream T through the strict sanitizer into B and return B's heap
/// allocations per event after the first 10% of the events.
double warmAllocationsPerEvent(const Trace &T, Backend &B) {
  TraceSanitizer San(SanitizeMode::Strict);
  B.beginAnalysis(T.symbols());
  std::vector<Event> Out;
  Out.reserve(16);
  size_t Warm = T.size() / 10;
  uint64_t AtWarm = 0;
  for (size_t I = 0; I < T.size(); ++I) {
    if (I == Warm)
      AtWarm = Allocations.load(std::memory_order_relaxed);
    Out.clear();
    EXPECT_TRUE(San.push(T[I], Out)) << "event " << I;
    for (const Event &E : Out)
      B.onEvent(E);
  }
  uint64_t Count = Allocations.load(std::memory_order_relaxed) - AtWarm;
  B.endAnalysis();
  return double(Count) / double(T.size() - Warm);
}

TEST(AllocationTest, WarmPerEventPathAllocatesAlmostNothing) {
  Trace T = recordRaja();
  ASSERT_GE(T.size(), 30000u);
  Velodrome Velo;
  double PerEvent = warmAllocationsPerEvent(T, Velo);
  ASSERT_FALSE(Velo.sawViolation()) << "raja is serializable";
  RecordProperty("allocations_per_event", std::to_string(PerEvent));
  EXPECT_LE(PerEvent, 0.01);
}

TEST(AllocationTest, AeroDromeWarmPathAllocatesAlmostNothing) {
  struct Input {
    const char *Name;
    Trace T;
  };
  Input Inputs[] = {{"raja", recordRaja()}, {"contended", contendedStream()}};
  for (const Input &In : Inputs) {
    AeroDrome Aero;
    double PerEvent = warmAllocationsPerEvent(In.T, Aero);
    RecordProperty(std::string(In.Name) + "_allocations_per_event",
                   std::to_string(PerEvent));
    EXPECT_LE(PerEvent, 0.01) << In.Name;
  }
}

/// The Deterministic scheduler's side of the same bound: four monitored
/// threads yield 100k times between them with no back-end attached, so
/// every allocation counted is the scheduler's own. Each yield is one
/// scheduling decision; the first 10% warm it up.
TEST(AllocationTest, SchedulingDecisionsAllocateAlmostNothing) {
  constexpr uint64_t Yields = 100000, Warm = Yields / 10;
  RuntimeOptions Opts;
  Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
  Runtime RT(Opts, {});
  uint64_t Done = 0, AtWarm = 0, AtEnd = 0;
  RT.run([&](MonitoredThread &T0) {
    auto Body = [&](MonitoredThread &T) {
      for (uint64_t I = 0; I < Yields / 4; ++I) {
        T.yield();
        if (++Done == Warm)
          AtWarm = Allocations.load(std::memory_order_relaxed);
        else if (Done == Yields)
          AtEnd = Allocations.load(std::memory_order_relaxed);
      }
    };
    Tid Kids[] = {T0.fork(Body), T0.fork(Body), T0.fork(Body)};
    Body(T0);
    for (Tid K : Kids)
      T0.join(K);
  });
  ASSERT_EQ(Done, Yields);
  double PerDecision = double(AtEnd - AtWarm) / double(Yields - Warm);
  RecordProperty("allocations_per_decision", std::to_string(PerDecision));
  EXPECT_LT(PerDecision, 0.01) << AtEnd - AtWarm << " allocations over "
                               << Yields - Warm << " warm decisions";
}

} // namespace
} // namespace velo
