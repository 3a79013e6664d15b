//===- tests/AllocationTest.cpp - Heap allocations per event --------------===//
//
// Counts every global operator new while a serializable workload trace
// streams through the strict sanitizer and Velodrome one event at a time,
// the per-event path velodrome-check runs. Once warm (after the first 10%
// of the events) that path may allocate at most once per 100 events: the
// id-indexed state tables, the graph's recycled slots and every scratch
// buffer have reached their working size by then, and a serializable trace
// produces no cycle reports.
//
// The counting operator new replaces the global one for this test binary
// only, which is why the test has a binary of its own.
//
//===----------------------------------------------------------------------===//

#include "analysis/TraceRecorder.h"
#include "core/Velodrome.h"
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

TEST(AllocationTest, WarmPerEventPathAllocatesAlmostNothing) {
  Trace T = recordRaja();
  ASSERT_GE(T.size(), 30000u);

  TraceSanitizer San(SanitizeMode::Strict);
  Velodrome Velo;
  Velo.beginAnalysis(T.symbols());
  std::vector<Event> Out;
  Out.reserve(16);
  size_t Warm = T.size() / 10;
  uint64_t AtWarm = 0;
  for (size_t I = 0; I < T.size(); ++I) {
    if (I == Warm)
      AtWarm = Allocations.load(std::memory_order_relaxed);
    Out.clear();
    ASSERT_TRUE(San.push(T[I], Out));
    for (const Event &E : Out)
      Velo.onEvent(E);
  }
  uint64_t Count = Allocations.load(std::memory_order_relaxed) - AtWarm;
  Velo.endAnalysis();
  ASSERT_FALSE(Velo.sawViolation()) << "raja is serializable";

  double PerEvent = double(Count) / double(T.size() - Warm);
  RecordProperty("allocations_per_event", std::to_string(PerEvent));
  EXPECT_LE(PerEvent, 0.01) << Count << " allocations over "
                            << T.size() - Warm << " warm events";
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
