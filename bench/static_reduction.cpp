//===- bench/static_reduction.cpp - Static reduction speedup benchmark ----===//
//
// Measures the end-to-end payoff of the static pass pipeline
// (docs/STATIC.md) on a thread-local-heavy workload, the population the
// escape pass targets: each thread runs transactions over its own
// accumulator variables and only occasionally touches guarded shared
// state. Times a full Velodrome replay of the raw trace against the whole
// reduced pipeline — classify + plan + reduce + replay — so the classifier
// sweep is charged to the reduction, and reports per-pass dropped-event
// counts and the speedup.
//
//   static_reduction [options]    (`static_reduction --help` lists them)
//
// --check exits 1 unless the verdicts match and the end-to-end speedup is
// at least 2x (the acceptance bar for the reduction work); CI runs it on
// every PR.
//
//===----------------------------------------------------------------------===//

#include "core/Velodrome.h"
#include "staticpass/StaticPipeline.h"
#include "support/Flags.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <string>

using namespace velo;

namespace {

/// A thread-local-heavy trace: Threads threads hammering per-thread
/// accumulators (reads and writes) outside any atomic block — the way an
/// access-instrumented program looks when only the shared-state methods
/// are annotated — with every 16th round entering a transaction that
/// updates one lock-guarded shared counter. Roughly NumEvents events
/// total.
Trace makeWorkload(uint64_t NumEvents, uint32_t Threads) {
  Trace T;
  Label Work = T.symbols().Labels.intern("Worker.flush");
  LockId Mu = T.symbols().Locks.intern("mu");
  VarId Shared = T.symbols().Vars.intern("total");
  std::vector<VarId> Local;
  for (uint32_t I = 0; I < Threads; ++I)
    Local.push_back(T.symbols().Vars.intern("acc" + std::to_string(I)));

  // Rounds are round-robined over threads so runs of thread-local work
  // interleave the way a real schedule does.
  uint64_t Round = 0;
  while (T.size() < NumEvents) {
    for (uint32_t Th = 0; Th < Threads; ++Th) {
      T.push(Event::write(Th, Local[Th]));
      for (int I = 0; I < 14; ++I)
        T.push(Event::read(Th, Local[Th]));
      if (Round % 16 == 0) {
        T.push(Event::begin(Th, Work));
        T.push(Event::acquire(Th, Mu));
        T.push(Event::read(Th, Shared));
        T.push(Event::write(Th, Shared));
        T.push(Event::release(Th, Mu));
        T.push(Event::end(Th));
      }
    }
    ++Round;
  }
  return T;
}

double replaySeconds(const Trace &T, unsigned Reps, bool &ViolationOut) {
  double Best = 1e30;
  for (unsigned R = 0; R < Reps; ++R) {
    Velodrome V;
    Stopwatch Timer;
    replay(T, V);
    double S = Timer.seconds();
    if (S < Best)
      Best = S;
    ViolationOut = V.sawViolation();
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t NumEvents = 2'000'000;
  uint32_t Threads = 4;
  unsigned Reps = 3;
  bool Check = false;
  const FlagTable Table{
      "static_reduction [options]",
      {u64Flag("--events=N", NumEvents, "approximate trace length "
                                        "(default 2000000)"),
       u64Flag("--threads=N", Threads, "threads (default 4)", 1),
       u64Flag("--reps=N", Reps, "timing repetitions, best-of (default 3)",
               1),
       boolFlag("--check", Check,
                "gate: identical verdicts and an end-to-end speedup >= 2x")},
      "exit: 0 ok, 1 the --check gate missed, 2 usage error\n"};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(argc, argv, Operands); Rc >= 0)
    return Rc;

  Trace T = makeWorkload(NumEvents, Threads);
  std::printf("workload: %zu events, %u threads (thread-local heavy)\n",
              T.size(), Threads);

  bool FullViolation = false;
  double FullSec = replaySeconds(T, Reps, FullViolation);

  // End-to-end reduced pipeline, all phases inside the timed region.
  double ReducedSec = 1e30;
  double PlanSec = 0, FilterSec = 0, ReplaySec = 0;
  bool ReducedViolation = false;
  PassStats Stats;
  for (unsigned R = 0; R < Reps; ++R) {
    Stopwatch Timer;
    ReductionPlan Plan = planTrace(T, PassMask::all());
    double AfterPlan = Timer.seconds();
    PassStats S;
    Trace Reduced = reduceTrace(T, Plan, &S);
    double AfterFilter = Timer.seconds();
    Velodrome V;
    replay(Reduced, V);
    double Sec = Timer.seconds();
    if (Sec < ReducedSec) {
      ReducedSec = Sec;
      PlanSec = AfterPlan;
      FilterSec = AfterFilter - AfterPlan;
      ReplaySec = Sec - AfterFilter;
    }
    ReducedViolation = V.sawViolation();
    Stats = S;
  }

  double Speedup = FullSec > 0 ? FullSec / ReducedSec : 0;
  std::printf("full replay:     %8.3f s  (%s)\n", FullSec,
              FullViolation ? "violation" : "serializable");
  std::printf("reduced pipeline:%8.3f s  (%s)  [classify %.3f + reduce "
              "%.3f + replay %.3f]\n",
              ReducedSec, ReducedViolation ? "violation" : "serializable",
              PlanSec, FilterSec, ReplaySec);
  std::printf("reduction: %s (%.1f%% dropped)\n", Stats.summary().c_str(),
              Stats.Input ? 100.0 * static_cast<double>(Stats.droppedTotal())
                                / static_cast<double>(Stats.Input)
                          : 0.0);
  std::printf("speedup: %.2fx\n", Speedup);

  if (Check) {
    if (FullViolation != ReducedViolation) {
      std::fprintf(stderr, "FAIL: reduction changed the verdict\n");
      return 1;
    }
    if (Speedup < 2.0) {
      std::fprintf(stderr, "FAIL: end-to-end speedup %.2fx below the 2x "
                           "acceptance bar\n",
                   Speedup);
      return 1;
    }
    std::printf("check passed: verdict preserved, speedup >= 2x\n");
  }
  return 0;
}
