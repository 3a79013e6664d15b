//===- bench/vc_vs_graph.cpp - Vector-clock vs graph-checker throughput ---===//
//
// Replay throughput of the two atomicity-checker implementations on
// identical recorded traces: EmptyBackend (event-dispatch floor), the
// AeroDrome vector-clock back-end, and Velodrome's happens-before graph.
// Traces come from the benchmark workloads so the event mix (transaction
// sizes, lock density, sharing pattern) is realistic rather than synthetic.
//
// Expected shape: Empty >> AeroDrome >= Velodrome in events/sec — the
// vector-clock algorithm does O(#threads) work per event with no graph
// traversal, while Velodrome pays for node management and cycle checks.
// Both must report the same verdict on every trace (the differential suite
// enforces this; the column here is a visible cross-check).
//
// A second table times every back-end on synthetic streams swept across
// shapes (thread count, guarded fraction): the microscopic version of
// Table 1's slowdown columns, where Empty < Eraser <= HB <= Atomizer <=
// Velodrome in per-event cost should hold, with Velodrome within a small
// factor of the incomplete tools.
//
// Usage: vc_vs_graph [scale] [reps]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aero/AeroDrome.h"
#include "analysis/EmptyBackend.h"
#include "analysis/TraceRecorder.h"
#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "eraser/Eraser.h"
#include "events/TraceGen.h"
#include "hbrace/HbRaceDetector.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstdlib>

using namespace velo;
using namespace velo::bench;

namespace {

/// Record one deterministic execution of workload Name at Scale.
Trace recordTrace(const char *Name, int Scale) {
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", Name);
    std::exit(1);
  }
  W->Scale = Scale;
  RuntimeOptions Opts;
  Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
  Opts.SchedulerSeed = 1;
  Opts.WorkloadSeed = 8;
  TraceRecorder Rec;
  Runtime RT(Opts, {&Rec});
  W->run(RT);
  return Rec.takeTrace();
}

/// Minimum-over-reps replay rate of B on T, in events per second.
double replayRate(const Trace &T, Backend &B, int Reps) {
  double Secs = minSeconds(Reps, [&] {
    B.resetReports();
    replay(T, B);
  });
  return Secs > 0 ? static_cast<double>(T.size()) / Secs : 0;
}

} // namespace

int main(int argc, char **argv) {
  int Scale = 40, Reps = 5;
  parseArgsOrExit(argc, argv, "vc_vs_graph",
                  {{"scale", Scale}, {"reps", Reps}});

  std::printf("Replay throughput: vector-clock vs graph checker\n");
  std::printf("(scale=%d, reps=%d; rates are events/sec, minimum-time rep; "
              "speedup = AeroDrome / Velodrome)\n\n",
              Scale, Reps);

  TablePrinter Table({"Trace", "Events", "Empty/s", "Aero/s", "Velo/s",
                      "Speedup", "Verdicts"});

  for (const char *Name :
       {"multiset", "tsp", "philo", "elevator", "montecarlo"}) {
    Trace T = recordTrace(Name, Scale);

    EmptyBackend Empty;
    AeroDrome Aero;
    Velodrome Velo;
    double EmptyRate = replayRate(T, Empty, Reps);
    double AeroRate = replayRate(T, Aero, Reps);
    double VeloRate = replayRate(T, Velo, Reps);

    std::string Verdicts =
        std::string(Aero.sawViolation() ? "viol" : "ok") + "/" +
        (Velo.sawViolation() ? "viol" : "ok") +
        (Aero.sawViolation() != Velo.sawViolation() ? " MISMATCH" : "");

    Table.startRow();
    Table.cell(std::string(Name));
    Table.cell(static_cast<uint64_t>(T.size()));
    Table.cell(EmptyRate, 0);
    Table.cell(AeroRate, 0);
    Table.cell(VeloRate, 0);
    Table.cell(VeloRate > 0 ? AeroRate / VeloRate : 0, 2);
    Table.cell(Verdicts);
  }

  std::printf("%s\n", Table.str().c_str());

  // Shapes {threads, guarded%}: 85% approximates well-synchronized
  // programs; 0% maximizes conflict-edge traffic.
  const size_t Steps = 5000 * static_cast<size_t>(Scale);
  std::printf("Per-back-end replay rate on synthetic streams (%zu steps; "
              "events/sec, minimum-time rep)\n\n",
              Steps);
  TablePrinter Sweep({"Threads/Guarded", "Empty/s", "Eraser/s", "HB/s",
                      "Atomizer/s", "Velo/s", "NoMerge/s"});
  const std::pair<uint32_t, unsigned> Shapes[] = {
      {2, 85}, {4, 85}, {8, 85}, {4, 0}, {4, 40}};
  for (auto [Threads, Guarded] : Shapes) {
    TraceGenOptions Gen;
    Gen.Threads = Threads;
    Gen.Vars = 16;
    Gen.Locks = 8;
    Gen.Steps = Steps;
    Gen.GuardedAccessPct = Guarded;
    Trace T = generateRandomTrace(0x5eedULL + Threads * 131 + Guarded, Gen);
    VelodromeOptions NoMergeOpts;
    NoMergeOpts.UseMerge = false;
    NoMergeOpts.EmitDot = false;
    EmptyBackend Empty;
    Eraser Race;
    HbRaceDetector Hb;
    Atomizer Atom;
    Velodrome Velo, NoMerge(NoMergeOpts);
    Sweep.startRow();
    Sweep.cell(std::to_string(Threads) + "/" + std::to_string(Guarded) + "%");
    for (Backend *B : std::initializer_list<Backend *>{
             &Empty, &Race, &Hb, &Atom, &Velo, &NoMerge})
      Sweep.cell(replayRate(T, *B, Reps), 0);
  }
  std::printf("%s\n", Sweep.str().c_str());
  return 0;
}
