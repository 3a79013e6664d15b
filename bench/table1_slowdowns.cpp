//===- bench/table1_slowdowns.cpp - Table 1 (left): analysis slowdowns ----===//
//
// Regenerates the left half of the paper's Table 1: per benchmark, the
// program size, the uninstrumented ("base") running time, and the slowdown
// when instrumented under each back-end — Empty (instrumentation overhead
// only), Eraser, Atomizer, and Velodrome (optimized, Figure 4 semantics).
//
// Methodology mirrors the paper's: the base run is the same program with
// event emission compiled out; each instrumented run feeds the back-end the
// full event stream. Threads run preemptively (FreeRunning mode) and events
// are linearized into the back-end, as RoadRunner does. Numbers are minima
// over repetitions.
//
// Expected shape (the claim under test): Empty < Eraser <= Atomizer, with
// Velodrome competitive with (typically within ~1.5x of) the Atomizer —
// completeness costs little (paper: compute-bound averages 9.3x / 10.4x /
// 12.7x for Eraser / Atomizer / Velodrome).
//
// Usage: table1_slowdowns [scale] [reps]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/EmptyBackend.h"
#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "eraser/Eraser.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace velo;
using namespace velo::bench;

namespace {

double timedRun(const Workload &W, RuntimeOptions::Mode Mode,
                Backend *B, int Reps) {
  return minSeconds(Reps, [&] {
    RuntimeOptions Opts;
    Opts.ExecMode = Mode;
    Opts.SchedulerSeed = 1;
    Opts.WorkloadSeed = 1;
    std::vector<Backend *> Backends;
    if (B)
      Backends.push_back(B);
    Runtime RT(Opts, Backends);
    // Paper methodology: methods already identified as non-atomic are not
    // checked (their blocks run non-transactionally), which increases
    // Velodrome's relative load — "many small transactions rather than a
    // few monolithic ones".
    for (const std::string &M : W.nonAtomicMethods())
      RT.excludeMethod(M);
    W.run(RT);
  });
}

} // namespace

int main(int argc, char **argv) {
  int Scale = 40, Reps = 3;
  parseArgsOrExit(argc, argv, "table1_slowdowns",
                  {{"scale", Scale}, {"reps", Reps}});

  std::printf("Table 1 (left): base time and per-back-end slowdowns\n");
  std::printf("(scale=%d, reps=%d; slowdown = instrumented / base)\n\n",
              Scale, Reps);

  TablePrinter Table({"Program", "Size(lines)", "Base(ms)", "Events",
                      "Empty", "Eraser", "Atomizer", "Velodrome"});

  double GeoEmpty = 0, GeoEraser = 0, GeoAtomizer = 0, GeoVelodrome = 0;
  int Counted = 0;

  for (const auto &W : makeAllWorkloads()) {
    W->Scale = Scale;

    double Base =
        timedRun(*W, RuntimeOptions::Mode::Baseline, nullptr, Reps);

    EmptyBackend Empty;
    double TEmpty =
        timedRun(*W, RuntimeOptions::Mode::FreeRunning, &Empty, Reps);
    Eraser Race;
    double TEraser =
        timedRun(*W, RuntimeOptions::Mode::FreeRunning, &Race, Reps);
    Atomizer Atom;
    double TAtomizer =
        timedRun(*W, RuntimeOptions::Mode::FreeRunning, &Atom, Reps);
    Velodrome Velo;
    double TVelodrome =
        timedRun(*W, RuntimeOptions::Mode::FreeRunning, &Velo, Reps);

    if (Base <= 0)
      Base = 1e-9;
    Table.startRow();
    Table.cell(std::string(W->name()));
    Table.cell(static_cast<uint64_t>(sourceLines(*W)));
    Table.cell(Base * 1e3, 2);
    Table.cell(TablePrinter::withCommas(Empty.eventCount()));
    Table.cell(TEmpty / Base, 1);
    Table.cell(TEraser / Base, 1);
    Table.cell(TAtomizer / Base, 1);
    Table.cell(TVelodrome / Base, 1);

    GeoEmpty += TEmpty / Base;
    GeoEraser += TEraser / Base;
    GeoAtomizer += TAtomizer / Base;
    GeoVelodrome += TVelodrome / Base;
    ++Counted;
  }

  std::printf("%s\n", Table.str().c_str());
  std::printf("arithmetic-mean slowdowns: Empty %.1f  Eraser %.1f  "
              "Atomizer %.1f  Velodrome %.1f\n",
              GeoEmpty / Counted, GeoEraser / Counted, GeoAtomizer / Counted,
              GeoVelodrome / Counted);
  std::printf("\npaper (compute-bound averages): Eraser 9.3x, Atomizer "
              "10.4x, Velodrome 12.7x —\nthe claim is the *ordering* and "
              "the small completeness premium, not absolutes.\n");
  return 0;
}
