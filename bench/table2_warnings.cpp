//===- bench/table2_warnings.cpp - Table 2: warning counts ----------------===//
//
// Regenerates the paper's Table 2: per benchmark, distinct warnings over
// five runs for the Atomizer and for Velodrome, classified against each
// workload's ground-truth inventory of non-atomic methods:
//
//   Atomizer Non-Serial   flagged methods that are genuinely non-atomic
//   Atomizer False Alarms flagged methods that are in fact atomic
//   Velodrome Non-Serial  methods blamed by resolved increasing cycles
//   Velodrome False Alarms  must be zero (soundness + completeness)
//   Missed                genuinely non-atomic methods the Atomizer flagged
//                         but Velodrome never witnessed (no generalization)
//
// Both tools replay the *identical* recorded trace per (benchmark, seed),
// exactly as RoadRunner feeds one event stream to every back-end.
//
// Expected shape (paper): Atomizer 154 non-serial + 84 false alarms;
// Velodrome 133 non-serial, 0 false alarms, 21 missed (~85% recall).
//
// Usage: table2_warnings [runs] [scale]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/TraceRecorder.h"
#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <set>
#include <string>

using namespace velo;
using namespace velo::bench;

int main(int argc, char **argv) {
  int Runs = 5, Scale = 4;
  parseArgsOrExit(argc, argv, "table2_warnings",
                  {{"runs", Runs}, {"scale", Scale}});

  std::printf("Table 2: distinct warnings over %d runs per benchmark "
              "(all methods assumed atomic)\n\n",
              Runs);

  TablePrinter Table({"Program", "Atom:NonSer", "Atom:FalseAlarm",
                      "Velo:NonSer", "Velo:FalseAlarm", "Missed"});

  int TotAtomTrue = 0, TotAtomFalse = 0, TotVeloTrue = 0, TotVeloFalse = 0,
      TotMissed = 0, TotUnresolved = 0;

  for (const auto &W : makeAllWorkloads()) {
    W->Scale = Scale;
    std::set<std::string> Truth = truthSet(*W);

    std::set<std::string> AtomFlagged, VeloFlagged;
    int Unresolved = 0;

    for (int Run = 0; Run < Runs; ++Run) {
      uint64_t Seed = static_cast<uint64_t>(Run) * 101 + 7;
      TraceRecorder Rec;
      {
        RuntimeOptions Opts;
        Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
        Opts.SchedulerSeed = Seed;
        Opts.WorkloadSeed = Seed + 1;
        Runtime RT(Opts, {&Rec});
        W->run(RT);
      }
      Trace T = Rec.takeTrace();

      Atomizer Atom;
      VelodromeOptions VOpts;
      VOpts.EmitDot = false;
      Velodrome Velo(VOpts);
      replayAll(T, {&Atom, &Velo});

      for (const Warning &Warn : Atom.warnings())
        if (Warn.Method != NoLabel)
          AtomFlagged.insert(T.symbols().labelName(Warn.Method));
      for (const AtomicityViolation &V : Velo.violations()) {
        if (V.BlameResolved && V.Method != NoLabel)
          VeloFlagged.insert(T.symbols().labelName(V.Method));
        else
          ++Unresolved;
      }
    }

    int AtomTrue = 0, AtomFalse = 0, VeloTrue = 0, VeloFalse = 0;
    for (const std::string &M : AtomFlagged)
      Truth.count(M) ? ++AtomTrue : ++AtomFalse;
    for (const std::string &M : VeloFlagged)
      Truth.count(M) ? ++VeloTrue : ++VeloFalse;
    int Missed = 0;
    for (const std::string &M : AtomFlagged)
      if (Truth.count(M) && !VeloFlagged.count(M))
        ++Missed;

    Table.startRow();
    Table.cell(std::string(W->name()));
    Table.cell(static_cast<int64_t>(AtomTrue));
    Table.cell(static_cast<int64_t>(AtomFalse));
    Table.cell(static_cast<int64_t>(VeloTrue));
    Table.cell(static_cast<int64_t>(VeloFalse));
    Table.cell(static_cast<int64_t>(Missed));

    TotAtomTrue += AtomTrue;
    TotAtomFalse += AtomFalse;
    TotVeloTrue += VeloTrue;
    TotVeloFalse += VeloFalse;
    TotMissed += Missed;
    TotUnresolved += Unresolved;
  }

  Table.startRow();
  Table.cell(std::string("Total"));
  Table.cell(static_cast<int64_t>(TotAtomTrue));
  Table.cell(static_cast<int64_t>(TotAtomFalse));
  Table.cell(static_cast<int64_t>(TotVeloTrue));
  Table.cell(static_cast<int64_t>(TotVeloFalse));
  Table.cell(static_cast<int64_t>(TotMissed));

  std::printf("%s\n", Table.str().c_str());
  std::printf("velodrome warnings with unresolved blame (reported but not "
              "method-attributed): %d\n",
              TotUnresolved);
  double FalseRate =
      TotAtomTrue + TotAtomFalse
          ? 100.0 * TotAtomFalse / (TotAtomTrue + TotAtomFalse)
          : 0.0;
  double Recall = TotAtomTrue
                      ? 100.0 * (TotAtomTrue - TotMissed) / TotAtomTrue
                      : 100.0;
  std::printf("\nAtomizer false-alarm rate: %.0f%%   Velodrome false "
              "alarms: %d   Velodrome recall vs Atomizer-true: %.0f%%\n",
              FalseRate, TotVeloFalse, Recall);
  std::printf("paper's shape: ~40%% Atomizer false alarms, zero Velodrome "
              "false alarms, ~85%% recall.\n");
  return TotVeloFalse == 0 ? 0 : 1;
}
