//===- bench/core_sensitivity.cpp - Warning stability across schedulers ---===//
//
// Section 6 remarks: "Interestingly, the number of warnings produced was
// fairly uniform when these experiments were repeated using only a single
// core, despite Velodrome being more sensitive to scheduling than other
// tools." This bench reproduces the comparison: per benchmark, the distinct
// ground-truth methods Velodrome witnesses under the deterministic
// cooperative scheduler (one runnable thread — the single-core analogue)
// versus free-running preemptive execution (the multicore analogue), each
// over the same number of runs.
//
// Usage: core_sensitivity [runs] [scale]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Velodrome.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <set>
#include <string>

using namespace velo;
using namespace velo::bench;

namespace {

std::set<std::string> found(const Workload &W, int Runs,
                            RuntimeOptions::Mode Mode) {
  std::set<std::string> Out;
  for (int R = 0; R < Runs; ++R) {
    RuntimeOptions Opts;
    Opts.ExecMode = Mode;
    // Emulate fine preemption for the preemptive variant: on a single-core
    // host, short runs would otherwise execute nearly serially.
    Opts.PreemptEveryN = 8;
    Opts.SchedulerSeed = static_cast<uint64_t>(R) * 19 + 1;
    Opts.WorkloadSeed = static_cast<uint64_t>(R) * 23 + 5;
    VelodromeOptions VOpts;
    VOpts.EmitDot = false;
    Velodrome V(VOpts);
    Runtime RT(Opts, {&V});
    W.run(RT);
    for (const AtomicityViolation &Violation : V.violations())
      if (Violation.Method != NoLabel)
        Out.insert(RT.symbols().labelName(Violation.Method));
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  int Runs = 5, Scale = 4;
  parseArgsOrExit(argc, argv, "core_sensitivity",
                  {{"runs", Runs}, {"scale", Scale}});

  std::printf("Warning stability, single-core-style vs. multicore-style "
              "execution\n(%d runs each; distinct ground-truth methods "
              "witnessed by Velodrome)\n\n",
              Runs);

  TablePrinter Table({"Program", "Truth", "Deterministic", "FreeRunning"});
  size_t TotTruth = 0, TotDet = 0, TotFree = 0;
  for (const auto &W : makeAllWorkloads()) {
    W->Scale = Scale;
    std::set<std::string> Truth = truthSet(*W);
    auto Hits = [&](const std::set<std::string> &Found) {
      size_t N = 0;
      for (const std::string &M : Found)
        N += Truth.count(M);
      return N;
    };
    size_t Det = Hits(found(*W, Runs, RuntimeOptions::Mode::Deterministic));
    size_t Free = Hits(found(*W, Runs, RuntimeOptions::Mode::FreeRunning));
    Table.startRow();
    Table.cell(std::string(W->name()));
    Table.cell(static_cast<uint64_t>(Truth.size()));
    Table.cell(static_cast<uint64_t>(Det));
    Table.cell(static_cast<uint64_t>(Free));
    TotTruth += Truth.size();
    TotDet += Det;
    TotFree += Free;
  }
  Table.startRow();
  Table.cell(std::string("Total"));
  Table.cell(static_cast<uint64_t>(TotTruth));
  Table.cell(static_cast<uint64_t>(TotDet));
  Table.cell(static_cast<uint64_t>(TotFree));

  std::printf("%s\n", Table.str().c_str());
  std::printf("paper's observation: counts stay fairly uniform across core "
              "configurations.\n");
  return 0;
}
