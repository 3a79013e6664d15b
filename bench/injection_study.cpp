//===- bench/injection_study.cpp - Section 6 defect-injection study -------===//
//
// Regenerates the paper's injection experiment: "we injected atomicity
// defects into two programs, elevator and colt, by systematically removing
// each synchronized statement that induced contention one at a time...
// Without scheduler adjustments, a single run by Velodrome found the
// inserted defect approximately 30% of the time. With scheduler
// adjustments, the success rate increased to approximately 70%."
//
// Each guard site is disabled one at a time; per corrupted variant we run
// Velodrome over several scheduler seeds, with and without Atomizer-guided
// adversarial scheduling, and count the runs in which the *injected* defect
// (a blamed method outside the uncorrupted ground truth) is witnessed.
//
// Usage: injection_study [trials] [scale]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "injection/Injection.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace velo;

int main(int argc, char **argv) {
  InjectionConfig Cfg;
  Cfg.TrialsPerSite = 20;
  Cfg.Scale = 2;
  bench::parseArgsOrExit(argc, argv, "injection_study",
                         {{"trials", Cfg.TrialsPerSite}, {"scale", Cfg.Scale}});

  std::printf("Defect-injection study (Section 6): per-run detection rate "
              "of an injected\nsynchronization defect, plain vs. "
              "Atomizer-guided adversarial scheduling\n(%d trials per "
              "corrupted variant, scale %d)\n\n",
              Cfg.TrialsPerSite, Cfg.Scale);

  TablePrinter Table(
      {"Program", "Removed guard", "Plain", "Adversarial"});

  int TotTrials = 0, TotPlain = 0, TotAdv = 0;
  for (const char *Name : {"elevator", "colt"}) {
    for (const InjectionOutcome &O : runInjectionStudy(Name, Cfg)) {
      Table.startRow();
      Table.cell(O.WorkloadName);
      Table.cell(O.Site);
      Table.cell(TablePrinter::fixed(100.0 * O.DetectedPlain / O.Trials, 0) +
                 "%");
      Table.cell(
          TablePrinter::fixed(100.0 * O.DetectedAdversarial / O.Trials, 0) +
          "%");
      TotTrials += O.Trials;
      TotPlain += O.DetectedPlain;
      TotAdv += O.DetectedAdversarial;
    }
  }

  std::printf("%s\n", Table.str().c_str());
  if (TotTrials) {
    std::printf("aggregate single-run detection: plain %.0f%%, adversarial "
                "%.0f%%\n",
                100.0 * TotPlain / TotTrials, 100.0 * TotAdv / TotTrials);
  }
  std::printf("paper: ~30%% plain -> ~70%% adversarial; the claim is the "
              "large coverage gain\nwith zero completeness loss (every "
              "detection is a real violation).\n");
  return 0;
}
