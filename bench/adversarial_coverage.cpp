//===- bench/adversarial_coverage.cpp - Section 6 adversarial extras ------===//
//
// Regenerates the paper's second adversarial-scheduling observation:
// "Velodrome found the second non-serial method in raytracer, as well as
// one additional non-serial method in colt and several more in jigsaw"
// once the Atomizer-guided scheduler was enabled.
//
// Per benchmark we count the distinct ground-truth methods Velodrome
// witnesses across N seeds, with and without adversarial scheduling, and
// list the methods found *only* with guidance.
//
// Usage: adversarial_coverage [seeds] [scale]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <set>
#include <string>

using namespace velo;
using namespace velo::bench;

namespace {

std::set<std::string> methodsFound(const Workload &W, int Seeds,
                                   bool Adversarial) {
  std::set<std::string> Found;
  for (int S = 0; S < Seeds; ++S) {
    RuntimeOptions Opts;
    Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
    Opts.SchedulerSeed = static_cast<uint64_t>(S) * 13 + 1;
    Opts.WorkloadSeed = static_cast<uint64_t>(S) * 17 + 3;
    Opts.Adversarial = Adversarial;
    Opts.AdversarialStall = 60;

    VelodromeOptions VOpts;
    VOpts.EmitDot = false;
    Velodrome Velo(VOpts);
    Atomizer Guide;
    Runtime RT(Opts, {&Guide, &Velo});
    if (Adversarial)
      RT.setGuide(&Guide);
    W.run(RT);
    for (const AtomicityViolation &V : Velo.violations())
      if (V.Method != NoLabel)
        Found.insert(RT.symbols().labelName(V.Method));
  }
  return Found;
}

} // namespace

int main(int argc, char **argv) {
  int Seeds = 10, Scale = 2;
  parseArgsOrExit(argc, argv, "adversarial_coverage",
                  {{"seeds", Seeds}, {"scale", Scale}});

  std::printf("Adversarial-scheduling coverage (Section 6): distinct "
              "ground-truth methods\nwitnessed by Velodrome over %d seeds\n\n",
              Seeds);

  TablePrinter Table({"Program", "Truth", "Plain", "Adversarial",
                      "Gained methods"});

  for (const char *Name : {"raytracer", "colt", "jigsaw"}) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    W->Scale = Scale;
    std::set<std::string> Truth = truthSet(*W);

    std::set<std::string> Plain = methodsFound(*W, Seeds, false);
    std::set<std::string> Adv = methodsFound(*W, Seeds, true);

    auto TrueHits = [&](const std::set<std::string> &Found) {
      size_t N = 0;
      for (const std::string &M : Found)
        N += Truth.count(M);
      return N;
    };

    std::string Gained;
    for (const std::string &M : Adv)
      if (Truth.count(M) && !Plain.count(M))
        Gained += (Gained.empty() ? "" : ", ") + M;

    Table.startRow();
    Table.cell(std::string(Name));
    Table.cell(static_cast<uint64_t>(Truth.size()));
    Table.cell(static_cast<uint64_t>(TrueHits(Plain)));
    Table.cell(static_cast<uint64_t>(TrueHits(Adv)));
    Table.cell(Gained.empty() ? "-" : Gained);
  }

  std::printf("%s\n", Table.str().c_str());
  std::printf("paper: guidance uncovered raytracer's second method, one "
              "more in colt, several in jigsaw.\n");
  return 0;
}
