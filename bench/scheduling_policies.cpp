//===- bench/scheduling_policies.cpp - Stall-policy exploration -----------===//
//
// Section 5 closes with: "We are exploring a number of other scheduling
// policies, such as pausing writes but not reads, allowing some threads to
// never pause, and so on." This bench carries out that exploration over the
// defect-injection corpus: per policy, the aggregate single-run detection
// rate of injected defects across the elevator and colt guard sites.
//
// Usage: scheduling_policies [trials] [scale]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "injection/Injection.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace velo;

namespace {

struct PolicyRow {
  const char *Name;
  bool Adversarial;
  StallPolicy Policy;
};

} // namespace

int main(int argc, char **argv) {
  int Trials = 15, Scale = 2;
  bench::parseArgsOrExit(argc, argv, "scheduling_policies",
                         {{"trials", Trials}, {"scale", Scale}});

  const PolicyRow Policies[] = {
      {"none (uniform)", false, StallPolicy::AllOps},
      {"stall all ops", true, StallPolicy::AllOps},
      {"stall writes only", true, StallPolicy::WritesOnly},
      {"stall reads only", true, StallPolicy::ReadsOnly},
      {"spare main thread", true, StallPolicy::SpareMainOps},
  };

  std::printf("Adversarial stall-policy exploration (Section 5's future "
              "work), %d trials per\ncorrupted variant over the injection "
              "corpus (elevator + colt guard sites)\n\n",
              Trials);

  TablePrinter Table({"Policy", "Detection rate"});
  for (const PolicyRow &P : Policies) {
    int Total = 0, Hits = 0;
    for (const char *Name : {"elevator", "colt"}) {
      std::unique_ptr<Workload> W = makeWorkload(Name);
      for (const std::string &Site : W->guardSites()) {
        for (int Trial = 0; Trial < Trials; ++Trial) {
          ++Total;
          Hits += injectionTrialDetects(
              Name, Site, static_cast<uint64_t>(Trial), Scale, P.Adversarial,
              InjectionConfig().AdversarialStall, P.Policy);
        }
      }
    }
    Table.startRow();
    Table.cell(std::string(P.Name));
    Table.cell(TablePrinter::fixed(100.0 * Hits / Total, 0) + "%  (" +
               std::to_string(Hits) + "/" + std::to_string(Total) + ")");
  }

  std::printf("%s\n", Table.str().c_str());
  std::printf("expected shape: any stall policy beats uniform scheduling; "
              "stalling at *reads*\ntends to win for check-then-act defects "
              "(the window opens at the stale read),\nwhile write-only "
              "stalling misses them.\n");
  return 0;
}
