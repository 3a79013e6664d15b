//===- injection/Injection.cpp - Synchronization-defect injection ---------===//

#include "injection/Injection.h"

#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"

#include <set>

namespace velo {

bool injectionTrialDetects(const std::string &Name, const std::string &Site,
                           uint64_t Seed, int Scale, bool Adversarial,
                           int AdversarialStall, StallPolicy Policy) {
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W)
    return false;
  std::set<std::string> BaseTruth;
  for (const std::string &M : W->nonAtomicMethods())
    BaseTruth.insert(M);
  W->Scale = Scale;
  W->DisabledGuards.insert(Site);

  RuntimeOptions Opts;
  Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
  Opts.SchedulerSeed = Seed;
  Opts.WorkloadSeed = Seed * 11 + 3;
  Opts.Adversarial = Adversarial;
  Opts.AdversarialStall = AdversarialStall;
  Opts.Policy = Policy;

  Velodrome V;
  Atomizer Guide;
  std::vector<Backend *> Backends{&V};
  if (Adversarial)
    Backends.push_back(&Guide);
  Runtime RT(Opts, Backends);
  if (Adversarial)
    RT.setGuide(&Guide);
  W->run(RT);

  // A blame (resolved or not) outside the base ground truth only arises
  // from the injected corruption: on the uncorrupted programs, no blame —
  // resolved or unresolved — ever lands outside the truth set (checked by
  // the workload test suite across seeds).
  for (const AtomicityViolation &Violation : V.violations()) {
    if (Violation.Method == NoLabel)
      continue;
    if (!BaseTruth.count(RT.symbols().labelName(Violation.Method)))
      return true;
  }
  return false;
}

std::vector<InjectionOutcome> runInjectionStudy(const std::string &Name,
                                                const InjectionConfig &Cfg) {
  std::vector<InjectionOutcome> Out;
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W)
    return Out;

  for (const std::string &Site : W->guardSites()) {
    InjectionOutcome Outcome;
    Outcome.WorkloadName = Name;
    Outcome.Site = Site;
    Outcome.Trials = Cfg.TrialsPerSite;
    for (int Trial = 0; Trial < Cfg.TrialsPerSite; ++Trial) {
      uint64_t Seed = Cfg.SeedBase + static_cast<uint64_t>(Trial);
      if (injectionTrialDetects(Name, Site, Seed, Cfg.Scale,
                                /*Adversarial=*/false, Cfg.AdversarialStall))
        ++Outcome.DetectedPlain;
      if (Cfg.RunAdversarial &&
          injectionTrialDetects(Name, Site, Seed, Cfg.Scale,
                                /*Adversarial=*/true, Cfg.AdversarialStall))
        ++Outcome.DetectedAdversarial;
    }
    Out.push_back(Outcome);
  }
  return Out;
}

} // namespace velo
