//===- injection/Injection.h - Synchronization-defect injection -*- C++ -*-===//
//
// Section 6's defect-injection study: "we injected atomicity defects into
// two programs, elevator and colt, by systematically removing each
// synchronized statement that induced contention one at a time and then
// running our analysis on each corrupted program." Without scheduler
// adjustment Velodrome found the inserted defect in ~30% of single runs;
// with Atomizer-guided adversarial scheduling, ~70%.
//
// A run *detects* the injected defect when Velodrome blames a method that
// is not in the workload's base (uncorrupted) ground-truth bug list — i.e.
// a violation that only exists because the guard was removed.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_INJECTION_INJECTION_H
#define VELO_INJECTION_INJECTION_H

#include "workloads/Workload.h"

#include <string>
#include <vector>

namespace velo {

/// Configuration for one injection study.
struct InjectionConfig {
  /// Scheduler seeds tried per corrupted variant.
  int TrialsPerSite = 10;
  /// Workload size multiplier.
  int Scale = 1;
  /// Also measure with Atomizer-guided adversarial scheduling.
  bool RunAdversarial = true;
  /// Scheduling decisions a suspicious thread is stalled for.
  int AdversarialStall = 50;
  /// First scheduler seed (seeds are Base..Base+Trials-1).
  uint64_t SeedBase = 0;
};

/// Outcome for one (workload, guard site) corrupted variant.
struct InjectionOutcome {
  std::string WorkloadName;
  std::string Site;
  int Trials = 0;
  /// Runs in which Velodrome flagged a beyond-ground-truth method.
  int DetectedPlain = 0;
  int DetectedAdversarial = 0;
};

/// Run the study over every guard site of the named workload. Returns one
/// outcome per site (empty if the workload has no sites / is unknown).
std::vector<InjectionOutcome> runInjectionStudy(const std::string &Name,
                                                const InjectionConfig &Cfg);

/// One trial: corrupt Site, run under Seed, return true if Velodrome
/// flagged a method outside the base ground truth. Policy says which
/// operations an adversarial run may stall after.
bool injectionTrialDetects(const std::string &Name, const std::string &Site,
                           uint64_t Seed, int Scale, bool Adversarial,
                           int AdversarialStall,
                           StallPolicy Policy = StallPolicy::AllOps);

} // namespace velo

#endif // VELO_INJECTION_INJECTION_H
