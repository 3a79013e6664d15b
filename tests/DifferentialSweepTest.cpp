//===- tests/DifferentialSweepTest.cpp - AeroDrome vs Velodrome, at scale -===//
//
// The slow companion of DifferentialTest: AeroDrome's verdict must equal
// Velodrome's on 100,000 generated traces whose shape varies with the seed
// (threads, variables, locks, length, nesting depth, fork/join and the
// share of guarded accesses). A cycle that closes through a finished
// transaction shows up in about one trace in ten thousand, far too rarely
// for the tier-1 sample of 150 traces to meet one; DifferentialTest pins two
// that this sweep found.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "core/Velodrome.h"
#include "events/TraceGen.h"
#include "events/TraceText.h"

#include <gtest/gtest.h>

namespace velo {
namespace {

TEST(DifferentialSweep, AeroDromeAgreesWithVelodromeOnGeneratedTraces) {
  constexpr uint64_t NumSeeds = 100000;
  std::vector<uint64_t> Disagree;
  std::string First;
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    TraceGenOptions O;
    O.Threads = 2 + Seed % 7;
    O.Vars = 1 + Seed % 6;
    O.Locks = 1 + Seed % 4;
    O.Steps = 10 + Seed % 150;
    O.MaxDepth = 1 + Seed % 3;
    O.UseForkJoin = Seed % 3 == 0;
    O.GuardedAccessPct = (Seed % 4) * 25;
    Trace T = generateRandomTrace(Seed, O);
    Velodrome Velo;
    replay(T, Velo);
    AeroDrome Aero;
    replay(T, Aero);
    if (Velo.sawViolation() == Aero.sawViolation())
      continue;
    if (Disagree.empty())
      First = printTrace(T);
    Disagree.push_back(Seed);
  }
  ASSERT_TRUE(Disagree.empty())
      << Disagree.size() << " of " << NumSeeds
      << " traces disagree; the first, seed " << Disagree.front() << ":\n"
      << First;
}

} // namespace
} // namespace velo
