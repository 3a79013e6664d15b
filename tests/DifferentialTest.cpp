//===- tests/DifferentialTest.cpp - Graph vs vector-clock cross-check -----===//
//
// The correctness argument for the AeroDrome back-end: on every trace we can
// produce — the committed golden corpus, randomly generated traces across
// the standard shapes, and full runtime executions of every workload with
// every guard site individually disabled — the vector-clock verdict, the
// Velodrome graph verdict, and the offline serializability oracle must
// agree exactly. Only the binary verdict is compared; blame assignment and
// post-first-violation reporting are allowed to differ (Velodrome-only
// features).
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "analysis/TraceRecorder.h"
#include "core/Velodrome.h"
#include "events/TraceGen.h"
#include "events/TraceText.h"
#include "oracle/SerializabilityOracle.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#ifndef VELO_TEST_DATA_DIR
#define VELO_TEST_DATA_DIR "tests/data"
#endif

namespace velo {
namespace {

/// Replay T through both online checkers and the offline oracle and demand
/// one verdict. Context tags the failure message.
void checkThreeWay(const Trace &T, const std::string &Context) {
  OracleResult Oracle = checkSerializable(T);

  Velodrome Velo;
  replay(T, Velo);
  AeroDrome Aero;
  replay(T, Aero);

  auto Dump = [&]() {
    return Context + "\ntrace:\n" + printTrace(T);
  };

  ASSERT_EQ(Velo.sawViolation(), !Oracle.Serializable)
      << "Velodrome disagrees with oracle\n"
      << Dump();
  ASSERT_EQ(Aero.sawViolation(), !Oracle.Serializable)
      << "AeroDrome disagrees with oracle\n"
      << Dump();
  ASSERT_EQ(Aero.sawViolation(), Velo.sawViolation()) << Dump();
}

// --- 1. The committed golden corpus -------------------------------------

class DifferentialGolden : public ::testing::TestWithParam<const char *> {};

TEST_P(DifferentialGolden, VerdictsAgree) {
  std::string Path = std::string(VELO_TEST_DATA_DIR) + "/" + GetParam();
  Trace T;
  std::string Error;
  ASSERT_TRUE(readTraceFile(Path, T, Error)) << Error;
  ASSERT_TRUE(T.validate());
  checkThreeWay(T, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Corpus, DifferentialGolden,
                         ::testing::Values("intro_cycle.trace",
                                           "rmw_violation.trace",
                                           "flag_handoff.trace",
                                           "set_add.trace",
                                           "forkjoin_clean.trace",
                                           "lock_cycle.trace",
                                           "aero_finished_successor.trace",
                                           "aero_transitive_successor.trace",
                                           "aero_frontier_successor.trace"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string Name = I.param;
                           return Name.substr(0, Name.find('.'));
                         });

/// Generated traces whose cycle closes through a finished transaction: a
/// join of a finished clock that already contains an open block makes the
/// joiner that block's successor. AeroDrome missed these while it told an
/// open block of a successor only on a join of the block's own clock.
TEST(DifferentialRegression, CyclesThroughFinishedTransactions) {
  TraceGenOptions Deep;
  Deep.Threads = 5;
  Deep.Vars = 3;
  Deep.Locks = 1;
  Deep.Steps = 48;
  Deep.MaxDepth = 3;
  TraceGenOptions Flat;
  Flat.Threads = 5;
  Flat.Vars = 5;
  Flat.Locks = 1;
  Flat.Steps = 26;
  const std::pair<uint64_t, TraceGenOptions> Cases[] = {{15788, Deep},
                                                        {60616, Flat}};
  for (const auto &[Seed, Opts] : Cases) {
    Trace T = generateRandomTrace(Seed, Opts);
    ASSERT_TRUE(T.validate()) << "seed " << Seed;
    AeroDrome Aero;
    replay(T, Aero);
    EXPECT_TRUE(Aero.sawViolation()) << "seed " << Seed;
    checkThreeWay(T, "seed " + std::to_string(Seed));
  }
}

// --- 2. Generated traces across the standard shapes ---------------------

struct GenParam {
  const char *Name;
  TraceGenOptions Opts;
  uint64_t SeedBase;
  int NumSeeds;
};

// gtest's default printer dumps the struct's bytes, pointers included, and
// ctest bakes the printed parameter into the test name; print the shape
// name so the test name is the same in every build.
void PrintTo(const GenParam &P, std::ostream *OS) { *OS << P.Name; }

TraceGenOptions shape(uint32_t Threads, uint32_t Vars, uint32_t Locks,
                      size_t Steps, bool ForkJoin, unsigned GuardedPct,
                      int MaxDepth = 2) {
  TraceGenOptions O;
  O.Threads = Threads;
  O.Vars = Vars;
  O.Locks = Locks;
  O.Steps = Steps;
  O.UseForkJoin = ForkJoin;
  O.GuardedAccessPct = GuardedPct;
  O.MaxDepth = MaxDepth;
  return O;
}

class DifferentialGenerated : public ::testing::TestWithParam<GenParam> {};

TEST_P(DifferentialGenerated, VerdictsAgree) {
  const GenParam &P = GetParam();
  for (int I = 0; I < P.NumSeeds; ++I) {
    uint64_t Seed = P.SeedBase + static_cast<uint64_t>(I);
    Trace T = generateRandomTrace(Seed, P.Opts);
    ASSERT_TRUE(T.validate()) << P.Name << " seed " << Seed;
    checkThreeWay(T, std::string(P.Name) + " seed " + std::to_string(Seed));
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

// 6 shapes x 25 seeds = 150 generated traces, well past the 50-trace floor.
INSTANTIATE_TEST_SUITE_P(
    Shapes, DifferentialGenerated,
    ::testing::Values(
        GenParam{"hot-small", shape(3, 2, 1, 40, false, 0), 41000, 25},
        GenParam{"default", shape(4, 4, 2, 60, false, 0), 42000, 25},
        GenParam{"guarded", shape(4, 4, 2, 80, false, 85), 43000, 25},
        GenParam{"nested", shape(3, 3, 2, 70, false, 40, 4), 44000, 25},
        GenParam{"forkjoin", shape(5, 4, 2, 70, true, 30), 45000, 25},
        GenParam{"wide", shape(8, 3, 2, 120, false, 20), 46000, 25}),
    [](const ::testing::TestParamInfo<GenParam> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

// --- 3. Every workload x every disabled-guard-site configuration --------

class DifferentialWorkload : public ::testing::TestWithParam<const char *> {};

TEST_P(DifferentialWorkload, VerdictsAgreeAcrossGuardConfigs) {
  std::unique_ptr<Workload> Probe = makeWorkload(GetParam());
  ASSERT_TRUE(Probe) << "unknown workload " << GetParam();

  // The baseline configuration plus each guard site disabled on its own.
  std::vector<std::string> Configs;
  Configs.push_back("");
  for (const std::string &Site : Probe->guardSites())
    Configs.push_back(Site);

  for (const std::string &Disabled : Configs) {
    for (uint64_t Seed = 0; Seed < 2; ++Seed) {
      std::unique_ptr<Workload> W = makeWorkload(GetParam());
      if (!Disabled.empty())
        W->DisabledGuards.insert(Disabled);

      RuntimeOptions Opts;
      Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
      Opts.SchedulerSeed = Seed;
      Opts.WorkloadSeed = Seed * 7 + 1;

      TraceRecorder Rec;
      Runtime RT(Opts, {&Rec});
      W->run(RT);

      const Trace &T = Rec.trace();
      ASSERT_TRUE(T.validate()) << GetParam() << " disabled=" << Disabled;
      checkThreeWay(T, std::string(GetParam()) + " disabled='" + Disabled +
                           "' seed " + std::to_string(Seed));
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DifferentialWorkload,
    ::testing::Values("elevator", "hedc", "tsp", "sor", "jbb", "mtrt",
                      "moldyn", "montecarlo", "raytracer", "colt", "philo",
                      "raja", "multiset", "webl", "jigsaw"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

} // namespace
} // namespace velo
