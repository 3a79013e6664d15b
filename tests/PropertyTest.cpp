//===- tests/PropertyTest.cpp - Soundness & completeness properties -------===//
//
// The executable form of the paper's Theorem 1: on every trace, Velodrome
// reports a violation IFF the trace is not conflict-serializable. We run the
// optimized analysis (merge on and off), the Figure 2 reference analysis,
// and the offline oracle over thousands of random traces and demand
// four-way verdict agreement. Blame assignments are cross-checked against
// the oracle's self-serializability decision procedure.
//
//===----------------------------------------------------------------------===//

#include "core/BasicVelodrome.h"
#include "core/Velodrome.h"
#include "events/TraceGen.h"
#include "events/TraceText.h"
#include "oracle/SerializabilityOracle.h"

#include <gtest/gtest.h>

namespace velo {
namespace {

struct PropParam {
  const char *Name;
  TraceGenOptions Opts;
  uint64_t SeedBase;
  int NumSeeds;
};

// gtest's default printer dumps the struct's bytes, pointers included, and
// ctest bakes the printed parameter into the test name; print the shape
// name so the test name is the same in every build.
void PrintTo(const PropParam &P, std::ostream *OS) { *OS << P.Name; }

void checkAgreement(const Trace &T, uint64_t Seed, const char *Shape) {
  ASSERT_TRUE(T.validate()) << Shape << " seed " << Seed;

  OracleResult Oracle = checkSerializable(T);

  Velodrome Merged;
  replay(T, Merged);

  VelodromeOptions NaiveOpts;
  NaiveOpts.UseMerge = false;
  Velodrome Naive(NaiveOpts);
  replay(T, Naive);

  BasicVelodrome Basic;
  replay(T, Basic);

  auto Dump = [&]() {
    return std::string(Shape) + " seed " + std::to_string(Seed) +
           "\ntrace:\n" + printTrace(T);
  };

  EXPECT_EQ(Merged.sawViolation(), !Oracle.Serializable)
      << "optimized (merge) disagrees with oracle\n"
      << Dump();
  EXPECT_EQ(Naive.sawViolation(), !Oracle.Serializable)
      << "optimized (no merge) disagrees with oracle\n"
      << Dump();
  EXPECT_EQ(Basic.sawViolation(), !Oracle.Serializable)
      << "basic Figure 2 analysis disagrees with oracle\n"
      << Dump();

  // GC invariant: nothing should stay alive once every transaction that can
  // ever gain an incoming edge has finished... at minimum the live count is
  // tiny relative to allocations on these small traces.
  EXPECT_LE(Merged.graph().nodesAlive(), Merged.graph().nodesAllocated());

  // Blame cross-check: every *resolved* blame must name a transaction that
  // is genuinely not self-serializable in the observed trace.
  if (!Oracle.Serializable) {
    TxnIndex Index = buildTxnIndex(T);
    for (const AtomicityViolation &V : Merged.violations()) {
      if (!V.BlameResolved || V.Method == NoLabel)
        continue;
      bool SomePinnedTxnWithMethod = false;
      for (uint32_t Id = 0; Id < Index.Txns.size(); ++Id) {
        if (Index.Txns[Id].Root != V.Method)
          continue;
        if (!isSelfSerializable(T, Index, Id)) {
          SomePinnedTxnWithMethod = true;
          break;
        }
      }
      EXPECT_TRUE(SomePinnedTxnWithMethod)
          << "blamed method '" << T.symbols().labelName(V.Method)
          << "' has no non-self-serializable transaction\n"
          << Dump();
    }
  }
}

class AgreementProperty : public ::testing::TestWithParam<PropParam> {};

TEST_P(AgreementProperty, VelodromeMatchesOracle) {
  const PropParam &P = GetParam();
  for (int I = 0; I < P.NumSeeds; ++I) {
    uint64_t Seed = P.SeedBase + static_cast<uint64_t>(I);
    Trace T = generateRandomTrace(Seed, P.Opts);
    checkAgreement(T, Seed, P.Name);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

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

INSTANTIATE_TEST_SUITE_P(
    Shapes, AgreementProperty,
    ::testing::Values(
        // Hot and small: maximal contention, mostly non-serializable.
        PropParam{"hot-small", shape(3, 2, 1, 40, false, 0), 1000, 300},
        // Default mix.
        PropParam{"default", shape(4, 4, 2, 60, false, 0), 2000, 300},
        // Mostly guarded: high serializable fraction exercises completeness.
        PropParam{"guarded", shape(4, 4, 2, 80, false, 85), 3000, 300},
        // Deep nesting.
        PropParam{"nested", shape(3, 3, 2, 70, false, 40, 4), 4000, 200},
        // Fork/join envelopes.
        PropParam{"forkjoin", shape(5, 4, 2, 70, true, 30), 5000, 200},
        // Many threads, few variables: long cycles.
        PropParam{"wide", shape(8, 3, 2, 120, false, 20), 6000, 150},
        // Lock-heavy: unary lock operations dominate.
        PropParam{"locky",
                  [] {
                    TraceGenOptions O = shape(4, 2, 3, 80, false, 0);
                    O.WeightAcquire = 30;
                    O.WeightRelease = 34;
                    O.WeightRead = 10;
                    O.WeightWrite = 8;
                    return O;
                  }(),
                  7000, 200},
        // Single thread: always serializable.
        PropParam{"solo", shape(1, 3, 2, 100, false, 0), 8000, 50},
        // No atomic blocks at all: only unary transactions, always
        // serializable (every unary transaction is trivially serial).
        PropParam{"no-blocks",
                  [] {
                    TraceGenOptions O = shape(4, 3, 2, 90, false, 0);
                    O.WeightBegin = 0;
                    O.WeightEnd = 0;
                    return O;
                  }(),
                  9000, 100}),
    [](const ::testing::TestParamInfo<PropParam> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

// Traces made only of unary transactions are always serializable; verify
// the analyses never fire on them (a strong completeness canary).
TEST(PropertyCanary, UnaryOnlyTracesNeverFire) {
  TraceGenOptions O;
  O.Threads = 4;
  O.Steps = 150;
  O.WeightBegin = 0;
  O.WeightEnd = 0;
  for (uint64_t Seed = 0; Seed < 100; ++Seed) {
    Trace T = generateRandomTrace(Seed, O);
    OracleResult R = checkSerializable(T);
    ASSERT_TRUE(R.Serializable) << "oracle: unary-only must be serializable";
    Velodrome V;
    replay(T, V);
    ASSERT_FALSE(V.sawViolation()) << "seed " << Seed;
  }
}

// Trace-format round-trip preserves analysis verdicts.
TEST(PropertyCanary, SerializedTracesReplayIdentically) {
  TraceGenOptions O;
  O.Steps = 80;
  for (uint64_t Seed = 100; Seed < 140; ++Seed) {
    Trace T = generateRandomTrace(Seed, O);
    std::string Error;
    Trace Parsed;
    ASSERT_TRUE(parseTrace(printTrace(T), Parsed, Error)) << Error;
    Velodrome V1, V2;
    replay(T, V1);
    replay(Parsed, V2);
    ASSERT_EQ(V1.sawViolation(), V2.sawViolation()) << "seed " << Seed;
    ASSERT_EQ(V1.violations().size(), V2.violations().size());
  }
}

} // namespace
} // namespace velo
