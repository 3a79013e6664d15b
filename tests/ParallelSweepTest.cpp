//===- tests/ParallelSweepTest.cpp - Parallel-vs-sequential property sweep ===//
//
// The statistical arm of the parallel pipeline's hard invariant: at least
// 200 seeded random traces, each run through the sequential reference
// loop, the parallel pipeline, and the parallel pipeline with static
// reduction — with the batch size, ring depth, worker count, and stall
// point varied per seed so the sweep covers many interleaving shapes, not
// one lucky schedule. Serialized back-end state, warning lists, verdicts,
// and delivered-event counts must be identical on every seed.
//
// Labeled `slow` in CTest: the tier-1 suite skips it, CI runs it.
//
//===----------------------------------------------------------------------===//

#include "events/TraceGen.h"

#include "PipelineHarness.h"

#include "gtest/gtest.h"

using namespace velo;

namespace {

TEST(ParallelSweep, TwoHundredSeededTraces) {
  // Cheap deterministic mixer for deriving per-seed knobs.
  auto Mix = [](uint64_t Seed, uint64_t Salt) {
    uint64_t X = Seed * 0x9e3779b97f4a7c15ull + Salt;
    X ^= X >> 29;
    X *= 0xbf58476d1ce4e5b9ull;
    X ^= X >> 32;
    return X;
  };

  const size_t Seeds = 200;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    TraceGenOptions GOpts;
    GOpts.Threads = 2 + static_cast<uint32_t>(Mix(Seed, 1) % 5);
    GOpts.Vars = 2 + static_cast<uint32_t>(Mix(Seed, 2) % 8);
    GOpts.Locks = 1 + static_cast<uint32_t>(Mix(Seed, 3) % 4);
    GOpts.Steps = 40 + Mix(Seed, 4) % 300;
    GOpts.GuardedAccessPct = static_cast<unsigned>(Mix(Seed, 5) % 90);
    GOpts.UseForkJoin = Mix(Seed, 6) % 3 == 0;
    const std::string Text = printTrace(generateRandomTrace(Seed, GOpts));
    const ReductionPlan Plan = planFor(Text);

    ParallelOptions POpts;
    const size_t Batches[] = {1, 3, 7, 64};
    POpts.BatchEvents = Batches[Mix(Seed, 7) % 4];
    POpts.RingDepth = 2 + Mix(Seed, 8) % 6;
    POpts.Workers = static_cast<unsigned>(Mix(Seed, 9) % 6); // 0 = auto
    if (Mix(Seed, 10) % 4 == 0) {
      // Every fourth seed also injects a stall at a rotating stage.
      const int Stages[] = {PipelineStall::Reader, PipelineStall::Sanitizer,
                            PipelineStall::Filter, PipelineStall::Worker};
      POpts.Stall.At = Stages[Mix(Seed, 11) % 4];
      POpts.Stall.MicrosPerBatch = 50 + Mix(Seed, 12) % 200;
    }

    SCOPED_TRACE("seed " + std::to_string(Seed));
    const RunResult Seq = runSequential(Text, SanitizeMode::Strict, nullptr);
    const RunResult SeqReduced =
        runSequential(Text, SanitizeMode::Strict, &Plan);
    const RunResult Par =
        runPipeline(Text, SanitizeMode::Strict, nullptr, POpts);
    const RunResult ParReduced =
        runPipeline(Text, SanitizeMode::Strict, &Plan, POpts);
    for (const RunResult *R : {&Seq, &SeqReduced, &Par, &ParReduced})
      EXPECT_EQ(static_cast<int>(R->Err),
                static_cast<int>(PipelineError::None))
          << R->Detail;
    expectSame(Seq, Par, "parallel diverged from sequential");
    expectSame(SeqReduced, ParReduced,
               "parallel --reduce diverged from sequential --reduce");
  }
}

} // namespace
