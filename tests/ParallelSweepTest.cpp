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

#include "aero/AeroDrome.h"
#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "eraser/Eraser.h"
#include "events/TraceGen.h"
#include "events/TraceSanitizer.h"
#include "events/TraceStream.h"
#include "events/TraceText.h"
#include "hbrace/HbRaceDetector.h"
#include "parallel/Pipeline.h"
#include "staticpass/StaticPipeline.h"

#include "OpenTextSource.h"

#include "gtest/gtest.h"

using namespace velo;

namespace {

struct BackendSet {
  Velodrome Velo;
  AeroDrome Aero;
  Eraser Race;
  HbRaceDetector Hb;
  Atomizer Atom;
  std::vector<Backend *> all() {
    return {&Velo, &Aero, &Race, &Hb, &Atom};
  }
};

struct Observed {
  uint64_t Events = 0;
  std::vector<std::string> States;
  std::vector<std::string> Warnings;

  bool operator==(const Observed &O) const {
    return Events == O.Events && States == O.States &&
           Warnings == O.Warnings;
  }
};

void capture(BackendSet &Set, Observed &Out) {
  for (Backend *B : Set.all()) {
    SnapshotWriter W;
    B->serialize(W);
    Out.States.push_back(W.payload());
    for (const Warning &Wn : B->warnings())
      Out.Warnings.push_back(std::string(B->name()) + ": " + Wn.Message);
  }
}

// Out-parameter (not a return value): ASSERT_* macros return void.
void runSequentialInto(const std::string &Text, const ReductionPlan *Plan,
                       Observed &Out) {
  SymbolTable Syms;
  TraceStream TS(Text, Syms);
  TraceSanitizer San(SanitizeMode::Strict);
  ReductionFilter Filter;
  if (Plan)
    Filter = ReductionFilter(*Plan);
  BackendSet Set;
  for (Backend *B : Set.all())
    B->beginAnalysis(Syms);
  std::vector<Event> Clean;
  Event E;
  uint64_t Ord = 0; // 1-based post-sanitizer pre-reduction ordinal
  while (TS.next(E)) {
    Clean.clear();
    ASSERT_TRUE(San.push(E, Clean, TS.lineNo())) << San.error();
    for (const Event &C : Clean) {
      ++Ord;
      if (Plan && !Filter.keep(C))
        continue;
      ++Out.Events;
      for (Backend *B : Set.all()) {
        B->setEventOrdinal(Ord);
        B->onEvent(C);
      }
    }
  }
  ASSERT_FALSE(TS.failed()) << TS.error();
  Clean.clear();
  San.finish(Clean);
  for (const Event &C : Clean) {
    ++Ord;
    if (Plan && !Filter.keep(C))
      continue;
    ++Out.Events;
    for (Backend *B : Set.all()) {
      B->setEventOrdinal(Ord);
      B->onEvent(C);
    }
  }
  for (Backend *B : Set.all())
    B->endAnalysis();
  capture(Set, Out);
}

Observed runParallel(const std::string &Text, const ReductionPlan *Plan,
                     const ParallelOptions &Opts) {
  Observed Out;
  SymbolTable Syms;
  std::unique_ptr<TraceSource> Src = openTextSource(Text, Syms);
  if (!Src)
    return Out;
  TraceSanitizer San(SanitizeMode::Strict);
  ReductionFilter Filter;
  if (Plan)
    Filter = ReductionFilter(*Plan);
  BackendSet Set;
  for (Backend *B : Set.all())
    B->beginAnalysis(Syms);
  ParallelPipeline Pipe(*Src, Syms, San, Plan ? &Filter : nullptr,
                        Set.all(), Opts);
  PipelineResult R = Pipe.run();
  EXPECT_EQ(static_cast<int>(R.Err), static_cast<int>(PipelineError::None))
      << R.Detail;
  Out.Events = R.EventsSeen;
  capture(Set, Out);
  return Out;
}

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
    const ReductionPlan Plan = [&] {
      Trace T;
      std::string Error;
      EXPECT_TRUE(parseTrace(Text, T, Error)) << Error;
      return planTrace(T, PassMask::all());
    }();

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
    Observed Seq, SeqReduced;
    runSequentialInto(Text, nullptr, Seq);
    runSequentialInto(Text, &Plan, SeqReduced);
    Observed Par = runParallel(Text, nullptr, POpts);
    Observed ParReduced = runParallel(Text, &Plan, POpts);
    EXPECT_TRUE(Seq == Par) << "parallel diverged from sequential";
    EXPECT_TRUE(SeqReduced == ParReduced)
        << "parallel --reduce diverged from sequential --reduce";
  }
}

} // namespace
