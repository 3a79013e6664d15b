//===- tests/PipelineHarness.h - Sequential reference loop ------*- C++ -*-===//
//
// The parallel pipeline's tests run the same input through a sequential
// reference loop and through the ParallelPipeline, then compare everything
// observable: serialized back-end state, warning lists, delivered-event
// and repair counts, and error reporting. The reference is written out by
// hand here (sanitizer, sanitized-stream ordinals, reduction filter,
// delivery), independent of the analysis plan that runs the pipeline in
// the tools: it is what the pipeline is checked against.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_TESTS_PIPELINEHARNESS_H
#define VELO_TESTS_PIPELINEHARNESS_H

#include "aero/AeroDrome.h"
#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "eraser/Eraser.h"
#include "events/TraceSanitizer.h"
#include "events/TraceStream.h"
#include "events/TraceText.h"
#include "hbrace/HbRaceDetector.h"
#include "parallel/Pipeline.h"
#include "staticpass/StaticPipeline.h"

#include "OpenTextSource.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace velo {

struct RunResult {
  PipelineError Err = PipelineError::None;
  std::string Detail;
  uint64_t Events = 0;
  uint64_t Repairs = 0;
  std::vector<std::string> States;   ///< serialized back-end payloads
  std::vector<std::string> Warnings; ///< flattened warning messages
  PipelineResult PR;                 ///< pipeline runs only
};

struct BackendSet {
  Velodrome Velo;
  AeroDrome Aero;
  Eraser Race;
  HbRaceDetector Hb;
  Atomizer Atom;
  std::vector<Backend *> all() { return {&Velo, &Aero, &Race, &Hb, &Atom}; }
};

inline void capture(BackendSet &Set, RunResult &Out) {
  for (Backend *B : Set.all()) {
    SnapshotWriter W;
    B->serialize(W);
    Out.States.push_back(W.payload());
    for (const Warning &Wn : B->warnings())
      Out.Warnings.push_back(std::string(B->name()) + ": " + Wn.Message);
  }
}

/// Build a reduction plan for Text the way velodrome-check does (the text
/// must be strict-valid).
inline ReductionPlan planFor(const std::string &Text) {
  Trace T;
  std::string Error;
  EXPECT_TRUE(parseTrace(Text, T, Error)) << Error;
  return planTrace(T, PassMask::all());
}

/// The sequential reference loop: sanitize each record, number its output,
/// filter it under Plan, and deliver it to every back-end.
inline RunResult runSequential(const std::string &Text, SanitizeMode Mode,
                               const ReductionPlan *Plan) {
  RunResult Out;
  SymbolTable Syms;
  TraceStream TS(Text, Syms);
  TraceSanitizer San(Mode);
  ReductionFilter Filter;
  if (Plan)
    Filter = ReductionFilter(*Plan);
  BackendSet Set;
  for (Backend *B : Set.all())
    B->beginAnalysis(Syms);

  std::vector<Event> Clean;
  uint64_t Ord = 0; // 1-based post-sanitizer pre-reduction ordinal
  auto Deliver = [&] {
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
  };
  Event E;
  while (Out.Err == PipelineError::None && TS.next(E)) {
    Clean.clear();
    if (!San.push(E, Clean, TS.lineNo())) {
      Out.Err = PipelineError::Sanitize;
      Out.Detail = San.error();
      break;
    }
    Deliver();
  }
  if (Out.Err == PipelineError::None && TS.failed()) {
    Out.Err = PipelineError::Parse;
    Out.Detail = TS.error();
  }
  if (Out.Err == PipelineError::None) {
    Clean.clear();
    San.finish(Clean);
    Deliver();
    for (Backend *B : Set.all())
      B->endAnalysis();
  }
  Out.Repairs = San.repairs().total();
  capture(Set, Out);
  return Out;
}

inline RunResult runPipeline(const std::string &Text, SanitizeMode Mode,
                             const ReductionPlan *Plan, ParallelOptions Opts) {
  RunResult Out;
  SymbolTable Syms;
  std::unique_ptr<TraceSource> Src = openTextSource(Text, Syms);
  if (!Src)
    return Out;
  TraceSanitizer San(Mode);
  ReductionFilter Filter;
  if (Plan)
    Filter = ReductionFilter(*Plan);
  BackendSet Set;
  for (Backend *B : Set.all())
    B->beginAnalysis(Syms);
  ParallelPipeline Pipe(*Src, Syms, San, Plan ? &Filter : nullptr,
                        Set.all(), std::move(Opts));
  Out.PR = Pipe.run();
  Out.Err = Out.PR.Err;
  Out.Detail = Out.PR.Detail;
  Out.Events = Out.PR.EventsSeen;
  Out.Repairs = San.repairs().total();
  capture(Set, Out);
  return Out;
}

/// The hard invariant: everything observable is identical.
inline void expectSame(const RunResult &Seq, const RunResult &Par,
                       const std::string &What) {
  EXPECT_EQ(static_cast<int>(Seq.Err), static_cast<int>(Par.Err)) << What;
  EXPECT_EQ(Seq.Detail, Par.Detail) << What;
  EXPECT_EQ(Seq.Events, Par.Events) << What;
  EXPECT_EQ(Seq.Repairs, Par.Repairs) << What;
  EXPECT_EQ(Seq.Warnings, Par.Warnings) << What;
  ASSERT_EQ(Seq.States.size(), Par.States.size()) << What;
  for (size_t I = 0; I < Seq.States.size(); ++I)
    EXPECT_EQ(Seq.States[I], Par.States[I])
        << What << ": back-end " << I << " state diverged";
}

} // namespace velo

#endif // VELO_TESTS_PIPELINEHARNESS_H
