//===- tests/PlanTest.cpp - One analysis plan, every engine ---------------===//
//
// The analysis plan (analysis/Plan.h) runs sequentially, through the
// parallel pipeline (both through run()), and resumed from its own
// snapshot body.
// Under a governor cap all three must print the same report and the same
// notes: the reference checker (Velodrome(basic)) is fed by the governor
// until the cap breach, and a stopped run counts as of its stop event, the
// reduction filter's counters included.
//
//===----------------------------------------------------------------------===//

#include "analysis/Plan.h"
#include "events/TraceGen.h"
#include "events/TraceText.h"

#include "OpenTextSource.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace velo;

namespace {

const std::string StopNote = "governor: stopped the reference checker "
                             "(Velodrome(basic), no GC) after the cap breach\n";

struct Outcome {
  std::string Text, Json, Notes;
  std::string Reduced; ///< the filter's counters under --reduce
  int Exit = 0;
  uint64_t Events = 0;
  std::vector<std::string> Reference; ///< Velodrome(basic)'s warnings
};

PlanConfig config(const std::string &Sel, uint64_t MaxLiveNodes,
                  SanitizeMode Mode = SanitizeMode::Strict) {
  PlanConfig C;
  C.BackendSel = Sel;
  C.Mode = Mode;
  C.Limits.MaxLiveNodes = MaxLiveNodes;
  return C;
}

std::unique_ptr<AnalysisPlan> makePlan(const PlanConfig &C,
                                       std::string &Notes) {
  std::string Err;
  std::unique_ptr<AnalysisPlan> P = AnalysisPlan::create(C, Err);
  EXPECT_TRUE(P) << Err;
  P->NotesOut = &Notes;
  return P;
}

Outcome outcome(const AnalysisPlan &P, const SymbolTable &Syms,
                const std::string &Notes) {
  Outcome Out;
  ReportManager RM;
  RM.Run.Tool = "plan-test";
  RM.Run.Trace = "trace";
  P.report(RM, Syms);
  Out.Text = RM.render(ReportFormat::Text);
  Out.Json = RM.render(ReportFormat::Json);
  Out.Notes = Notes;
  Out.Exit = RM.Run.ExitCode;
  Out.Events = P.eventsSeen();
  if (const PassStats *S = P.reduceStats())
    Out.Reduced = S->summary();
  for (const Backend *B : P.reporting())
    if (std::string(B->name()) == "Velodrome(basic)")
      for (const Warning &W : B->warnings())
        Out.Reference.push_back(W.Message);
  return Out;
}

/// Pass A of --reduce over a second open of Text, as velodrome-check runs
/// it (nothing without --reduce).
void classify(AnalysisPlan &P, const std::string &Text) {
  SymbolTable Syms;
  std::unique_ptr<TraceSource> Src = openTextSource(Text, Syms);
  std::string Err;
  EXPECT_TRUE(P.classify(*Src, Err)) << Err;
}

/// velodrome-check's run: the classify sweep, then the plan's entry point
/// over the text, sequentially or through the parallel pipeline.
Outcome runPlan(const std::string &Text, const PlanConfig &C, bool Parallel,
                ParallelOptions Opts = ParallelOptions()) {
  std::string Notes;
  std::unique_ptr<AnalysisPlan> P = makePlan(C, Notes);
  classify(*P, Text);
  SymbolTable Syms;
  std::unique_ptr<TraceSource> Src = openTextSource(Text, Syms);
  P->begin(Syms);
  PipelineResult R = P->run(*Src, Syms, Parallel, std::move(Opts));
  EXPECT_EQ(R.Err, PipelineError::None) << R.Detail;
  return outcome(*P, Syms, Notes);
}

Outcome runSequential(const std::string &Text, const PlanConfig &C) {
  return runPlan(Text, C, false);
}

/// The parallel run. Cuts receives the event count of every checkpoint cut
/// the pipeline completes (every CutEvery events).
Outcome runPipeline(const std::string &Text, const PlanConfig &C,
                    size_t Batch, unsigned Workers,
                    std::vector<uint64_t> *Cuts = nullptr,
                    uint64_t CutEvery = 0) {
  ParallelOptions Opts;
  Opts.BatchEvents = Batch;
  Opts.Workers = Workers;
  if (Cuts) {
    Opts.CheckpointEvery = CutEvery;
    Opts.CheckpointSink = [Cuts](const CheckpointCut &Cut, std::string &) {
      Cuts->push_back(Cut.EventsSeen);
      return true;
    };
  }
  return runPlan(Text, C, true, std::move(Opts));
}

void expectSame(const Outcome &Want, const Outcome &Got,
                const std::string &What) {
  EXPECT_EQ(Got.Text, Want.Text) << What;
  EXPECT_EQ(Got.Json, Want.Json) << What;
  EXPECT_EQ(Got.Notes, Want.Notes) << What;
  EXPECT_EQ(Got.Reduced, Want.Reduced) << What;
  EXPECT_EQ(Got.Exit, Want.Exit) << What;
  EXPECT_EQ(Got.Reference, Want.Reference) << What;
}

std::string randomTrace(uint64_t Seed) {
  TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Vars = 6;
  Opts.Locks = 3;
  Opts.Steps = 600;
  Opts.GuardedAccessPct = 30;
  return printTrace(generateRandomTrace(Seed, Opts));
}

/// N threads each open a transaction and read x, then all of them close:
/// N graph nodes live at once, none chained behind another.
std::string wideTrace(int N, bool Repairs = false) {
  std::string T;
  for (int I = 1; I <= N; ++I) {
    std::string Th = "T" + std::to_string(I);
    if (Repairs) // an unmatched end and a lock never released
      T += Th + " end\n" + Th + " acq l" + std::to_string(I) + "\n";
    T += Th + " begin m\n" + Th + " rd x\n";
  }
  for (int I = 1; I <= N; ++I)
    T += "T" + std::to_string(I) + " end\n";
  return T;
}

TEST(PlanTest, SmallCapOnAllMatchesAcrossEngines) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    const std::string Text = randomTrace(Seed);
    const PlanConfig C = config("all", 3);
    Outcome Want = runSequential(Text, C);
    ASSERT_EQ(Want.Notes.rfind(StopNote, 0), 0u)
        << "the stop note leads the closing notes: " << Want.Notes;
    EXPECT_NE(Want.Notes.find("fell back to the vector-clock checker"),
              std::string::npos);
    for (size_t Batch : {1u, 5u, 64u, 4096u})
      for (unsigned Workers : {0u, 1u, 2u})
        expectSame(Want, runPipeline(Text, C, Batch, Workers),
                   "seed " + std::to_string(Seed) + ", batch " +
                       std::to_string(Batch) + ", workers " +
                       std::to_string(Workers));
  }
}

/// An event budget stops a run that delivers to every back-end of `all`;
/// the pipeline puts them all on the governor's worker, so none sees an
/// event past the stop on any worker count.
TEST(PlanTest, EventBudgetOnAllMatchesAcrossEngines) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    const std::string Text = randomTrace(Seed);
    PlanConfig C = config("all", GovernorLimits::defaults().MaxLiveNodes);
    C.Limits.MaxEvents = 250;
    Outcome Want = runSequential(Text, C);
    ASSERT_NE(Want.Notes.find("event budget of 250 exhausted"),
              std::string::npos)
        << Want.Notes;
    for (size_t Batch : {1u, 5u, 64u, 4096u})
      for (unsigned Workers : {0u, 1u, 2u})
        expectSame(Want, runPipeline(Text, C, Batch, Workers),
                   "seed " + std::to_string(Seed) + ", batch " +
                       std::to_string(Batch) + ", workers " +
                       std::to_string(Workers));
  }
}

/// A cap is refused where nothing would enforce it: every cap needs a
/// governed atomicity primary, and the node and memory caps need
/// Velodrome's probe. A zero is no cap, and the defaults always pass.
TEST(PlanTest, CapsNothingEnforcesAreRefused) {
  struct Cap {
    const char *Flag;
    void (*Set)(GovernorLimits &);
  };
  const Cap Caps[] = {
      {"--max-events", [](GovernorLimits &L) { L.MaxEvents = 10; }},
      {"--max-live-nodes", [](GovernorLimits &L) { L.MaxLiveNodes = 1; }},
      {"--max-memory-mb", [](GovernorLimits &L) { L.MaxMemoryBytes = 1; }},
      {"--deadline-ms", [](GovernorLimits &L) { L.DeadlineMillis = 10; }}};
  for (const char *Sel : {"velodrome", "basic", "aero", "atomizer", "eraser",
                          "hb", "deadlock", "all"}) {
    const std::string S = Sel;
    const bool Governed = S == "velodrome" || S == "basic" || S == "aero" ||
                          S == "all";
    const bool Probed = S == "velodrome" || S == "all";
    for (const Cap &K : Caps) {
      PlanConfig C = config(Sel, GovernorLimits::defaults().MaxLiveNodes);
      K.Set(C.Limits);
      const std::string F = K.Flag;
      const bool NeedsProbe = F == "--max-live-nodes" || F == "--max-memory-mb";
      const bool Enforced = Governed && (Probed || !NeedsProbe);
      std::string Err;
      std::unique_ptr<AnalysisPlan> P = AnalysisPlan::create(C, Err);
      EXPECT_EQ(P != nullptr, Enforced) << Sel << " " << F;
      if (!Enforced) {
        EXPECT_EQ(Err.rfind(F + " needs ", 0), 0u) << Err;
      }
    }
    std::string Err;
    EXPECT_TRUE(AnalysisPlan::create(config(Sel, 0), Err)) << Sel << Err;
    EXPECT_TRUE(AnalysisPlan::create(
        config(Sel, GovernorLimits::defaults().MaxLiveNodes), Err))
        << Sel << Err;
  }
}

TEST(PlanTest, StoppedPipelineCountsAsOfTheStopEvent) {
  for (bool Lenient : {false, true}) {
    const std::string Text = wideTrace(60, Lenient);
    const PlanConfig C =
        config("velodrome", 40,
               Lenient ? SanitizeMode::Lenient : SanitizeMode::Strict);
    Outcome Want = runSequential(Text, C);
    ASSERT_EQ(Want.Exit, 3) << Want.Text;
    ASSERT_LT(Want.Events, Lenient ? 180u : 120u)
        << "the cap must stop the run mid-trace";
    EXPECT_EQ(Want.Notes.find("lenient:") != std::string::npos, Lenient)
        << Want.Notes;
    for (size_t Batch : {1u, 2u, 3u, 7u, 64u, 4096u}) {
      std::vector<uint64_t> Cuts;
      const std::string What = std::string(Lenient ? "lenient" : "strict") +
                               ", batch " + std::to_string(Batch);
      expectSame(Want, runPipeline(Text, C, Batch, 0, &Cuts, 5), What);
      for (uint64_t Cut : Cuts)
        EXPECT_LT(Cut, Want.Events) << What << ": a cut at or past the stop";
    }
  }
}

/// Under --reduce the filter stage runs ahead of the stop as the sanitizer
/// does: each thread writes a variable of its own twice outside any
/// transaction (the second write is dropped) before it opens one.
TEST(PlanTest, StoppedReducedPipelineCountsAsOfTheStopEvent) {
  std::string Text;
  for (int I = 1; I <= 60; ++I) {
    const std::string Th = "T" + std::to_string(I);
    const std::string Own = " wr v" + std::to_string(I) + "\n";
    Text += Th + Own + Th + Own + Th + " begin m\n" + Th + " rd x\n";
  }
  for (int I = 1; I <= 60; ++I)
    Text += "T" + std::to_string(I) + " end\n";
  PlanConfig C = config("velodrome", 40);
  C.Reduce = PassMask::all();
  Outcome Want = runSequential(Text, C);
  ASSERT_EQ(Want.Exit, 3) << Want.Text;
  ASSERT_NE(Want.Reduced.find("dropped="), std::string::npos);
  EXPECT_EQ(Want.Reduced.find("dropped=0/"), std::string::npos)
      << "the trace must drop events before the stop: " << Want.Reduced;
  for (size_t Batch : {1u, 2u, 3u, 7u, 64u, 4096u})
    expectSame(Want, runPipeline(Text, C, Batch, 0),
               "batch " + std::to_string(Batch));
}

TEST(PlanTest, ResumedRunPrintsTheStopNoteOnce) {
  TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Steps = 600;
  const Trace T = generateRandomTrace(7, Opts);
  const PlanConfig C = config("all", 3);

  std::string Notes;
  std::unique_ptr<AnalysisPlan> Straight = makePlan(C, Notes);
  Straight->begin(T.symbols());
  for (const Event &E : T)
    ASSERT_TRUE(Straight->feed(E));
  Straight->finish();
  const Outcome Want = outcome(*Straight, T.symbols(), Notes);
  ASSERT_EQ(Want.Notes.rfind(StopNote, 0), 0u) << Want.Notes;

  for (size_t CutAt : {T.size() / 3, T.size() / 2, T.size() - 1}) {
    std::string Before;
    std::unique_ptr<AnalysisPlan> First = makePlan(C, Before);
    First->begin(T.symbols());
    for (size_t I = 0; I < CutAt; ++I)
      ASSERT_TRUE(First->feed(T[I]));
    ASSERT_NE(First->governorState(), GovernorState::Normal)
        << "cut after the reference stopped";
    SnapshotWriter W;
    First->write(W, First->cut());

    SnapshotReader R(W.payload());
    PlanHead H;
    ASSERT_TRUE(AnalysisPlan::readHead(R, H));
    std::string After, Err;
    std::unique_ptr<AnalysisPlan> Resumed = makePlan(H.Config, After);
    SymbolTable Syms;
    ASSERT_TRUE(Resumed->restore(H, R, Syms, Err)) << Err;
    for (size_t I = CutAt; I < T.size(); ++I)
      ASSERT_TRUE(Resumed->feed(T[I]));
    Resumed->finish();
    EXPECT_TRUE(Before.empty()) << "notes are written at the end only";
    expectSame(Want, outcome(*Resumed, Syms, After),
               "cut at " + std::to_string(CutAt));
  }
}

TEST(PlanTest, RestoreChecksTheSavedBackendNames) {
  SymbolTable Syms;
  std::string Notes, Err;
  std::unique_ptr<AnalysisPlan> All = makePlan(config("all", 3), Notes);
  All->begin(Syms);
  SnapshotWriter W;
  All->write(W, All->cut());

  // A body whose back-end list names another configuration's checkers.
  SnapshotReader R(W.payload());
  PlanHead H;
  ASSERT_TRUE(AnalysisPlan::readHead(R, H));
  std::unique_ptr<AnalysisPlan> Other =
      makePlan(config("hb", GovernorLimits::defaults().MaxLiveNodes), Notes);
  SymbolTable Fresh;
  EXPECT_FALSE(Other->restore(H, R, Fresh, Err));
  EXPECT_FALSE(Err.empty());
}

} // namespace
