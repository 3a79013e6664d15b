//===- tests/ParallelPipelineTest.cpp - Parallel pipeline unit tests ------===//
//
// The deterministic concurrency harness for src/parallel: every test runs
// the same input through the sequential reference loop and through the
// ParallelPipeline, then requires byte-identical serialized back-end
// state, identical warning lists, and identical error reporting. The
// injectable stall hook (ParallelOptions::Stall / VELO_PIPELINE_STALL)
// forces each stage in turn to be the slowest, so queue-full and
// queue-drain interleavings are exercised on purpose rather than left to
// scheduler luck.
//
//===----------------------------------------------------------------------===//

#include "events/TraceGen.h"

#include "PipelineHarness.h"

#include "gtest/gtest.h"

#include <thread>

using namespace velo;

namespace {

std::string genTrace(uint64_t Seed, size_t Steps, bool ForkJoin = false) {
  TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Vars = 6;
  Opts.Locks = 3;
  Opts.Steps = Steps;
  Opts.GuardedAccessPct = 40;
  Opts.UseForkJoin = ForkJoin;
  return printTrace(generateRandomTrace(Seed, Opts));
}

//===----------------------------------------------------------------------===//
// Stall-point injection: force each stage to be the slowest in turn.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, EveryStageSlowestIsEquivalent) {
  const std::string Text = genTrace(11, 400);
  const ReductionPlan Plan = planFor(Text);
  RunResult Seq = runSequential(Text, SanitizeMode::Strict, &Plan);
  const int Stages[] = {PipelineStall::Reader, PipelineStall::Sanitizer,
                        PipelineStall::Filter, PipelineStall::Worker};
  for (int Stage : Stages) {
    ParallelOptions Opts;
    Opts.BatchEvents = 16;
    Opts.RingDepth = 2; // small rings: the stall actually fills queues
    Opts.Stall.At = Stage;
    Opts.Stall.MicrosPerBatch = 300;
    RunResult Par = runPipeline(Text, SanitizeMode::Strict, &Plan, Opts);
    expectSame(Seq, Par, "stalled stage " + std::to_string(Stage));
  }
}

TEST(ParallelPipeline, StallOneWorkerOnly) {
  const std::string Text = genTrace(12, 300);
  RunResult Seq = runSequential(Text, SanitizeMode::Strict, nullptr);
  ParallelOptions Opts;
  Opts.BatchEvents = 8;
  Opts.Workers = 3;
  Opts.Stall.At = PipelineStall::Worker;
  Opts.Stall.WorkerIndex = 1; // only the middle worker drags
  Opts.Stall.MicrosPerBatch = 400;
  RunResult Par = runPipeline(Text, SanitizeMode::Strict, nullptr, Opts);
  expectSame(Seq, Par, "one slow worker");
}

//===----------------------------------------------------------------------===//
// Queue-full (backpressure) and queue-drain paths, with ring high-water
// marks as evidence the path was actually taken.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, SlowWorkerFillsReaderRing) {
  const std::string Text = genTrace(13, 600);
  RunResult Seq = runSequential(Text, SanitizeMode::Strict, nullptr);
  ParallelOptions Opts;
  Opts.BatchEvents = 4;
  Opts.RingDepth = 2;
  Opts.Stall.At = PipelineStall::Worker;
  Opts.Stall.MicrosPerBatch = 500;
  RunResult Par = runPipeline(Text, SanitizeMode::Strict, nullptr, Opts);
  expectSame(Seq, Par, "backpressure");
  // The reader outruns the stalled consumer: its ring must have hit
  // capacity (push blocked) at least once.
  EXPECT_EQ(Par.PR.ReaderRingHigh, 2u);
  EXPECT_GE(Par.PR.Batches, 100u);
}

TEST(ParallelPipeline, SlowReaderKeepsDownstreamDrained) {
  const std::string Text = genTrace(14, 200);
  RunResult Seq = runSequential(Text, SanitizeMode::Strict, nullptr);
  ParallelOptions Opts;
  Opts.BatchEvents = 4;
  Opts.RingDepth = 4;
  Opts.Stall.At = PipelineStall::Reader;
  Opts.Stall.MicrosPerBatch = 500;
  RunResult Par = runPipeline(Text, SanitizeMode::Strict, nullptr, Opts);
  expectSame(Seq, Par, "drain");
  // Consumers idle-wait on a slow producer: occupancy stays minimal.
  EXPECT_LE(Par.PR.WorkerRingHigh, 2u);
}

//===----------------------------------------------------------------------===//
// Degenerate sizes.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, ZeroEventTrace) {
  for (const char *Text : {"", "# only a comment\n", "\n\n"}) {
    RunResult Seq = runSequential(Text, SanitizeMode::Strict, nullptr);
    RunResult Par = runPipeline(Text, SanitizeMode::Strict, nullptr,
                                ParallelOptions());
    expectSame(Seq, Par, std::string("zero events: '") + Text + "'");
    EXPECT_EQ(Par.Events, 0u);
  }
}

TEST(ParallelPipeline, OneEventTrace) {
  RunResult Seq = runSequential("T0 wr x\n", SanitizeMode::Strict, nullptr);
  RunResult Par = runPipeline("T0 wr x\n", SanitizeMode::Strict, nullptr,
                              ParallelOptions());
  expectSame(Seq, Par, "one event");
  EXPECT_EQ(Par.Events, 1u);
}

TEST(ParallelPipeline, BatchSizeOne) {
  const std::string Text = genTrace(15, 150, /*ForkJoin=*/true);
  RunResult Seq = runSequential(Text, SanitizeMode::Strict, nullptr);
  ParallelOptions Opts;
  Opts.BatchEvents = 1;
  RunResult Par = runPipeline(Text, SanitizeMode::Strict, nullptr, Opts);
  expectSame(Seq, Par, "batch=1");
}

//===----------------------------------------------------------------------===//
// Error propagation matches the sequential loop exactly.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, ParseErrorPropagates) {
  const std::string Text = "T0 wr x\nT1 rd x\nbogus line $$$\nT0 wr y\n";
  for (size_t Batch : {size_t(1), size_t(2), size_t(4096)}) {
    ParallelOptions Opts;
    Opts.BatchEvents = Batch;
    RunResult Seq = runSequential(Text, SanitizeMode::Lenient, nullptr);
    RunResult Par = runPipeline(Text, SanitizeMode::Lenient, nullptr, Opts);
    expectSame(Seq, Par, "parse error, batch=" + std::to_string(Batch));
    EXPECT_EQ(static_cast<int>(Par.Err),
              static_cast<int>(PipelineError::Parse));
    EXPECT_EQ(Par.Detail.rfind("line 3:", 0), 0u) << Par.Detail;
    // The two well-formed events before the bad line were delivered.
    EXPECT_EQ(Par.Events, 2u);
  }
}

TEST(ParallelPipeline, StrictRejectionPropagates) {
  // Release of an unheld lock: parses fine, strict sanitizer rejects.
  const std::string Text = "T0 wr x\nT0 rel m\nT0 wr y\n";
  RunResult Seq = runSequential(Text, SanitizeMode::Strict, nullptr);
  ParallelOptions Opts;
  Opts.BatchEvents = 1;
  RunResult Par = runPipeline(Text, SanitizeMode::Strict, nullptr, Opts);
  expectSame(Seq, Par, "strict rejection");
  EXPECT_EQ(static_cast<int>(Par.Err),
            static_cast<int>(PipelineError::Sanitize));
  EXPECT_FALSE(Par.Detail.empty());
}

TEST(ParallelPipeline, LenientRepairEquivalence) {
  // The same malformed text repairs identically in both loops (repair
  // counters included).
  const std::string Text =
      "T0 acq m\nT0 acq m\nT0 wr x\nT1 rel m\nT0 begin\nT0 wr y\n";
  RunResult Seq = runSequential(Text, SanitizeMode::Lenient, nullptr);
  ParallelOptions Opts;
  Opts.BatchEvents = 2;
  RunResult Par = runPipeline(Text, SanitizeMode::Lenient, nullptr, Opts);
  expectSame(Seq, Par, "lenient repairs");
  EXPECT_GT(Par.Repairs, 0u);
}

//===----------------------------------------------------------------------===//
// Checkpoint tickets.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, CheckpointCutsAreOrderedAndComplete) {
  const std::string Text = genTrace(16, 500);
  std::vector<CheckpointCut> Cuts;
  ParallelOptions Opts;
  Opts.BatchEvents = 16;
  Opts.CheckpointEvery = 100;
  Opts.CheckpointSink = [&](const CheckpointCut &Cut, std::string &) {
    Cuts.push_back(Cut); // single-threaded by construction (ordered sink)
    return true;
  };
  RunResult Seq = runSequential(Text, SanitizeMode::Strict, nullptr);
  RunResult Par = runPipeline(Text, SanitizeMode::Strict, nullptr, Opts);
  expectSame(Seq, Par, "checkpointing run");

  ASSERT_GE(Cuts.size(), 3u);
  uint64_t PrevEvents = 0, PrevOffset = 0;
  for (const CheckpointCut &Cut : Cuts) {
    EXPECT_GT(Cut.EventsSeen, PrevEvents) << "cuts must move forward";
    EXPECT_GT(Cut.ByteOffset, PrevOffset);
    PrevEvents = Cut.EventsSeen;
    PrevOffset = Cut.ByteOffset;
    EXPECT_FALSE(Cut.SymsBlob.empty());
    EXPECT_FALSE(Cut.SanBlob.empty());
    ASSERT_EQ(Cut.Backends.size(), 5u);
    for (const auto &NameAndBlob : Cut.Backends) {
      EXPECT_FALSE(NameAndBlob.first.empty());
      EXPECT_FALSE(NameAndBlob.second.empty())
          << NameAndBlob.first << " deposited no state";
    }
  }
}

TEST(ParallelPipeline, CheckpointSinkFailureAbortsRun) {
  const std::string Text = genTrace(17, 400);
  ParallelOptions Opts;
  Opts.BatchEvents = 8;
  Opts.CheckpointEvery = 50;
  Opts.CheckpointSink = [](const CheckpointCut &, std::string &Error) {
    Error = "disk full (synthetic)";
    return false;
  };
  RunResult Par = runPipeline(Text, SanitizeMode::Strict, nullptr, Opts);
  EXPECT_EQ(static_cast<int>(Par.Err),
            static_cast<int>(PipelineError::Checkpoint));
  EXPECT_EQ(Par.Detail, "disk full (synthetic)");
}

//===----------------------------------------------------------------------===//
// Shared-state audit regression: two pipelines in one process must not
// interact (satellite of the ownership audit — the only process-global
// piece of state is the crash-diagnostics ring, which is single-writer
// and off by default here: NoteCrashEvents defaults to false).
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, TwoConcurrentPipelinesDoNotInteract) {
  const std::string TextA = genTrace(18, 500);
  const std::string TextB = genTrace(19, 500, /*ForkJoin=*/true);
  RunResult SeqA = runSequential(TextA, SanitizeMode::Strict, nullptr);
  RunResult SeqB = runSequential(TextB, SanitizeMode::Strict, nullptr);

  RunResult ParA, ParB;
  std::thread TA([&] {
    ParallelOptions Opts;
    Opts.BatchEvents = 8;
    ParA = runPipeline(TextA, SanitizeMode::Strict, nullptr, Opts);
  });
  std::thread TB([&] {
    ParallelOptions Opts;
    Opts.BatchEvents = 4;
    ParB = runPipeline(TextB, SanitizeMode::Strict, nullptr, Opts);
  });
  TA.join();
  TB.join();
  expectSame(SeqA, ParA, "pipeline A next to pipeline B");
  expectSame(SeqB, ParB, "pipeline B next to pipeline A");
}

//===----------------------------------------------------------------------===//
// Worker-count and grouping edge cases.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, WorkerCountsAllEquivalent) {
  const std::string Text = genTrace(20, 300);
  const ReductionPlan Plan = planFor(Text);
  RunResult Seq = runSequential(Text, SanitizeMode::Strict, &Plan);
  for (unsigned W : {1u, 2u, 3u, 5u, 9u}) {
    ParallelOptions Opts;
    Opts.Workers = W;
    Opts.BatchEvents = 8;
    RunResult Par = runPipeline(Text, SanitizeMode::Strict, &Plan, Opts);
    expectSame(Seq, Par, "workers=" + std::to_string(W));
  }
}

//===----------------------------------------------------------------------===//
// The stall-spec parser behind VELO_PIPELINE_STALL.
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, StallSpecParser) {
  PipelineStall St;
  ASSERT_TRUE(parsePipelineStall("reader:500", St));
  EXPECT_EQ(St.At, PipelineStall::Reader);
  EXPECT_EQ(St.MicrosPerBatch, 500u);
  ASSERT_TRUE(parsePipelineStall("sanitizer:1", St));
  EXPECT_EQ(St.At, PipelineStall::Sanitizer);
  ASSERT_TRUE(parsePipelineStall("filter:1000", St));
  EXPECT_EQ(St.At, PipelineStall::Filter);
  ASSERT_TRUE(parsePipelineStall("worker:250", St));
  EXPECT_EQ(St.At, PipelineStall::Worker);
  EXPECT_EQ(St.WorkerIndex, -1);
  ASSERT_TRUE(parsePipelineStall("worker2:250", St));
  EXPECT_EQ(St.WorkerIndex, 2);

  // Numbers that do not fit the field are refused, not wrapped.
  for (const char *Bad : {"", "reader", "reader:", ":500", "oven:10",
                          "worker:x", "workerx:10", "reader:5x",
                          "reader:4294967297", "worker4294967296:5",
                          "worker99999999999999999999:5"})
    EXPECT_FALSE(parsePipelineStall(Bad, St)) << Bad;
  EXPECT_FALSE(parsePipelineStall(nullptr, St));
}

} // namespace
