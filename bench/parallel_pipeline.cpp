//===- bench/parallel_pipeline.cpp - Parallel-pipeline speedup bench ------===//
//
// Measures the parallel analysis pipeline (src/parallel) against the
// sequential streaming loop on a multi-back-end run: one synthetic trace,
// five back-ends (Velodrome, AeroDrome, Eraser, HB, Atomizer — the
// reference checker BasicVelodrome is excluded, its quadratic replay would
// swamp the measurement), events/sec and speedup reported.
//
// The workload is mostly thread-local work with occasional lock-guarded
// shared transactions — the shape the paper's benchmarks have, and the one
// a deployment would stream.
//
//   parallel_pipeline [options]   (`parallel_pipeline --help` lists them)
//
// --check first verifies the hard invariant (identical verdicts and
// warning lists between the sequential and parallel runs; this part always
// runs and always gates), then gates the speedup: >= --min-speedup
// (default 1.8) when the host has at least 4 hardware threads. On smaller
// hosts the speedup gate is skipped — a 1-core container cannot
// demonstrate parallel speedup — unless --min-speedup was given
// explicitly. Exit status: 0 pass, 1 gate failed, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "eraser/Eraser.h"
#include "events/TraceGen.h"
#include "events/TraceSanitizer.h"
#include "events/TraceSource.h"
#include "events/TraceText.h"
#include "hbrace/HbRaceDetector.h"
#include "parallel/Pipeline.h"
#include "support/Flags.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace velo;

namespace {

/// Write an approximately NumEvents-long well-formed trace to Path in
/// bounded memory (closed chunks). Mostly thread-local accesses (each
/// thread hits its own variable slice) with occasional lock-guarded shared
/// transactions.
uint64_t writeBigTrace(const std::string &Path, uint64_t NumEvents,
                       uint32_t Threads, uint64_t Seed) {
  std::ofstream Out(Path);
  TraceGenOptions Opts;
  Opts.Threads = Threads;
  Opts.Vars = Threads * 16; // wide variable space: little contention
  Opts.Locks = 4;
  Opts.Steps = 20000;
  Opts.GuardedAccessPct = 70;
  uint64_t Written = 0;
  for (uint64_t Chunk = 0; Written < NumEvents; ++Chunk) {
    Trace T = generateClosedChunk(Seed, Chunk, Opts);
    Out << printTrace(T);
    Written += T.size();
  }
  return Written;
}

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

/// Open Path the way velodrome-check does. Null on failure.
std::unique_ptr<TraceSource> openSource(const std::string &Path,
                                        SymbolTable &Syms) {
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string Err;
  auto Src = openTraceSource(Path, Syms, St, Err);
  if (!Src)
    std::fprintf(stderr, "%s\n", Err.c_str());
  return Src;
}

/// The sequential baseline: exactly velodrome-check's default streaming
/// loop shape (TraceSource -> TraceSanitizer -> every back-end in turn).
bool runSequential(const std::string &Path, BackendSet &Set,
                   uint64_t &EventsOut) {
  SymbolTable Syms;
  auto TS = openSource(Path, Syms);
  if (!TS)
    return false;
  TraceSanitizer San(SanitizeMode::Lenient);
  std::vector<Backend *> Delivery = Set.all();
  for (Backend *B : Delivery)
    B->beginAnalysis(Syms);
  EventsOut = 0;
  Event E;
  std::vector<Event> Clean;
  while (TS->next(E)) {
    Clean.clear();
    if (!San.push(E, Clean, TS->lineNo()))
      return false;
    for (const Event &C : Clean) {
      ++EventsOut;
      for (Backend *B : Delivery)
        B->onEvent(C);
    }
  }
  if (TS->failed())
    return false;
  Clean.clear();
  San.finish(Clean);
  for (const Event &C : Clean) {
    ++EventsOut;
    for (Backend *B : Delivery)
      B->onEvent(C);
  }
  for (Backend *B : Delivery)
    B->endAnalysis();
  return true;
}

bool runParallel(const std::string &Path, unsigned Workers, BackendSet &Set,
                 uint64_t &EventsOut) {
  SymbolTable Syms;
  auto Src = openSource(Path, Syms);
  if (!Src)
    return false;
  TraceSanitizer San(SanitizeMode::Lenient);
  std::vector<Backend *> Delivery = Set.all();
  for (Backend *B : Delivery)
    B->beginAnalysis(Syms);
  ParallelOptions Opts;
  Opts.Workers = Workers;
  ParallelPipeline Pipe(*Src, Syms, San, nullptr, Delivery, std::move(Opts));
  PipelineResult R = Pipe.run();
  EventsOut = R.EventsSeen;
  return R.Err == PipelineError::None;
}

/// Identical verdict + warning list, back-end by back-end.
bool sameOutput(BackendSet &A, BackendSet &B, std::string &WhyOut) {
  std::vector<Backend *> As = A.all(), Bs = B.all();
  for (size_t I = 0; I < As.size(); ++I) {
    if (As[I]->sawViolation() != Bs[I]->sawViolation()) {
      WhyOut = std::string(As[I]->name()) + ": verdict differs";
      return false;
    }
    const std::vector<Warning> &AW = As[I]->warnings();
    const std::vector<Warning> &BW = Bs[I]->warnings();
    if (AW.size() != BW.size()) {
      WhyOut = std::string(As[I]->name()) + ": warning count " +
               std::to_string(AW.size()) + " vs " +
               std::to_string(BW.size());
      return false;
    }
    for (size_t J = 0; J < AW.size(); ++J)
      if (AW[J].Message != BW[J].Message) {
        WhyOut = std::string(As[I]->name()) + ": warning " +
                 std::to_string(J) + " differs";
        return false;
      }
  }
  return true;
}

double minSeconds(int Reps, const std::function<void()> &Fn) {
  double Best = 1e30;
  for (int R = 0; R < Reps; ++R) {
    Stopwatch Timer;
    Fn();
    double S = Timer.seconds();
    if (S < Best)
      Best = S;
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Events = 2000000, Threads = 8, Workers = 0, Reps = 3, Seed = 1;
  bool Check = false, Keep = false, ExplicitGate = false;
  double MinSpeedup = 1.8;

  const FlagTable Table{
      "parallel_pipeline [options]",
      {u64Flag("--events=N", Events,
               "approximate trace length (default 2000000)"),
       u64Flag("--threads=N", Threads,
               "threads in the generated trace (default 8)", 1, UINT32_MAX),
       u64Flag("--workers=N", Workers,
               "pipeline worker threads (default: one per back-end)"),
       u64Flag("--reps=N", Reps, "timing repetitions, best-of (default 3)", 1),
       u64Flag("--seed=N", Seed, "generator seed (default 1)"),
       boolFlag("--check", Check,
                "gate: identical output, then speedup >= --min-speedup"),
       {"--min-speedup=X",
        [&](const std::string &V) {
          char *End = nullptr;
          MinSpeedup = std::strtod(V.c_str(), &End);
          ExplicitGate = true;
          return !V.empty() && *End == '\0' && MinSpeedup > 0;
        },
        "speedup gate (default 1.8); given, the gate runs even on hosts "
        "with < 4 hardware threads"},
       boolFlag("--keep", Keep, "keep the generated trace file")},
      "exit: 0 pass, 1 gate failed, 2 usage error\n"};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(argc, argv, Operands); Rc >= 0)
    return Rc;

  std::string Path = "/tmp/parallel_pipeline_bench.trace";
  uint64_t Written = writeBigTrace(Path, Events,
                                   static_cast<uint32_t>(Threads), Seed);
  std::printf("trace: %llu events, %llu thread(s); pipeline workers: %s; "
              "host threads: %u\n",
              static_cast<unsigned long long>(Written),
              static_cast<unsigned long long>(Threads),
              Workers ? std::to_string(Workers).c_str() : "one per back-end",
              std::thread::hardware_concurrency());

  // Identity first (and always): one sequential + one parallel run, full
  // verdict and warning-list comparison. These runs double as warm-up.
  BackendSet SeqSet, ParSet;
  uint64_t SeqEvents = 0, ParEvents = 0;
  if (!runSequential(Path, SeqSet, SeqEvents)) {
    std::fprintf(stderr, "sequential run failed on the generated trace\n");
    return 1;
  }
  if (!runParallel(Path, static_cast<unsigned>(Workers), ParSet, ParEvents)) {
    std::fprintf(stderr, "parallel run failed on the generated trace\n");
    return 1;
  }
  std::string Why;
  if (SeqEvents != ParEvents) {
    std::fprintf(stderr, "FAIL: event counts differ (sequential %llu, "
                 "parallel %llu)\n",
                 static_cast<unsigned long long>(SeqEvents),
                 static_cast<unsigned long long>(ParEvents));
    return 1;
  }
  if (!sameOutput(SeqSet, ParSet, Why)) {
    std::fprintf(stderr, "FAIL: parallel output differs: %s\n", Why.c_str());
    return 1;
  }
  std::printf("identity: verdicts and warning lists identical across %zu "
              "back-ends\n", SeqSet.all().size());

  double SeqSec = minSeconds(static_cast<int>(Reps), [&] {
    BackendSet S;
    uint64_t N;
    runSequential(Path, S, N);
  });
  double ParSec = minSeconds(static_cast<int>(Reps), [&] {
    BackendSet S;
    uint64_t N;
    runParallel(Path, static_cast<unsigned>(Workers), S, N);
  });
  double Speedup = ParSec > 0 ? SeqSec / ParSec : 0;
  std::printf("sequential: %.3fs (%.0f ev/s)\n"
              "parallel:   %.3fs (%.0f ev/s)\n"
              "speedup:    %.2fx\n",
              SeqSec, SeqEvents / SeqSec, ParSec, ParEvents / ParSec,
              Speedup);

  if (!Keep)
    std::remove(Path.c_str());

  if (!Check)
    return 0;
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw < 4 && !ExplicitGate) {
    // A host without parallelism cannot demonstrate parallel speedup; the
    // identity half of the gate already ran above.
    std::printf("speedup gate skipped: %u hardware thread(s)\n", Hw);
    return 0;
  }
  if (Speedup < MinSpeedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the %.2fx gate\n",
                 Speedup, MinSpeedup);
    return 1;
  }
  std::printf("speedup gate passed (>= %.2fx)\n", MinSpeedup);
  return 0;
}
