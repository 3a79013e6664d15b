//===- tools/velodrome-check.cpp - Offline trace checker CLI --------------===//
//
// Command-line front end for analysing recorded traces: the shape of tool a
// downstream user points at a trace dump from their own instrumentation.
//
//   velodrome-check [options] <trace-file>
//
//     --backend=<velodrome|basic|aero|atomizer|eraser|hb|deadlock|all>
//                      (default all; deadlock is the lock-order-cycle
//                      checker and must be selected explicitly)
//     --format=<text|json|sarif>  report rendering (default text; see
//                      docs/REPORTING.md for the JSON schema and SARIF
//                      conventions). Machine formats replace the stdout
//                      report; stderr and the exit code are unchanged.
//     --max-warnings=N cap recorded warnings per back-end (0 = unlimited)
//     --dot=<file>     write the first violation's error graph as dot
//     --witness        print a serial witness when the trace is serializable
//     --no-merge       run Velodrome with the naive [INS OUTSIDE] rule
//     --reduce=<spec>  statically reduce the trace before analysis; spec is
//                      all, none, or a comma list of escape, readonly,
//                      redundant, lockset (docs/STATIC.md). Verdict and
//                      warnings are identical to the unreduced run.
//     --stats          print happens-before graph statistics (and per-pass
//                      reduction counts under --reduce)
//     --quiet          verdict only
//     --lenient        repair ill-formed traces instead of rejecting them
//     --parallel[=N]   run parsing, sanitizing, reduction, and the
//                      back-ends as a multi-threaded pipeline with N
//                      worker threads (default: one per back-end). The
//                      report is byte-identical to the sequential run
//                      (docs/PARALLEL.md). Composes with --reduce,
//                      --stats, --checkpoint/--resume (snapshots land on
//                      batch boundaries), and --supervise; incompatible
//                      with --witness and with explicit resource caps.
//     --batch-events=N events per pipeline batch          (default 4096)
//     --max-events=N       stop after N events            (0 = unlimited)
//     --max-live-nodes=N   graph node cap, fall back to the vector-clock
//                          checker on breach              (default 60000)
//     --max-memory-mb=N    estimated-memory cap           (0 = unlimited)
//     --deadline-ms=N      wall-clock budget              (0 = unlimited)
//
//   Crash resilience (docs/OPERATIONS.md):
//     --checkpoint=<file>    write atomic snapshots of the analysis state
//     --checkpoint-every=N   events between snapshots     (default 4096)
//     --resume=<file>        continue a run from a snapshot; the verdict
//                            and warnings are identical to an uninterrupted
//                            run over the same trace
//     --supervise            fork the analysis into a worker, restart it
//                            from the last checkpoint when a signal kills
//                            it (requires --checkpoint)
//     --max-crashes=K        consecutive crashes in the same event window
//                            before giving up with a bundle (default 3)
//     --crash-at=N           test hook: die after N events this process
//     --crash-signal=S       test hook: signal to die with (default KILL)
//
// The trace is streamed: events reach the back-ends as they are parsed, so
// memory stays constant in the trace length (the file is buffered only for
// --witness, whose serializability oracle needs random access). A text
// trace may come from a pipe, a FIFO or /dev/stdin; a .vtrc container,
// --reduce and --checkpoint/--resume need a regular file (exit 2 otherwise).
//
// Exit status: 0 serializable, 1 atomicity violation, 2 usage/input error,
// 3 resource-limited (budget exhausted before a verdict was reached),
// 4 crashed repeatedly under --supervise (see the crash bundle).
// docs/INGESTION.md and docs/OPERATIONS.md specify the full contract.
//
//===----------------------------------------------------------------------===//

#include "analysis/CrashDump.h"
#include "analysis/Plan.h"
#include "events/TraceSanitizer.h"
#include "events/TraceSource.h"
#include "events/TraceText.h"
#include "oracle/SerializabilityOracle.h"
#include "parallel/Pipeline.h"
#include "report/Report.h"
#include "staticpass/PassManager.h"
#include "staticpass/ReductionFilter.h"
#include "support/ParseInt.h"
#include "support/Syscalls.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace velo;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: velodrome-check [options] <trace-file>\n"
      "  <trace-file> may be text or a VELOTRC .vtrc container\n"
      "  (auto-detected; see velodrome-convert and docs/INGESTION.md)\n"
      "  --backend=<velodrome|basic|aero|atomizer|eraser|hb|deadlock|all>"
      "  (default all)\n"
      "  --format=<text|json|sarif>  report rendering (default text;\n"
      "                 see docs/REPORTING.md)\n"
      "  --max-warnings=N  cap recorded warnings per back-end\n"
      "                 (0 = unlimited)\n"
      "  --dot=<file>   write the first violation's error graph\n"
      "  --witness      print a serial witness when serializable\n"
      "  --no-merge     disable the merge optimization\n"
      "  --reduce=<all|none|escape,readonly,redundant,lockset>\n"
      "                 sound static reduction before analysis\n"
      "                 (see docs/STATIC.md)\n"
      "  --stats        print happens-before graph statistics\n"
      "  --quiet        verdict only\n"
      "  --lenient      repair ill-formed traces instead of rejecting\n"
      "  --salvage      accept the longest intact frame prefix of a\n"
      "                 truncated .vtrc container (crashed tracer; see\n"
      "                 docs/TRACING.md)\n"
      "  --parallel[=N] multi-threaded pipeline, N back-end workers\n"
      "                 (byte-identical report; see docs/PARALLEL.md)\n"
      "  --batch-events=N  events per pipeline batch (default 4096)\n"
      "  --max-events=N --max-live-nodes=N --max-memory-mb=N\n"
      "  --deadline-ms=N      resource governor caps (0 = unlimited;\n"
      "                       see docs/INGESTION.md)\n"
      "  --checkpoint=<file> --checkpoint-every=N --resume=<file>\n"
      "  --supervise --max-crashes=K   crash resilience\n"
      "  --grace-ms=N   SIGTERM/SIGINT: wait N ms for the worker's final\n"
      "                 checkpoint before SIGKILL (default 2000)\n"
      "                       (see docs/OPERATIONS.md)\n"
      "exit: 0 serializable, 1 violation, 2 usage/input error,\n"
      "      3 resource-limited, 4 crashed under --supervise,\n"
      "      128+N stopped by signal N after a clean checkpoint\n");
}

struct Options {
  PlanConfig Plan; ///< --backend, --lenient, --no-merge, --max-warnings, caps
  std::string TraceFile, DotFile;
  std::string ReduceSpec; ///< empty = reduction off
  std::string CheckpointFile, ResumeFile;
  uint64_t CheckpointEvery = 4096;
  uint64_t MaxCrashes = 3;
  uint64_t GraceMillis = 2000; ///< SIGTERM-to-SIGKILL escalation window
  uint64_t CrashAt = 0;  ///< test hook: die after N events this process
  uint64_t CrashSignal = SIGKILL;
  bool Supervise = false;
  bool Salvage = false; ///< --salvage: longest-prefix recovery for .vtrc
  bool Witness = false, Stats = false, Quiet = false;
  bool Parallel = false;       ///< --parallel given
  uint64_t ParallelWorkers = 0; ///< 0 = one worker per back-end
  uint64_t BatchEvents = 4096;
  bool BatchEventsSet = false;
  bool ExplicitLimits = false; ///< any resource-cap flag given
  ReportFormat Format = ReportFormat::Text;
};

/// Returns 0 to continue, 2 on usage error, -1 when --help was handled.
int parseArgs(int argc, char **argv, Options &O) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    uint64_t *U64Target = nullptr;
    size_t U64Prefix = 0;
    bool Valid = true;
    if (Arg.rfind("--backend=", 0) == 0) {
      O.Plan.BackendSel = Arg.substr(10);
    } else if (Arg.rfind("--dot=", 0) == 0) {
      O.DotFile = Arg.substr(6);
    } else if (Arg == "--witness") {
      O.Witness = true;
    } else if (Arg == "--no-merge") {
      O.Plan.NoMerge = true;
    } else if (Arg.rfind("--reduce=", 0) == 0) {
      O.ReduceSpec = Arg.substr(9);
    } else if (Arg == "--stats") {
      O.Stats = true;
    } else if (Arg == "--quiet") {
      O.Quiet = true;
    } else if (Arg == "--lenient") {
      O.Plan.Mode = SanitizeMode::Lenient;
    } else if (Arg == "--strict") {
      O.Plan.Mode = SanitizeMode::Strict;
    } else if (Arg == "--salvage") {
      O.Salvage = true;
    } else if (Arg.rfind("--format=", 0) == 0) {
      Valid = parseReportFormat(Arg.substr(9), O.Format);
    } else if (Arg.rfind("--max-warnings=", 0) == 0) {
      Valid = parseU64(Arg.c_str() + 15, O.Plan.MaxWarnings.emplace());
    } else if (Arg.rfind("--checkpoint=", 0) == 0) {
      O.CheckpointFile = Arg.substr(13);
    } else if (Arg.rfind("--resume=", 0) == 0) {
      O.ResumeFile = Arg.substr(9);
    } else if (Arg == "--supervise") {
      O.Supervise = true;
    } else if (Arg == "--parallel") {
      O.Parallel = true;
    } else if (Arg.rfind("--parallel=", 0) == 0) {
      O.Parallel = true;
      U64Target = &O.ParallelWorkers;
      U64Prefix = 11;
    } else if (Arg.rfind("--batch-events=", 0) == 0) {
      U64Target = &O.BatchEvents;
      U64Prefix = 15;
      O.BatchEventsSet = true;
    } else if (Arg.rfind("--checkpoint-every=", 0) == 0) {
      U64Target = &O.CheckpointEvery;
      U64Prefix = 19;
    } else if (Arg.rfind("--max-crashes=", 0) == 0) {
      U64Target = &O.MaxCrashes;
      U64Prefix = 14;
    } else if (Arg.rfind("--grace-ms=", 0) == 0) {
      U64Target = &O.GraceMillis;
      U64Prefix = 11;
    } else if (Arg.rfind("--crash-at=", 0) == 0) {
      U64Target = &O.CrashAt;
      U64Prefix = 11;
    } else if (Arg.rfind("--crash-signal=", 0) == 0) {
      U64Target = &O.CrashSignal;
      U64Prefix = 15;
    } else if (parseGovernorFlag(Arg, O.Plan.Limits, Valid)) {
      O.ExplicitLimits = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return -1;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", Arg.c_str());
      usage();
      return 2;
    } else if (O.TraceFile.empty()) {
      O.TraceFile = Arg;
    } else {
      usage();
      return 2;
    }
    if (!Valid ||
        (U64Target && !parseU64(Arg.c_str() + U64Prefix, *U64Target))) {
      std::fprintf(stderr, "invalid value in '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (O.TraceFile.empty()) {
    usage();
    return 2;
  }
  if (O.Witness && (!O.CheckpointFile.empty() || !O.ResumeFile.empty())) {
    std::fprintf(stderr, "error: --witness buffers the whole trace and is "
                         "incompatible with --checkpoint/--resume\n");
    return 2;
  }
  if (!O.ReduceSpec.empty()) {
    PassMask M;
    std::string Error;
    if (!parsePassSpec(O.ReduceSpec, M, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    if (O.Witness) {
      std::fprintf(stderr, "error: --witness replays the full trace and is "
                           "incompatible with --reduce\n");
      return 2;
    }
    if (O.Plan.NoMerge) {
      // Without merging every outside-transaction operation gets its own
      // graph node, so collapsed repeats change the naive mode's cycle
      // shapes (and its warning text). Reduction is only exact against the
      // paper's real algorithm.
      std::fprintf(stderr,
                   "error: --reduce is incompatible with --no-merge\n");
      return 2;
    }
  }
  if (O.Parallel) {
    // Composition matrix (docs/PARALLEL.md): --reduce, --stats,
    // --checkpoint/--resume, and --supervise compose with --parallel;
    // --witness and explicit resource caps do not.
    if (O.Witness) {
      std::fprintf(stderr,
                   "error: --witness buffers and replays the whole trace "
                   "serially and is incompatible with --parallel\n");
      return 2;
    }
    if (O.ExplicitLimits) {
      std::fprintf(stderr,
                   "error: explicit resource caps (--max-events, "
                   "--max-live-nodes, --max-memory-mb, --deadline-ms) stop "
                   "the analysis mid-stream and are incompatible with "
                   "--parallel (the pipeline only stops at batch "
                   "boundaries); run sequentially to use them\n");
      return 2;
    }
    if (O.BatchEvents == 0) {
      std::fprintf(stderr, "error: --batch-events must be > 0\n");
      return 2;
    }
  } else if (O.BatchEventsSet) {
    std::fprintf(stderr,
                 "error: --batch-events only applies to the parallel "
                 "pipeline; add --parallel\n");
    return 2;
  }
  if (O.Supervise && O.CheckpointFile.empty()) {
    std::fprintf(stderr,
                 "error: --supervise requires --checkpoint (the restart "
                 "point after a crash)\n");
    return 2;
  }
  if (O.CheckpointEvery == 0 || O.MaxCrashes == 0) {
    std::fprintf(stderr,
                 "error: --checkpoint-every and --max-crashes must be > 0\n");
    return 2;
  }
  if (O.CrashSignal == 0 || O.CrashSignal >= 32) {
    std::fprintf(stderr, "error: --crash-signal must be in [1, 31]\n");
    return 2;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Checkpoint layout (inside the versioned Snapshot container)
//===----------------------------------------------------------------------===//
//
//   str  trace path (diagnostic)        str  reduce spec ("" = off)
//   u64  byte offset | u64 line         blob reduction filter (empty = off)
//   the plan body (analysis/Plan.h): config, counters, symbols, sanitizer,
//   one named blob per live back-end
//
// The plan config makes the snapshot authoritative on resume: a resumed
// run always re-creates the exact pipeline that wrote it, which is what
// makes verdict/warning identity with a straight-through run hold. The
// stream position and the plan's counters precede the state blobs, so the
// supervisor can peek progress without decoding back-end state.

struct Checkpoint {
  SnapshotReader R; ///< positioned at the plan's state after loading
  std::string ReduceSpec;
  uint64_t ByteOffset = 0, LineNo = 0;
  SnapshotReader Filter;
  PlanHead Plan;
};

bool loadCheckpoint(const std::string &Path, Checkpoint &C,
                    std::string &ErrorOut) {
  if (!SnapshotReader::readFile(Path, C.R, ErrorOut))
    return false;
  C.R.str(); // trace path: diagnostic only
  C.ReduceSpec = C.R.str();
  C.ByteOffset = C.R.u64();
  C.LineNo = C.R.u64();
  C.Filter = C.R.blob();
  if (!AnalysisPlan::readHead(C.R, C.Plan)) {
    ErrorOut = "truncated snapshot header";
    return false;
  }
  return true;
}

/// Both pipelines checkpoint through here: the parallel one hands over the
/// cut it assembled at a batch boundary, the sequential loop the plan's
/// cut() at a record boundary, so either resumes the other's snapshots.
bool writeCheckpoint(const Options &O, const AnalysisPlan &Plan,
                     const CheckpointCut &Cut, std::string &ErrorOut) {
  SnapshotWriter W;
  W.str(O.TraceFile);
  W.str(O.ReduceSpec);
  W.u64(Cut.ByteOffset);
  W.u64(Cut.LineNo);
  W.str(Cut.FilterBlob);
  Plan.write(W, Cut);
  return W.writeFile(O.CheckpointFile, ErrorOut);
}

//===----------------------------------------------------------------------===//
// Graceful shutdown: SIGTERM/SIGINT set a flag; the sequential loop drains
// the record in flight, persists a final checkpoint at that boundary, and
// exits 128+signal. The supervisor forwards the signal to its worker and
// escalates to SIGKILL after --grace-ms, so a checkpoint write is never
// torn (writeFile is rename-atomic regardless; the grace window just lets
// the final snapshot land).
//===----------------------------------------------------------------------===//

volatile std::sig_atomic_t StopSignal = 0;

void noteStopSignal(int Sig) { StopSignal = Sig; }

void installStopHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = noteStopSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: blocked waits must wake up
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

void resetStopHandlers() {
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

//===----------------------------------------------------------------------===//
// One analysis run (fresh or resumed). Under --supervise this is the
// worker; otherwise it is the whole program.
//===----------------------------------------------------------------------===//

/// One stderr note per run describing what --salvage recovered, mirroring
/// the "lenient: repaired ..." note.
void printSalvageNote(const SalvageSummary &S) {
  if (!S.Used)
    return;
  std::fprintf(stderr,
               "salvage: recovered %llu frame(s) (%llu event(s)); dropped "
               "%llu trailing byte(s)\n",
               static_cast<unsigned long long>(S.FramesKept),
               static_cast<unsigned long long>(S.EventsKept),
               static_cast<unsigned long long>(S.BytesDropped));
}

/// Buffered read for the --witness path under --salvage: stream the
/// recovered prefix into a Trace. Err comes back already path-prefixed.
bool readTraceSalvaged(const std::string &Path, Trace &Out,
                       SalvageSummary &Salv, std::string &Err) {
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string OpenErr;
  TraceOpenOptions Opts;
  Opts.Salvage = true;
  Opts.SalvageOut = &Salv;
  auto Src = openTraceSource(Path, Out.symbols(), St, OpenErr, Opts);
  if (!Src) {
    Err = OpenErr;
    return false;
  }
  Event E;
  while (Src->next(E))
    Out.push(E);
  if (Src->failed()) {
    Err = describeFailure(*Src, Path);
    return false;
  }
  return true;
}

int runAnalysis(Options O) {
  Checkpoint Ckpt;
  bool Resuming = !O.ResumeFile.empty();
  if (Resuming) {
    std::string Error;
    if (!loadCheckpoint(O.ResumeFile, Ckpt, Error)) {
      std::fprintf(stderr, "error: cannot resume from %s: %s\n",
                   O.ResumeFile.c_str(), Error.c_str());
      return 2;
    }
    // The snapshot is authoritative for the analysis configuration; the
    // presentation flags (--quiet, --stats, --dot) stay as given.
    O.Plan = Ckpt.Plan.Config;
    O.ReduceSpec = Ckpt.ReduceSpec;
    // The caps travel with the snapshot, so a sequential run's explicit
    // caps would silently reappear under --parallel here; refuse just as
    // parseArgs does for caps given on the command line.
    const GovernorLimits &L = O.Plan.Limits;
    if (O.Parallel &&
        (L.MaxEvents != 0 || L.MaxMemoryBytes != 0 || L.DeadlineMillis != 0 ||
         L.MaxLiveNodes != GovernorLimits::defaults().MaxLiveNodes)) {
      std::fprintf(stderr,
                   "error: %s was written by a run with explicit resource "
                   "caps, which are incompatible with --parallel; resume "
                   "it sequentially\n",
                   O.ResumeFile.c_str());
      return 2;
    }
  }

  bool Reducing = !O.ReduceSpec.empty();
  PassMask ReduceMask;
  if (Reducing) {
    std::string Error;
    if (!parsePassSpec(O.ReduceSpec, ReduceMask, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
  }

  // A pipe, FIFO or device can be read only once, front to back. Text
  // streams from one fine, but these modes need to come back to the
  // trace. A path that cannot be stat'ed is left to the open below.
  const char *Rereads =
      Resuming ? "--resume seeks in the trace"
      : !O.CheckpointFile.empty()
          ? "--checkpoint records trace offsets to resume from"
      : Reducing ? "--reduce reads the trace twice"
                 : nullptr;
  struct stat TraceSt;
  if (Rereads && ::stat(O.TraceFile.c_str(), &TraceSt) == 0 &&
      !S_ISREG(TraceSt.st_mode)) {
    std::fprintf(stderr,
                 "error: %s, so it needs a regular file, and %s is not one\n",
                 Rereads, O.TraceFile.c_str());
    return 2;
  }

  std::string PlanError;
  std::unique_ptr<AnalysisPlan> Plan = AnalysisPlan::create(O.Plan, PlanError);
  if (!Plan) {
    std::fprintf(stderr, "%s\n", PlanError.c_str());
    return 2;
  }
  Plan->NoteCrashEvents = true;
  Plan->CrashAt = O.CrashAt;
  Plan->CrashSignal = static_cast<int>(O.CrashSignal);

  // Fatal-signal diagnostics: every delivered event lands in the crash
  // ring; with a checkpoint configured the handler also writes the dump to
  // a file the supervisor folds into its crash bundle.
  std::string DumpPath =
      O.CheckpointFile.empty() ? std::string() : O.CheckpointFile +
                                                     ".lastevents";
  crashdump::installHandlers(DumpPath.empty() ? nullptr : DumpPath.c_str());

  // Graceful-shutdown flag: only the sequential streaming loop can drain
  // to a checkpoint boundary; elsewhere the default disposition (die, let
  // the rename-atomic checkpoint and the supervisor handle it) is the
  // honest behavior.
  if (!O.CheckpointFile.empty() && !O.Parallel && !O.Witness)
    installStopHandlers();

  // Pass A of the static pipeline: stream the (sanitized) trace once with
  // no back-ends attached and classify every variable; pass B below then
  // filters on replay. Both passes parse the same bytes with fresh symbol
  // tables, so variable ids line up. A resumed run restores the filter
  // from the snapshot instead and skips this sweep. Every open passes
  // --salvage on, and openTraceSource refuses it for text input.
  ReductionFilter Filter;
  if (Reducing && !Resuming) {
    SymbolTable ClsSyms;
    TraceReadStatus ClsSt = TraceReadStatus::Ok;
    std::string ClsErr;
    TraceOpenOptions ClsOpts;
    ClsOpts.Salvage = O.Salvage;
    auto ClsSrc =
        openTraceSource(O.TraceFile, ClsSyms, ClsSt, ClsErr, ClsOpts);
    if (!ClsSrc) {
      std::fprintf(stderr, "error: %s\n", ClsErr.c_str());
      return 2;
    }
    TraceSanitizer ClsSan(O.Plan.Mode);
    TraceClassifier Classifier;
    std::vector<Event> ClsScratch;
    Event ClsE;
    while (ClsSrc->next(ClsE)) {
      ClsScratch.clear();
      if (!ClsSan.push(ClsE, ClsScratch, ClsSrc->lineNo())) {
        std::fprintf(stderr, "error: %s: trace is not well formed: %s\n",
                     O.TraceFile.c_str(), ClsSan.error().c_str());
        return 2;
      }
      for (const Event &Out : ClsScratch)
        Classifier.onEvent(Out);
    }
    if (ClsSrc->failed()) {
      std::fprintf(stderr, "error: %s\n",
                   describeFailure(*ClsSrc, O.TraceFile).c_str());
      return 2;
    }
    ClsScratch.clear();
    ClsSan.finish(ClsScratch);
    for (const Event &Out : ClsScratch)
      Classifier.onEvent(Out);
    Filter =
        ReductionFilter(PassManager(ReduceMask).plan(Classifier.facts()));
  }
  if (Reducing)
    Plan->setFilter(&Filter);

  SymbolTable StreamSyms;
  Trace Buffered; // only filled on the --witness path

  if (O.Witness) {
    // The serializability oracle needs random access: buffer, sanitize,
    // then replay the repaired trace.
    Trace Raw;
    std::string Error;
    if (O.Salvage) {
      SalvageSummary Salv;
      if (!readTraceSalvaged(O.TraceFile, Raw, Salv, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 2;
      }
      printSalvageNote(Salv);
    } else {
      TraceReadStatus St = readTraceFileStatus(O.TraceFile, Raw, Error);
      if (St != TraceReadStatus::Ok) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 2;
      }
    }
    RepairCounts Repairs;
    if (!sanitizeTrace(Raw, O.Plan.Mode, Buffered, &Repairs, Error)) {
      std::fprintf(stderr, "error: %s: trace is not well formed: %s\n",
                   O.TraceFile.c_str(), Error.c_str());
      return 2;
    }
    std::fputs(Repairs.note().c_str(), stderr);
    Plan->begin(Buffered.symbols());
    for (const Event &E : Buffered) {
      Plan->deliver(E);
      if (Plan->stopped())
        break;
    }
    Plan->end();
  } else {
    // Default path: stream the file through sanitizer and back-ends in
    // constant memory, snapshotting at resume boundaries when asked to.
    // openTraceSource sniffs the VELOTRC magic, so text and binary traces
    // flow through the same loop.
    TraceReadStatus SrcSt = TraceReadStatus::Ok;
    std::string SrcErr;
    TraceOpenOptions SrcOpts;
    SrcOpts.Salvage = O.Salvage;
    SalvageSummary Salv;
    SrcOpts.SalvageOut = &Salv;
    auto Src = openTraceSource(O.TraceFile, StreamSyms, SrcSt, SrcErr, SrcOpts);
    if (!Src) {
      std::fprintf(stderr, "error: %s\n", SrcErr.c_str());
      return 2;
    }
    printSalvageNote(Salv);

    if (Resuming) {
      // The filter first: resumed ordinals continue from its input count.
      // restore() and seekTo() overwrite Error when they fail.
      std::string Error = "reduction filter state cannot be restored";
      if ((Reducing && !Filter.deserialize(Ckpt.Filter)) ||
          !Plan->restore(Ckpt.Plan, Ckpt.R, StreamSyms, Error) ||
          !Src->seekTo(Ckpt.ByteOffset, Ckpt.LineNo, Ckpt.Plan.EventsSeen,
                       Error)) {
        std::fprintf(stderr, "error: cannot resume from %s: %s\n",
                     O.ResumeFile.c_str(), Error.c_str());
        return 2;
      }
    } else {
      Plan->begin(StreamSyms);
    }

    if (O.Parallel) {
      // Multi-threaded pipeline (docs/PARALLEL.md): same components, same
      // event sequence per back-end, so the report below is byte-identical
      // to the sequential branch.
      ParallelOptions POpts;
      POpts.Workers = static_cast<unsigned>(O.ParallelWorkers);
      POpts.BatchEvents = O.BatchEvents;
      Plan->wire(POpts);
      if (!O.CheckpointFile.empty()) {
        POpts.CheckpointEvery = O.CheckpointEvery;
        POpts.CheckpointSink = [&O, &Plan](const CheckpointCut &Cut,
                                           std::string &Error) {
          return writeCheckpoint(O, *Plan, Cut, Error);
        };
      }
      if (const char *Spec = std::getenv("VELO_PIPELINE_STALL"))
        if (!parsePipelineStall(Spec, POpts.Stall))
          std::fprintf(stderr,
                       "warning: ignoring malformed VELO_PIPELINE_STALL "
                       "'%s'\n",
                       Spec);
      ParallelPipeline Pipe(*Src, StreamSyms, Plan->sanitizer(),
                            Reducing ? &Filter : nullptr, Plan->delivery(),
                            std::move(POpts));
      PipelineResult PR = Pipe.run();
      switch (PR.Err) {
      case PipelineError::Parse:
        // The run is over, so the source is ours to ask again.
        std::fprintf(stderr, "error: %s\n",
                     describeFailure(*Src, O.TraceFile).c_str());
        return 2;
      case PipelineError::Sanitize:
        std::fprintf(stderr, "error: %s: trace is not well formed: %s\n",
                     O.TraceFile.c_str(), PR.Detail.c_str());
        return 2;
      case PipelineError::Checkpoint:
        std::fprintf(stderr, "error: cannot write checkpoint %s: %s\n",
                     O.CheckpointFile.c_str(), PR.Detail.c_str());
        return 2;
      case PipelineError::None:
        break;
      }
      Plan->absorb(PR);
    } else {
    // A record just processed is fully delivered, so the source position
    // after it is a clean resume boundary.
    auto WriteCheckpointAt = [&](uint64_t Offset, std::string &Error) {
      CheckpointCut Cut = Plan->cut();
      Cut.ByteOffset = Offset;
      Cut.LineNo = Src->lineNo();
      if (Reducing) {
        SnapshotWriter FilterBlob;
        Filter.serialize(FilterBlob);
        Cut.FilterBlob = FilterBlob.payload();
      }
      return writeCheckpoint(O, *Plan, Cut, Error);
    };
    uint64_t NextCkpt = Plan->eventsSeen() + O.CheckpointEvery;
    Event E;
    while (!Plan->stopped() && Src->next(E)) {
      if (!Plan->feed(E, Src->lineNo())) {
        std::fprintf(stderr,
                     "error: %s: trace is not well formed: %s\n",
                     O.TraceFile.c_str(), Plan->sanitizer().error().c_str());
        return 2;
      }
      if (Plan->stopped())
        break;
      if (!O.CheckpointFile.empty() && Plan->eventsSeen() >= NextCkpt) {
        // Text: tell() fails only once the scanner has met the end of
        // the input (the run is about to finish anyway). Binary: tell()
        // fails mid-frame, deferring the snapshot to the frame's end — so
        // the cadence reset stays inside the success branch.
        uint64_t Off = 0;
        if (Src->tell(Off)) {
          std::string Error;
          if (!WriteCheckpointAt(Off, Error)) {
            std::fprintf(stderr, "error: cannot write checkpoint %s: %s\n",
                         O.CheckpointFile.c_str(), Error.c_str());
            return 2;
          }
          NextCkpt = Plan->eventsSeen() + O.CheckpointEvery;
        }
      }
      if (StopSignal != 0) {
        // Graceful drain: persist this boundary and exit 128+signal.
        int Sig = static_cast<int>(StopSignal);
        uint64_t Off = 0;
        if (!O.CheckpointFile.empty() && Src->tell(Off)) {
          std::string Error;
          if (!WriteCheckpointAt(Off, Error))
            std::fprintf(stderr, "error: cannot write checkpoint %s: %s\n",
                         O.CheckpointFile.c_str(), Error.c_str());
        }
        std::fprintf(stderr,
                     "shutdown: stopped by signal %d after %llu events; "
                     "checkpoint %s is resumable\n",
                     Sig, static_cast<unsigned long long>(Plan->eventsSeen()),
                     O.CheckpointFile.c_str());
        std::fflush(nullptr);
        return 128 + Sig;
      }
    }
    if (Src->failed()) {
      std::fprintf(stderr, "error: %s\n",
                   describeFailure(*Src, O.TraceFile).c_str());
      return 2;
    }
    Plan->finish();
    } // sequential loop
  }

  // Everything below flows through the report manager; the text renderer
  // reproduces the historical stdout byte for byte, and --format=json or
  // =sarif swaps in a machine rendering of the same findings.
  ReportManager RM;
  RM.Run.Tool = "velodrome-check";
  RM.Run.Trace = O.TraceFile;
  Plan->report(RM, O.Witness ? Buffered.symbols() : StreamSyms);
  const Velodrome &Velo = Plan->velodrome();
  bool RunVelo = Plan->reports(Velo);
  if (O.Stats && RunVelo) {
    char StatBuf[192];
    std::snprintf(StatBuf, sizeof(StatBuf),
                  "[graph] allocated=%llu maxAlive=%llu edges=%llu "
                  "merged=%llu",
                  static_cast<unsigned long long>(
                      Velo.graph().nodesAllocated()),
                  static_cast<unsigned long long>(
                      Velo.graph().maxNodesAlive()),
                  static_cast<unsigned long long>(Velo.graph().edgesAdded()),
                  static_cast<unsigned long long>(
                      Velo.graph().nodesMerged()));
    RM.addStatLine(StatBuf);
  }
  if (O.Stats && Reducing)
    RM.addStatLine("[reduce] " + Filter.stats().summary());

  if (!O.DotFile.empty() && RunVelo && !Velo.warnings().empty() &&
      !Velo.warnings()[0].Dot.empty()) {
    std::ofstream Out(O.DotFile);
    Out << Velo.warnings()[0].Dot;
    if (!O.Quiet)
      RM.addNote("error graph written to " + O.DotFile + "\n");
  }

  if (O.Witness) {
    OracleResult Oracle = checkSerializable(Buffered);
    if (Oracle.Serializable) {
      TxnIndex Index = buildTxnIndex(Buffered);
      RM.addNote("# serial witness\n" +
                 printTrace(buildSerialWitness(Buffered, Index, Oracle)));
    } else if (!O.Quiet) {
      RM.addNote("no witness: trace is not serializable\n");
    }
  }

  const std::string Doc = RM.render(O.Format, O.Quiet);
  std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  return RM.Run.ExitCode;
}


//===----------------------------------------------------------------------===//
// Supervision: fork the analysis, restart from the last checkpoint on
// signal death, give up with a crash bundle when it stops making progress.
//===----------------------------------------------------------------------===//

/// Progress marker of the last checkpoint: events seen and trace line.
/// Zeros when no checkpoint exists yet (crash before the first snapshot).
void peekCheckpoint(const std::string &Path, uint64_t &EventsOut,
                    uint64_t &LineOut) {
  EventsOut = 0;
  LineOut = 0;
  Checkpoint C;
  std::string Error;
  if (loadCheckpoint(Path, C, Error)) {
    EventsOut = C.Plan.EventsSeen;
    LineOut = C.LineNo;
  }
}

/// Write "<checkpoint>.crash/" with the post-mortem: info.txt (what
/// happened), last-events.txt (the in-process handler's ring dump, when
/// the signal was catchable), window.trace (the events the crashing
/// window was replaying, rendered as text).
std::string writeCrashBundle(const Options &O, int Sig, uint64_t CkptEvents,
                             uint64_t CkptLine, uint64_t Crashes) {
  std::string Dir = O.CheckpointFile + ".crash";
  ::mkdir(Dir.c_str(), 0755);
  {
    std::ofstream Info(Dir + "/info.txt");
    Info << "signal: " << Sig << "\n"
         << "trace: " << O.TraceFile << "\n"
         << "checkpoint: " << O.CheckpointFile << "\n"
         << "events-at-last-checkpoint: " << CkptEvents << "\n"
         << "line-at-last-checkpoint: " << CkptLine << "\n"
         << "consecutive-crashes: " << Crashes << "\n";
  }
  {
    std::ifstream LastEvents(O.CheckpointFile + ".lastevents");
    if (LastEvents) {
      std::ofstream Out(Dir + "/last-events.txt");
      Out << LastEvents.rdbuf();
    }
  }
  {
    std::ofstream Out(Dir + "/window.trace");
    uint64_t First = CkptLine + 1;
    Out << "# trace lines from " << First
        << " (first line after the last checkpoint) onward\n";
    // Rendered as text, so the bundle stays human-readable regardless of
    // the input encoding; positions are lines for text, ordinals for
    // binary.
    SymbolTable Syms;
    TraceReadStatus St = TraceReadStatus::Ok;
    std::string Err;
    TraceOpenOptions Opts;
    Opts.Salvage = O.Salvage;
    if (auto Src = openTraceSource(O.TraceFile, Syms, St, Err, Opts)) {
      Event E;
      while (Src->next(E)) {
        uint64_t N = Src->lineNo();
        if (N < First)
          continue;
        Out << renderEvent(E, Syms) << "\n";
        if (N >= First + 199)
          break;
      }
    }
  }
  return Dir;
}

int runSupervised(const Options &O) {
  uint64_t LastWindowEvents = ~0ull; // sentinel: no crash observed yet
  uint64_t SameWindow = 0;
  installStopHandlers();
  for (;;) {
    Options Worker = O;
    Worker.Supervise = false;
    struct stat St;
    if (::stat(O.CheckpointFile.c_str(), &St) == 0)
      Worker.ResumeFile = O.CheckpointFile;
    std::fflush(nullptr);
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::perror("velodrome-check: fork");
      return 2;
    }
    if (Pid == 0) {
      // Drop the supervisor's handlers: the worker re-installs its own
      // when it can drain gracefully (sequential + checkpointing), and
      // must die by default elsewhere so escalation semantics stay honest.
      resetStopHandlers();
      int Rc = runAnalysis(std::move(Worker));
      // _Exit skips atexit/static destructors (this is a fork, the parent
      // owns them) but also stdio flushing — do that explicitly.
      std::fflush(nullptr);
      std::_Exit(Rc);
    }
    // Reap the worker with a WNOHANG poll so a stop signal is noticed
    // race-free even if it lands between checks (EINTR wakes usleep).
    int Status = 0;
    bool Stopping = false;
    int StopSig = 0;
    for (;;) {
      if (StopSignal != 0 && !Stopping) {
        // Graceful shutdown: forward the signal, give the worker
        // --grace-ms to land its final checkpoint, then escalate.
        Stopping = true;
        StopSig = static_cast<int>(StopSignal);
        ::kill(Pid, StopSig);
        uint64_t WaitedMs = 0;
        pid_t Done = 0;
        while (WaitedMs < O.GraceMillis) {
          Done = sys::waitpidRetry(Pid, &Status, WNOHANG);
          if (Done == Pid)
            break;
          ::usleep(20 * 1000);
          WaitedMs += 20;
        }
        if (Done != Pid) {
          std::fprintf(stderr,
                       "supervisor: worker did not stop within %llu ms; "
                       "escalating to SIGKILL (checkpoint stays intact: "
                       "writes are rename-atomic)\n",
                       static_cast<unsigned long long>(O.GraceMillis));
          ::kill(Pid, SIGKILL);
          sys::waitpidRetry(Pid, &Status, 0);
        }
        break;
      }
      pid_t R = sys::waitpidRetry(Pid, &Status, WNOHANG);
      if (R == Pid)
        break;
      if (R < 0) {
        std::perror("velodrome-check: waitpid");
        return 2;
      }
      ::usleep(10 * 1000);
    }
    if (Stopping) {
      std::fprintf(stderr,
                   "supervisor: stopped by signal %d; checkpoint %s is "
                   "resumable\n",
                   StopSig, O.CheckpointFile.c_str());
      return 128 + StopSig;
    }
    if (WIFEXITED(Status)) {
      int Rc = WEXITSTATUS(Status);
      // A worker that drained on a direct SIGTERM/SIGINT (e.g. a signal
      // sent to the whole process group) reports 128+signal; treat it as
      // shutdown, not as a verdict to re-run for.
      return Rc;
    }
    int Sig = WIFSIGNALED(Status) ? WTERMSIG(Status) : 0;
    uint64_t CkptEvents = 0, CkptLine = 0;
    peekCheckpoint(O.CheckpointFile, CkptEvents, CkptLine);
    if (CkptEvents == LastWindowEvents) {
      ++SameWindow;
    } else {
      SameWindow = 1;
      LastWindowEvents = CkptEvents;
    }
    std::fprintf(stderr,
                 "supervisor: worker killed by signal %d; last checkpoint "
                 "at event %llu (crash %llu of %llu in this window)\n",
                 Sig, static_cast<unsigned long long>(CkptEvents),
                 static_cast<unsigned long long>(SameWindow),
                 static_cast<unsigned long long>(O.MaxCrashes));
    if (SameWindow >= O.MaxCrashes) {
      std::string Bundle =
          writeCrashBundle(O, Sig, CkptEvents, CkptLine, SameWindow);
      std::fprintf(stderr,
                   "supervisor: no progress after %llu crashes; "
                   "crashed: see bundle %s\n",
                   static_cast<unsigned long long>(SameWindow),
                   Bundle.c_str());
      return 4;
    }
    // Exponential backoff before the restart; a transient cause (memory
    // pressure, a flaky disk) gets room to clear.
    unsigned BackoffMs = 50u << (SameWindow - 1);
    if (BackoffMs > 2000)
      BackoffMs = 2000;
    ::usleep(BackoffMs * 1000);
  }
}

} // namespace

int main(int argc, char **argv) {
  // A closed stdout pager or a dying supervisor pipe must surface as a
  // failed write, not SIGPIPE process death.
  sys::ignoreSigpipe();
  Options O;
  switch (parseArgs(argc, argv, O)) {
  case -1:
    return 0;
  case 2:
    return 2;
  default:
    break;
  }
  if (O.Supervise)
    return runSupervised(O);
  return runAnalysis(std::move(O));
}
