//===- tools/velodrome-check.cpp - Offline trace checker CLI --------------===//
//
// Command-line front end for analysing recorded traces: the shape of tool a
// downstream user points at a trace dump from their own instrumentation.
//
//   velodrome-check [options] <trace-file>
//
// `velodrome-check --help` lists the options. The trace is streamed:
// events reach the back-ends as they are parsed, so memory stays constant
// in the trace length (--witness buffers it, for the serializability
// oracle's random access). A text trace may come from a pipe, a FIFO or
// /dev/stdin; a .vtrc container, --reduce and --checkpoint/--resume need a
// regular file.
//
// Exit status: 0 serializable, 1 atomicity violation, 2 usage/input error,
// 3 resource-limited (budget exhausted before a verdict was reached),
// 4 crashed repeatedly under --supervise (see the crash bundle), 128+N
// stopped by signal N. docs/INGESTION.md and docs/OPERATIONS.md specify
// the full contract.
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
#include "support/Supervisor.h"
#include "support/Syscalls.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/stat.h>

using namespace velo;

namespace {

struct Options {
  PlanConfig Plan; ///< --backend, --lenient, --no-merge, --max-warnings, caps
  std::string TraceFile, DotFile;
  std::string ReduceSpec; ///< empty = reduction off
  std::string CheckpointFile, ResumeFile;
  uint64_t CheckpointEvery = 4096;
  SupervisorOptions Sup;
  uint64_t CrashAt = 0; ///< test hook: die after N events this process
  uint64_t CrashSignal = SIGKILL;
  bool Salvage = false; ///< --salvage: longest-prefix recovery for .vtrc
  bool Witness = false, Stats = false, Quiet = false;
  bool Parallel = false;        ///< --parallel given
  uint64_t ParallelWorkers = 0; ///< 0 = one worker per back-end
  uint64_t BatchEvents = 4096;
  bool BatchEventsSet = false;
  ReportFormat Format = ReportFormat::Text;
};

/// Caps other than the defaults stop the analysis mid-stream, and the
/// parallel pipeline stops only at batch boundaries.
bool explicitCaps(const GovernorLimits &L) {
  const GovernorLimits D = GovernorLimits::defaults();
  return L.MaxEvents != D.MaxEvents || L.MaxLiveNodes != D.MaxLiveNodes ||
         L.MaxMemoryBytes != D.MaxMemoryBytes ||
         L.DeadlineMillis != D.DeadlineMillis;
}

/// Returns -1 to go on, else the status to exit with.
int parseArgs(int Argc, char **Argv, Options &O) {
  auto Mode = [&O](SanitizeMode M) {
    return [&O, M](const std::string &) {
      O.Plan.Mode = M;
      return true;
    };
  };
  std::vector<Flag> Rows = {
      stringFlag("--backend=<sel>", O.Plan.BackendSel,
                 "velodrome, basic, aero, atomizer, eraser, hb, deadlock or "
                 "all (default all; deadlock runs only when named)"),
      formatFlag(O.Format),
      {"--max-warnings=N",
       [&O](const std::string &V) {
         return parseU64(V.c_str(), O.Plan.MaxWarnings.emplace());
       },
       "cap recorded warnings per back-end (0 = unlimited)"},
      stringFlag("--dot=<file>", O.DotFile,
                 "write the first violation's error graph as dot"),
      boolFlag("--witness", O.Witness,
               "print a serial witness when the trace is serializable"),
      boolFlag("--no-merge", O.Plan.NoMerge,
               "run Velodrome with the naive [INS OUTSIDE] rule"),
      stringFlag("--reduce=<spec>", O.ReduceSpec,
                 "reduce statically first: all, none, or a comma list of "
                 "escape, readonly, redundant, lockset (docs/STATIC.md)"),
      boolFlag("--stats", O.Stats,
               "print graph statistics (and per-pass counts under --reduce)"),
      boolFlag("--quiet", O.Quiet, "verdict only"),
      {"--lenient", Mode(SanitizeMode::Lenient),
       "repair ill-formed traces instead of rejecting them"},
      {"--strict", Mode(SanitizeMode::Strict),
       "reject ill-formed traces (the default)"},
      boolFlag("--salvage", O.Salvage,
               "accept the longest intact frame prefix of a truncated .vtrc "
               "(docs/TRACING.md)"),
      boolFlag("--parallel", O.Parallel,
               "run as a multi-threaded pipeline, one worker per back-end; "
               "the report is the same (docs/PARALLEL.md)"),
      {"--parallel=N",
       [&O](const std::string &V) {
         O.Parallel = true;
         return parseU64(V.c_str(), O.ParallelWorkers);
       },
       "the same with N back-end workers"},
      {"--batch-events=N",
       [&O](const std::string &V) {
         O.BatchEventsSet = true;
         return parseU64(V.c_str(), O.BatchEvents) && O.BatchEvents != 0;
       },
       "events per pipeline batch (default 4096)"},
      stringFlag("--checkpoint=<file>", O.CheckpointFile,
                 "write atomic snapshots of the analysis state "
                 "(docs/OPERATIONS.md)"),
      u64Flag("--checkpoint-every=N", O.CheckpointEvery,
              "events between snapshots (default 4096)", 1),
      stringFlag("--resume=<file>", O.ResumeFile,
                 "continue a run from a snapshot; the report is the "
                 "uninterrupted run's"),
      u64Flag("--crash-at=N", O.CrashAt,
              "test hook: die after N events in this process"),
      u64Flag("--crash-signal=S", O.CrashSignal,
              "test hook: the signal to die with (default 9, SIGKILL)", 1,
              31),
  };
  addFlags(Rows, governorFlags(O.Plan.Limits));
  addFlags(Rows, supervisionFlags(O.Sup));
  const FlagTable Table{
      "velodrome-check [options] <trace-file>", std::move(Rows),
      "<trace-file> is text or a VELOTRC .vtrc container (auto-detected)\n"
      "exit: 0 serializable, 1 violation, 2 usage/input error,\n"
      "      3 resource-limited, 4 crashed under --supervise,\n"
      "      128+N stopped by signal N after a clean checkpoint\n",
      1, 1};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(Argc, Argv, Operands); Rc >= 0)
    return Rc;
  O.TraceFile = Operands[0];

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
    if (explicitCaps(O.Plan.Limits)) {
      std::fprintf(stderr,
                   "error: explicit resource caps (--max-events, "
                   "--max-live-nodes, --max-memory-mb, --deadline-ms) stop "
                   "the analysis mid-stream and are incompatible with "
                   "--parallel (the pipeline only stops at batch "
                   "boundaries); run sequentially to use them\n");
      return 2;
    }
  } else if (O.BatchEventsSet) {
    std::fprintf(stderr,
                 "error: --batch-events only applies to the parallel "
                 "pipeline; add --parallel\n");
    return 2;
  }
  if (O.Sup.Enabled && O.CheckpointFile.empty()) {
    std::fprintf(stderr,
                 "error: --supervise requires --checkpoint (the restart "
                 "point after a crash)\n");
    return 2;
  }
  return -1;
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
// One analysis run (fresh or resumed). Under --supervise this is the
// worker; otherwise it is the whole program.
//===----------------------------------------------------------------------===//

/// One stderr note per run describing what --salvage recovered, mirroring
/// the "lenient: repaired ..." note. A salvage that recovered nothing is
/// refused with an error instead, and gets no note.
void printSalvageNote(const SalvageSummary &S) {
  if (!S.Used || S.FramesKept == 0)
    return;
  std::fprintf(stderr,
               "salvage: recovered %llu frame(s) (%llu event(s)); dropped "
               "%llu trailing byte(s)\n",
               static_cast<unsigned long long>(S.FramesKept),
               static_cast<unsigned long long>(S.EventsKept),
               static_cast<unsigned long long>(S.BytesDropped));
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
    if (O.Parallel && explicitCaps(O.Plan.Limits)) {
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

  // Graceful shutdown: SIGTERM/SIGINT only set a flag, and the sequential
  // loop drains the record in flight, persists a final checkpoint at that
  // boundary and exits 128+signal. Only that loop can drain to a
  // checkpoint boundary; elsewhere the default disposition (die, let the
  // rename-atomic checkpoint and the supervisor handle it) is the honest
  // behavior.
  if (!O.CheckpointFile.empty() && !O.Parallel && !O.Witness)
    installStopHandlers();

  // Every open passes --salvage on, and openTraceSource refuses it for
  // text input.
  SalvageSummary Salv;
  TraceOpenOptions OpenOpts;
  OpenOpts.Salvage = O.Salvage;
  OpenOpts.SalvageOut = &Salv;

  // Pass A of the static pipeline: stream the (sanitized) trace once with
  // no back-ends attached and classify every variable; pass B below then
  // filters on replay. Both passes parse the same bytes with fresh symbol
  // tables, so variable ids line up. A resumed run restores the filter
  // from the snapshot instead and skips this sweep.
  ReductionFilter Filter;
  if (Reducing && !Resuming) {
    SymbolTable ClsSyms;
    TraceReadStatus ClsSt = TraceReadStatus::Ok;
    std::string ClsErr;
    auto ClsSrc =
        openTraceSource(O.TraceFile, ClsSyms, ClsSt, ClsErr, OpenOpts);
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
    if (readTraceFileStatus(O.TraceFile, Raw, Error, OpenOpts) !=
        TraceReadStatus::Ok) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    printSalvageNote(Salv);
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
    auto Src =
        openTraceSource(O.TraceFile, StreamSyms, SrcSt, SrcErr, OpenOpts);
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
      if (int Sig = stopSignal()) {
        // Graceful drain: persist this boundary and exit 128+signal.
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
// Supervision (support/Supervisor.h): restart from the last checkpoint on
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

/// The worker resumes from the checkpoint once there is one. A crash
/// window is the span between checkpoints: a worker that moved the
/// checkpoint's event count made progress.
int runSupervised(const Options &O) {
  uint64_t LastEvents = ~0ull, CkptEvents = 0, CkptLine = 0;
  return supervise(
      O.Sup,
      [&O] {
        Options Worker = O;
        struct stat St;
        if (::stat(O.CheckpointFile.c_str(), &St) == 0)
          Worker.ResumeFile = O.CheckpointFile;
        return runAnalysis(std::move(Worker));
      },
      [&](double) {
        peekCheckpoint(O.CheckpointFile, CkptEvents, CkptLine);
        bool Moved = CkptEvents != LastEvents;
        LastEvents = CkptEvents;
        return Moved;
      },
      [&](const WorkerCrash &C) {
        std::string Note =
            "last checkpoint at event " + std::to_string(CkptEvents);
        if (C.GivingUp)
          Note += "; crashed: see bundle " +
                  writeCrashBundle(O, C.Signal, CkptEvents, CkptLine,
                                   C.InWindow);
        return Note;
      });
}

} // namespace

int main(int argc, char **argv) {
  // A closed stdout pager or a dying supervisor pipe must surface as a
  // failed write, not SIGPIPE process death.
  sys::ignoreSigpipe();
  Options O;
  if (int Rc = parseArgs(argc, argv, O); Rc >= 0)
    return Rc;
  if (O.Sup.Enabled)
    return runSupervised(O);
  return runAnalysis(std::move(O));
}
