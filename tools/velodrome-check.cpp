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
#include "report/Report.h"
#include "support/ParseInt.h"
#include "support/Supervisor.h"
#include "support/Syscalls.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <sys/stat.h>

using namespace velo;

namespace {

struct Options {
  /// --backend, --lenient, --no-merge, --max-warnings, --reduce, caps
  PlanConfig Plan;
  std::string TraceFile, DotFile;
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

/// Returns -1 to go on, else the status to exit with.
int parseArgs(int Argc, char **Argv, Options &O) {
  std::string ReduceSpec; ///< empty = reduction off
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
      stringFlag("--reduce=<spec>", ReduceSpec,
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
              "trace records read between snapshots (default 4096)", 1),
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
  if (!ReduceSpec.empty()) {
    std::string Error;
    if (!parsePassSpec(ReduceSpec, O.Plan.Reduce.emplace(), Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
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
    // Composition matrix (docs/PARALLEL.md): --reduce, --stats, --witness,
    // --checkpoint/--resume, and --supervise compose with --parallel;
    // explicit resource caps do not.
    if (O.Plan.Limits.explicitCaps()) {
      std::fprintf(stderr,
                   "error: explicit resource caps (--max-events, "
                   "--max-live-nodes, --max-memory-mb, --deadline-ms) stop "
                   "the analysis mid-stream and are incompatible with "
                   "--parallel (back-ends on other pipeline workers still "
                   "see the batches already handed out); run sequentially "
                   "to use them\n");
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
//   str  trace path (diagnostic)
//   the plan body (analysis/Plan.h): config (--reduce included), counters,
//   stream position, symbols, sanitizer, filter, one named blob per
//   back-end, in delivery order
//
// The plan config makes the snapshot authoritative on resume: a resumed
// run always re-creates the exact pipeline that wrote it, which is what
// makes verdict/warning identity with a straight-through run hold. The
// counters and the stream position precede the state blobs, so the
// supervisor can peek progress without decoding back-end state.

/// Read Path up to the plan's state, where R is left.
bool loadCheckpoint(const std::string &Path, SnapshotReader &R, PlanHead &H,
                    std::string &ErrorOut) {
  if (!SnapshotReader::readFile(Path, R, ErrorOut))
    return false;
  R.str(); // trace path: diagnostic only
  if (!AnalysisPlan::readHead(R, H)) {
    ErrorOut = "truncated snapshot header";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// One analysis run (fresh or resumed). Under --supervise this is the
// worker; otherwise it is the whole program.
//===----------------------------------------------------------------------===//

/// --witness: the serializability oracle needs random access to the whole
/// trace, so the loop's source also keeps every event it returns.
class CopyingSource : public TraceSource {
public:
  CopyingSource(TraceSource &In, Trace &Copy) : In(In), Copy(Copy) {}
  bool next(Event &Out) override {
    if (!In.next(Out))
      return false;
    Copy.push(Out);
    return true;
  }
  bool failed() const override { return In.failed(); }
  bool readFailed() const override { return In.readFailed(); }
  const std::string &error() const override { return In.error(); }
  uint64_t lineNo() const override { return In.lineNo(); }
  uint64_t eventCount() const override { return In.eventCount(); }
  bool tell(uint64_t &PosOut) override { return In.tell(PosOut); }
  bool endOfFrame() const override { return In.endOfFrame(); }
  bool seekTo(uint64_t Pos, uint64_t Line, uint64_t Events,
              std::string &ErrorOut) override {
    return In.seekTo(Pos, Line, Events, ErrorOut);
  }

private:
  TraceSource &In;
  Trace &Copy;
};

/// The --witness note: a serial witness of the whole sanitized trace, read
/// to its end even past a governor stop.
std::string witnessNote(const Options &O, TraceSource &Src, Trace &Raw,
                        const SymbolTable &Syms) {
  Event E;
  while (Src.next(E)) {
  }
  std::string Why;
  Trace Buffered;
  Raw.symbols() = Syms;
  if (Src.failed()) {
    Why = describeFailure(Src, O.TraceFile);
  } else if (!sanitizeTrace(Raw, O.Plan.Mode, Buffered, nullptr, Why)) {
    Why = "trace is not well formed: " + Why;
  } else {
    OracleResult Oracle = checkSerializable(Buffered);
    if (Oracle.Serializable) {
      TxnIndex Index = buildTxnIndex(Buffered);
      return "# serial witness\n" +
             printTrace(buildSerialWitness(Buffered, Index, Oracle));
    }
    Why = "trace is not serializable";
  }
  return O.Quiet ? "" : "no witness: " + Why + "\n";
}

int runAnalysis(Options O) {
  SnapshotReader Ckpt;
  PlanHead Head;
  bool Resuming = !O.ResumeFile.empty();
  auto CannotResume = [&O](const std::string &Error) {
    std::fprintf(stderr, "error: cannot resume from %s: %s\n",
                 O.ResumeFile.c_str(), Error.c_str());
    return 2;
  };
  const bool NoMerge = O.Plan.NoMerge; // as given, before any snapshot's
  if (Resuming) {
    std::string Error;
    if (!loadCheckpoint(O.ResumeFile, Ckpt, Head, Error))
      return CannotResume(Error);
    // The snapshot is authoritative for the analysis configuration,
    // --reduce included; the presentation flags (--quiet, --stats, --dot)
    // stay as given.
    O.Plan = Head.Config;
    // The caps travel with the snapshot, so a sequential run's explicit
    // caps would silently reappear under --parallel here; refuse just as
    // parseArgs does for caps given on the command line.
    if (O.Parallel && O.Plan.Limits.explicitCaps()) {
      std::fprintf(stderr,
                   "error: %s was written by a run with explicit resource "
                   "caps, which are incompatible with --parallel; resume "
                   "it sequentially\n",
                   O.ResumeFile.c_str());
      return 2;
    }
  }
  bool Reducing = O.Plan.Reduce.has_value();
  // Exit 2 on a malformed record of Failed, else on a strict rejection.
  auto Reject = [&O](const TraceSource *Failed, const std::string &Why) {
    if (Failed)
      std::fprintf(stderr, "error: %s\n",
                   describeFailure(*Failed, O.TraceFile).c_str());
    else
      std::fprintf(stderr, "error: %s: trace is not well formed: %s\n",
                   O.TraceFile.c_str(), Why.c_str());
    return 2;
  };

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
  // A flag this plan would ignore is refused. On --resume the plan, and so
  // the selector, is the snapshot's.
  const bool RunVelo = Plan->reports(Plan->velodrome());
  const char *Inert = RunVelo                ? nullptr
                      : !O.DotFile.empty()   ? "--dot"
                      : NoMerge              ? "--no-merge"
                      : O.Stats && !Reducing ? "--stats"
                                             : nullptr;
  if (Inert) {
    std::fprintf(stderr,
                 "error: %s needs the Velodrome back-end "
                 "(--backend=velodrome or all)%s\n",
                 Inert,
                 std::string_view(Inert) == "--stats" ? " or --reduce" : "");
    return 2;
  }

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
  if (!O.CheckpointFile.empty() && !O.Parallel)
    installStopHandlers();

  // Every open passes --salvage on, and openTraceSource refuses it for
  // text input.
  SalvageSummary Salv;
  TraceOpenOptions OpenOpts;
  OpenOpts.Salvage = O.Salvage;
  OpenOpts.SalvageOut = &Salv;
  auto Open = [&](SymbolTable &Syms) {
    TraceReadStatus St = TraceReadStatus::Ok;
    std::string Error;
    auto Src = openTraceSource(O.TraceFile, Syms, St, Error, OpenOpts);
    if (!Src)
      std::fprintf(stderr, "error: %s\n", Error.c_str());
    return Src;
  };

  // Pass A of --reduce classifies a second open of the trace, with fresh
  // symbols, so variable ids line up with the replay below. A resumed run
  // restores the filter from the snapshot instead.
  if (Reducing && !Resuming) {
    SymbolTable ClsSyms;
    auto ClsSrc = Open(ClsSyms);
    if (!ClsSrc)
      return 2;
    std::string ClsErr;
    if (!Plan->classify(*ClsSrc, ClsErr))
      return Reject(ClsSrc->failed() ? ClsSrc.get() : nullptr, ClsErr);
  }

  // openTraceSource sniffs the VELOTRC magic, so text and binary traces
  // flow through the same loop.
  SymbolTable StreamSyms;
  auto Opened = Open(StreamSyms);
  if (!Opened)
    return 2;
  std::fputs(Salv.note().c_str(), stderr);
  Trace Raw; // --witness only
  CopyingSource Copying(*Opened, Raw);
  TraceSource *Src = O.Witness ? &Copying : Opened.get();

  if (Resuming) {
    std::string Error;
    if (!Plan->restore(Head, Ckpt, StreamSyms, Error) ||
        !Src->seekTo(Head.ByteOffset, Head.LineNo, Head.EventsSeen, Error))
      return CannotResume(Error);
  } else {
    Plan->begin(StreamSyms);
  }

  // The plan streams the trace in constant memory, sequentially or through
  // the multi-threaded pipeline (docs/PARALLEL.md): the same events reach
  // the same back-ends, so the report below is the same either way. Both
  // write the same checkpoint, the plan body at a record or batch
  // boundary, so either resumes the other's snapshots.
  ParallelOptions Run;
  Run.Workers = static_cast<unsigned>(O.ParallelWorkers);
  Run.BatchEvents = O.BatchEvents;
  Run.NoteCrashEvents = true;
  Run.CrashAt = O.CrashAt;
  Run.CrashSignal = static_cast<int>(O.CrashSignal);
  if (!O.CheckpointFile.empty()) {
    Run.CheckpointEvery = O.CheckpointEvery;
    Run.CheckpointSink = [&O, &Plan](const CheckpointCut &Cut,
                                     std::string &Error) {
      SnapshotWriter W;
      W.str(O.TraceFile);
      Plan->write(W, Cut);
      return W.writeFile(O.CheckpointFile, Error);
    };
  }
  if (const char *Spec =
          O.Parallel ? std::getenv("VELO_PIPELINE_STALL") : nullptr)
    if (!parsePipelineStall(Spec, Run.Stall))
      std::fprintf(stderr,
                   "warning: ignoring malformed VELO_PIPELINE_STALL '%s'\n",
                   Spec);
  const PipelineResult R =
      Plan->run(*Src, StreamSyms, O.Parallel, std::move(Run));
  if (R.Err == PipelineError::Checkpoint)
    std::fprintf(stderr, "error: cannot write checkpoint %s: %s\n",
                 O.CheckpointFile.c_str(), R.Detail.c_str());
  if (R.Signal) {
    std::fprintf(stderr,
                 "shutdown: stopped by signal %d after %llu events; "
                 "checkpoint %s is resumable\n",
                 R.Signal, static_cast<unsigned long long>(Plan->eventsSeen()),
                 O.CheckpointFile.c_str());
    std::fflush(nullptr);
    return 128 + R.Signal;
  }
  // After a parse error the run is over, so the source is ours to ask
  // again.
  if (R.Err != PipelineError::None)
    return R.Err == PipelineError::Checkpoint
               ? 2
               : Reject(R.Err == PipelineError::Parse ? Src : nullptr,
                        R.Detail);

  // Everything below flows through the report manager; the text renderer
  // reproduces the historical stdout byte for byte, and --format=json or
  // =sarif swaps in a machine rendering of the same findings.
  ReportManager RM;
  RM.Run.Tool = "velodrome-check";
  RM.Run.Trace = O.TraceFile;
  Plan->report(RM, StreamSyms);
  const Velodrome &Velo = Plan->velodrome();
  if (O.Stats && RunVelo) {
    const HbGraph &G = Velo.graph();
    RM.addStatLine("[graph] allocated=" + std::to_string(G.nodesAllocated()) +
                   " maxAlive=" + std::to_string(G.maxNodesAlive()) +
                   " edges=" + std::to_string(G.edgesAdded()) +
                   " merged=" + std::to_string(G.nodesMerged()));
  }
  if (O.Stats && Reducing)
    RM.addStatLine("[reduce] " + Plan->reduceStats()->summary());

  if (!O.DotFile.empty() && RunVelo && !Velo.warnings().empty() &&
      !Velo.warnings()[0].Dot.empty()) {
    std::ofstream Out(O.DotFile);
    Out << Velo.warnings()[0].Dot;
    if (!O.Quiet)
      RM.addNote("error graph written to " + O.DotFile + "\n");
  }

  if (O.Witness)
    RM.addNote(witnessNote(O, *Src, Raw, StreamSyms));

  const std::string Doc = RM.render(O.Format, O.Quiet);
  std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  return RM.Run.ExitCode;
}

//===----------------------------------------------------------------------===//
// Supervision (support/Supervisor.h): restart from the last checkpoint on
// signal death, give up with a crash bundle when it stops making progress.
//===----------------------------------------------------------------------===//

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
        // The last checkpoint's progress marker: zeros when there is none
        // yet (a crash before the first snapshot).
        SnapshotReader R;
        PlanHead H;
        std::string Error;
        if (!loadCheckpoint(O.CheckpointFile, R, H, Error))
          H = PlanHead();
        CkptEvents = H.EventsSeen;
        CkptLine = H.LineNo;
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
