//===- analysis/Plan.h - One analysis plan behind every tool ----*- C++ -*-===//
//
// Velodrome's guarantee (a warning iff the trace is not conflict-
// serializable) holds for every tool only if every tool wires the checkers
// the same way. The plan is that wiring, written once:
//
//   * the back-end vocabulary and which back-ends a selector runs;
//   * the governed primary, its vector-clock fallback, the reference
//     checker the governor stops at a cap breach, and the probes;
//   * static reduction (--reduce): the classify sweep and the filter
//     between the sanitizer and delivery;
//   * the delivery list, fixed for the whole run, the per-event
//     bookkeeping (events and threads seen, sanitized-stream ordinals) and
//     the stop;
//   * the run loop over a trace source, sequentially and through the
//     parallel pipeline, with the checkpoint cadence, the SIGTERM/SIGINT
//     drain and the crash hooks;
//   * the verdict, the exit code, the governor notes, the report sections;
//   * the snapshot body: config, counters, stream position, filter, and
//     one named blob per back-end.
//
// velodrome-check, serve::Session, velodrome-run and velodrome-fuzz are
// front-ends over it. Each keeps what is really its own: the event source,
// supervision, and presentation (docs/ALGORITHM.md "Analysis plan").
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ANALYSIS_PLAN_H
#define VELO_ANALYSIS_PLAN_H

#include "aero/AeroDrome.h"
#include "analysis/CrashDump.h"
#include "analysis/Governor.h"
#include "atomizer/Atomizer.h"
#include "core/BasicVelodrome.h"
#include "core/Velodrome.h"
#include "deadlock/DeadlockDetector.h"
#include "eraser/Eraser.h"
#include "events/TraceSanitizer.h"
#include "hbrace/HbRaceDetector.h"
#include "parallel/Pipeline.h"
#include "report/Report.h"
#include "staticpass/PassSpec.h"

#include <csignal>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace velo {

/// Everything that decides what an analysis computes. It travels in the
/// snapshot body, so a resumed run rebuilds exactly the plan that wrote it.
struct PlanConfig {
  /// velodrome|basic|aero|atomizer|eraser|hb|deadlock|all. "all" is the
  /// six atomicity and race back-ends; the lock-order checker runs only
  /// when selected by name.
  std::string BackendSel = "all";
  SanitizeMode Mode = SanitizeMode::Strict;
  bool NoMerge = false; ///< Velodrome's naive [INS OUTSIDE] rule
  /// Cap on recorded warnings for every checker that caps them (0 =
  /// unlimited); unset keeps each checker's own default.
  std::optional<uint64_t> MaxWarnings;
  GovernorLimits Limits = GovernorLimits::defaults();
  /// Feed AeroDrome as the governor's lockstep hot spare behind a graph
  /// primary even when it is not selected. Only velodrome-run sets it
  /// (docs/INGESTION.md section 5).
  bool HotSpare = false;
  /// Static reduction passes (--reduce); unset = off. A set mask, even
  /// none, runs the classify sweep and the filter.
  std::optional<PassMask> Reduce;

  void write(SnapshotWriter &W) const;
  bool read(SnapshotReader &R);
};

/// What a snapshot body states before any analysis state is decoded: the
/// config to rebuild the plan from, the supervisor's progress marker, and
/// where in the trace to resume.
struct PlanHead {
  PlanConfig Config;
  uint64_t EventsSeen = 0;
  uint32_t ThreadsSeen = 0;
  uint64_t ByteOffset = 0, LineNo = 0;
};

class AnalysisPlan {
public:
  /// Build the plan for Config; null with Err naming the selector when it
  /// is not in the vocabulary.
  static std::unique_ptr<AnalysisPlan> create(const PlanConfig &Config,
                                              std::string &Err);

  AnalysisPlan(const AnalysisPlan &) = delete;
  AnalysisPlan &operator=(const AnalysisPlan &) = delete;

  /// Typed views for presentation (dot export, graph statistics,
  /// velodrome-run's per-checker blocks). The roster always exists;
  /// reports() says whether a back-end is in this run's report.
  Velodrome &velodrome() { return Velo; }
  AeroDrome &aero() { return Aero; }
  Atomizer &atomizer() { return Atom; }
  bool reports(const Backend &B) const;
  const std::vector<Backend *> &reporting() const { return Reporting; }

  /// Also deliver to B, after the plan's own back-ends, ungoverned and
  /// unreported (velodrome-run's scheduling guide).
  void attach(Backend &B) { Delivery.push_back(&B); }

  TraceSanitizer &sanitizer() { return San; }

  /// Pass A of --reduce (docs/STATIC.md): sanitize Src, a second open of
  /// the trace with a symbol table of its own, in this plan's mode,
  /// classify every variable, and plan the filter that then runs between
  /// the sanitizer and delivery. Events it drops still take a
  /// sanitized-stream ordinal. Does nothing without --reduce. False on a
  /// strict-mode rejection (Err is the diagnostic) or when Src fails.
  bool classify(TraceSource &Src, std::string &Err);
  /// The same over a whole recorded trace.
  bool classify(const Trace &T, std::string &Err);

  /// The filter's counters for --stats: null without --reduce, and after
  /// a parallel run as of its stop event.
  const PassStats *reduceStats() const {
    if (!Filter)
      return nullptr;
    return PipelineReduced ? &*PipelineReduced : &Filter->stats();
  }

  /// Where notes go: appended to *NotesOut when set, else straight to
  /// stderr. Notes are whole lines, all written at the end: the reference
  /// checker's stop, the lenient repair count, the governor's breach.
  std::string *NotesOut = nullptr;

  /// beginAnalysis on every delivered back-end. Syms must outlive the
  /// plan; its names resolve the warnings.
  void begin(const SymbolTable &Syms);

  /// Sanitize one event and deliver what comes out (through the filter).
  /// Once the governor is exhausted, mid-event included, nothing more is
  /// sanitized or delivered. Returns false on a strict-mode rejection
  /// (sanitizer().error() has the diagnostic). Line is the source line for
  /// diagnostics and the crash ring (0 = none).
  bool feed(const Event &E, uint64_t Line = 0) {
    if (stopped())
      return true;
    Sanitized.clear();
    if (!San.push(E, Sanitized, Line))
      return false;
    deliverSanitized(Line);
    return true;
  }

  /// The governor is exhausted: feed() delivers nothing more, and
  /// front-ends stop reading.
  bool stopped() const {
    return Gov && Gov->state() == GovernorState::Exhausted;
  }

  /// End of stream: flush the sanitizer unless stopped (a stopped run
  /// counts only what it delivered, as the parallel pipeline does), then
  /// endAnalysis on every delivered back-end and the closing notes.
  void finish();

  /// Stream Src to its end, or to the stop, and finish(): Src interns
  /// into Syms, which begin() or restore() was given (and is seeked on
  /// resume). Sequentially, each record is fed; every Opts.CheckpointEvery
  /// records read the sink gets cut() at the next record boundary the
  /// source can tell, after the same records as the pipeline's cuts; a
  /// SIGTERM/SIGINT (support/Supervisor.h) ends the run at a record
  /// boundary, after a last cut, with Signal set. With
  /// Parallel set, the pipeline (docs/PARALLEL.md) runs the same stages
  /// with this plan's sanitizer, filter, delivery list, resume counters
  /// and stop probe. Either way Opts' crash hooks apply, and a run that
  /// reaches the end writes the closing notes and counts as of the stop
  /// event. A failed checkpoint write ends the run with Checkpoint; in the
  /// drain it is reported beside Signal.
  PipelineResult run(TraceSource &Src, SymbolTable &Syms, bool Parallel,
                     ParallelOptions Opts);

  uint64_t eventsSeen() const { return Seen.Events; }
  GovernorState governorState() const {
    return Gov ? Gov->state() : GovernorState::Normal;
  }

  /// 0 serializable, 1 violation, 3 resource-limited (verdict unknown).
  /// The graph checkers are the reference; the vector-clock checker
  /// supplies the verdict alone or after degradation.
  int exitCode() const;

  /// Header counters, one section per reported back-end, verdict and exit
  /// code. The caller names the tool and the trace.
  void report(ReportManager &RM, const SymbolTable &Syms) const;

  /// This run's state as a checkpoint cut (the form the parallel pipeline
  /// assembles at batch boundaries) at the caller's stream position: the
  /// byte offset after the last record read, and that record's line.
  CheckpointCut cut(uint64_t ByteOffset = 0, uint64_t LineNo = 0) const;

  /// The snapshot body for Cut:
  ///   config | u64 events | u32 threads | u64 byte offset | u64 line |
  ///   blob symbols | blob sanitizer | blob filter ("" without --reduce) |
  ///   u64 N | N x (str back-end name, blob state), in delivery order
  void write(SnapshotWriter &W, const CheckpointCut &Cut) const;

  /// Read a body up to its stream position.
  static bool readHead(SnapshotReader &R, PlanHead &Out);
  /// Restore the rest of a body into a plan created from H.Config: the
  /// symbols into the empty Syms, then begin(), the sanitizer, the filter,
  /// and each back-end in delivery order (the saved names must match).
  /// The body must end the snapshot.
  bool restore(const PlanHead &H, SnapshotReader &R, SymbolTable &Syms,
               std::string &Err);

private:
  explicit AnalysisPlan(const PlanConfig &Config);

  /// Deliver the sanitizer's output through the filter until stopped,
  /// each event under the next sanitized-stream ordinal.
  void deliverSanitized(uint64_t Line);
  /// run() with Parallel set.
  PipelineResult runPipeline(TraceSource &Src, SymbolTable &Syms,
                             ParallelOptions Opts);
  /// Pass A over events Next yields (with their lines) until it returns
  /// false.
  template <typename NextFn> bool sweep(NextFn Next, std::string &Err);
  void note(const std::string &Line);
  void closingNotes(const RepairCounts &Repairs);
  void crash() const;

  PlanConfig Config;

  // The full roster, always constructed; the selector decides membership.
  Velodrome Velo;
  BasicVelodrome Basic;
  AeroDrome Aero;
  Atomizer Atom;
  Eraser Race;
  HbRaceDetector Hb;
  DeadlockDetector Deadlock;

  std::vector<Backend *> Reporting; ///< report table order
  /// The back-ends events reach, in order: the governor stands in for its
  /// primary, fallback and reference.
  std::vector<Backend *> Delivery;
  Backend *Primary = nullptr;
  std::unique_ptr<GovernedAnalysis> Gov; ///< set when the run is governed

  TraceSanitizer San;
  /// Set under --reduce. On the heap: the pipeline's filter stage writes
  /// it per event, and next to the sanitizer stage's San it would share
  /// cache lines across threads.
  std::unique_ptr<ReductionFilter> Filter;
  std::vector<Event> Sanitized;
  const SymbolTable *Syms = nullptr;

  uint64_t Ordinal = 0; ///< sanitized-stream position (docs/REPORTING.md)
  DeliveryCount Seen;
  uint64_t EventsAtStart = 0; ///< resumed offset, for CrashAt
  /// run()'s crash hooks, from ParallelOptions: record each delivered
  /// event in the crash ring, and raise CrashSignal after CrashAt events
  /// (0 = off) delivered by this process.
  bool NoteCrashEvents = false;
  uint64_t CrashAt = 0;
  int CrashSignal = SIGKILL;
  /// The filter's counters a parallel run returned: they stop at its stop
  /// event, where the filter stage itself ran on.
  std::optional<PassStats> PipelineReduced;
};

} // namespace velo

#endif // VELO_ANALYSIS_PLAN_H
