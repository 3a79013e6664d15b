//===- analysis/Plan.h - One analysis plan behind every tool ----*- C++ -*-===//
//
// Velodrome's guarantee (a warning iff the trace is not conflict-
// serializable) holds for every tool only if every tool wires the checkers
// the same way. The plan is that wiring, written once:
//
//   * the back-end vocabulary and which back-ends a selector runs;
//   * the governed primary, its vector-clock fallback, and the probes;
//   * the delivery list and the per-event bookkeeping (events and threads
//     seen, sanitized-stream ordinals, the reference checker's drop after
//     a cap breach), sequentially and through the parallel pipeline hooks;
//   * the verdict, the exit code, the governor notes, the report sections;
//   * the snapshot body: config, counters, and one named blob per back-end.
//
// velodrome-check, serve::Session, velodrome-run and velodrome-fuzz are
// front-ends over it. Each keeps what is really its own: the event source,
// the static reduction filter, the checkpoint cadence, supervision, and
// presentation (docs/ALGORITHM.md "Analysis plan").
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

  void write(SnapshotWriter &W) const;
  bool read(SnapshotReader &R);
};

/// What a snapshot body states before any analysis state is decoded: the
/// supervisor's progress marker and the config to rebuild the plan from.
struct PlanHead {
  PlanConfig Config;
  uint64_t EventsSeen = 0;
  uint32_t ThreadsSeen = 0;
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

  /// The back-ends events reach, in order: the governor stands in for its
  /// primary and fallback.
  const std::vector<Backend *> &delivery() const { return Delivery; }

  /// Also deliver to B, after the plan's own back-ends, ungoverned and
  /// unreported (velodrome-run's scheduling guide).
  void attach(Backend &B) { Delivery.push_back(&B); }

  /// Filter between the sanitizer and delivery (--reduce); the caller
  /// owns it. Events it drops still take a sanitized-stream ordinal.
  void setFilter(ReductionFilter *F) { Filter = F; }

  TraceSanitizer &sanitizer() { return San; }

  /// Where notes go: appended to *NotesOut when set, else straight to
  /// stderr. Notes are whole lines: the reference checker's drop, then at
  /// the end the lenient repair count and the governor's breach.
  std::string *NotesOut = nullptr;

  /// velodrome-check's crash hooks: record each delivered event in the
  /// crash ring, and raise CrashSignal after CrashAt events (0 = off)
  /// delivered by this process.
  bool NoteCrashEvents = false;
  uint64_t CrashAt = 0;
  int CrashSignal = SIGKILL;

  /// beginAnalysis on every delivered back-end. Syms must outlive the
  /// plan; its names resolve the warnings.
  void begin(const SymbolTable &Syms);

  /// Sanitize one event and deliver what comes out (through the filter).
  /// Stops mid-batch once the governor is exhausted. Returns false on a
  /// strict-mode rejection (sanitizer().error() has the diagnostic). Line
  /// is the source line for diagnostics and the crash ring (0 = none).
  bool feed(const Event &E, uint64_t Line = 0) {
    Sanitized.clear();
    if (!San.push(E, Sanitized, Line))
      return false;
    for (const Event &Out : Sanitized) {
      if (Filter && !Filter->keep(Out)) {
        ++Ordinal;
        continue;
      }
      deliver(Out, Line);
      if (stopped())
        break;
    }
    return true;
  }

  /// Deliver one already-sanitized event under the next ordinal.
  void deliver(const Event &E, uint64_t Line = 0) {
    ++Ordinal;
    ++EventsSeen;
    if (NoteCrashEvents)
      crashdump::noteEvent(E, EventsSeen, Line);
    if (E.Thread >= ThreadsSeen)
      ThreadsSeen = E.Thread + 1;
    if ((E.Kind == Op::Fork || E.Kind == Op::Join) && E.child() >= ThreadsSeen)
      ThreadsSeen = E.child() + 1;
    for (Backend *B : Delivery) {
      B->setEventOrdinal(Ordinal);
      B->onEvent(E);
    }
    // The reference checker has no GC and quadratic cycle checks; once the
    // governor trips a cap the trace is past test scale, and keeping it fed
    // would defeat the bound. Its warnings up to here are kept.
    if (ReferenceLive && Gov->state() != GovernorState::Normal)
      dropReference();
    if (CrashAt != 0 && EventsSeen - EventsAtStart >= CrashAt)
      crash();
  }

  /// The governor is exhausted: front-ends stop reading.
  bool stopped() const {
    return Gov && Gov->state() == GovernorState::Exhausted;
  }

  /// End of stream: flush the sanitizer (ordinals continue; nothing is
  /// delivered once stopped), then end().
  void finish();

  /// endAnalysis on every delivered back-end, then the closing notes.
  void end();

  /// Parallel pipeline wiring: resume counters, crash hooks, the stop
  /// probe, and the reference checker's exact-event drop.
  void wire(ParallelOptions &Opts);
  /// Take the counters of a finished pipeline run, then the closing notes.
  void absorb(const PipelineResult &R);

  uint64_t eventsSeen() const { return EventsSeen; }
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
  /// assembles at batch boundaries), without the caller's stream position
  /// and filter.
  CheckpointCut cut() const;

  /// The snapshot body for Cut:
  ///   config | u64 events | u32 threads | blob symbols | blob sanitizer |
  ///   u64 N | N x (str back-end name, blob state)
  /// Back-ends with an empty state blob were dropped before the cut.
  void write(SnapshotWriter &W, const CheckpointCut &Cut) const;

  /// Read a body up to its counters.
  static bool readHead(SnapshotReader &R, PlanHead &Out);
  /// Restore the rest of a body into a plan created from H.Config: the
  /// symbols into the empty Syms, then begin(), the sanitizer, and each
  /// saved back-end by name (delivery becomes exactly the saved list).
  /// The body must end the snapshot. Set the filter first: resumed
  /// ordinals continue from its input count.
  bool restore(const PlanHead &H, SnapshotReader &R, SymbolTable &Syms,
               std::string &Err);

private:
  explicit AnalysisPlan(const PlanConfig &Config);

  bool delivers(const Backend &B) const;
  void note(const std::string &Line);
  void closingNotes();
  void dropReference();
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
  std::vector<Backend *> Delivery;
  Backend *Primary = nullptr;
  std::unique_ptr<GovernedAnalysis> Gov; ///< set when the run is governed
  /// The reference checker is delivered beside the governor (not as its
  /// primary), so a cap breach drops it.
  bool ReferenceLive = false;

  TraceSanitizer San;
  ReductionFilter *Filter = nullptr;
  std::vector<Event> Sanitized;
  const SymbolTable *Syms = nullptr;

  uint64_t Ordinal = 0; ///< sanitized-stream position (docs/REPORTING.md)
  uint64_t EventsSeen = 0;
  uint32_t ThreadsSeen = 0;
  uint64_t EventsAtStart = 0; ///< resumed offset, for CrashAt
};

} // namespace velo

#endif // VELO_ANALYSIS_PLAN_H
