//===- analysis/Plan.cpp - One analysis plan behind every tool ------------===//

#include "analysis/Plan.h"

#include "staticpass/PassManager.h"
#include "support/Supervisor.h"

#include <algorithm>
#include <cstdio>

namespace velo {

namespace {

/// A capping checker's options under the plan's --max-warnings cap.
template <typename OptionsT>
OptionsT capped(OptionsT O, const PlanConfig &C) {
  if (C.MaxWarnings)
    O.MaxWarnings = *C.MaxWarnings;
  return O;
}

VelodromeOptions veloOptions(const PlanConfig &C) {
  VelodromeOptions O;
  O.UseMerge = !C.NoMerge;
  return capped(O, C);
}

const char *verdictText(int Exit) {
  return Exit == 1   ? "NOT conflict-serializable"
         : Exit == 3 ? "resource-limited: verdict unknown"
                     : "serializable";
}

} // namespace

void PlanConfig::write(SnapshotWriter &W) const {
  W.str(BackendSel);
  W.u8(Mode == SanitizeMode::Lenient ? 1 : 0);
  W.boolean(NoMerge);
  W.boolean(MaxWarnings.has_value());
  W.u64(MaxWarnings.value_or(0));
  W.boolean(HotSpare);
  W.boolean(Reduce.has_value());
  W.u8(Reduce.value_or(PassMask::none()).Bits);
  W.u64(Limits.MaxEvents);
  W.u64(Limits.MaxLiveNodes);
  W.u64(Limits.MaxMemoryBytes);
  W.u64(Limits.DeadlineMillis);
  W.u32(Limits.CheckIntervalEvents);
}

bool PlanConfig::read(SnapshotReader &R) {
  BackendSel = R.str();
  Mode = R.u8() ? SanitizeMode::Lenient : SanitizeMode::Strict;
  NoMerge = R.boolean();
  bool Capped = R.boolean();
  uint64_t Cap = R.u64();
  MaxWarnings = Capped ? std::optional<uint64_t>(Cap) : std::nullopt;
  HotSpare = R.boolean();
  bool Reducing = R.boolean();
  PassMask Mask{R.u8()};
  Reduce = Reducing ? std::optional<PassMask>(Mask) : std::nullopt;
  Limits.MaxEvents = R.u64();
  Limits.MaxLiveNodes = R.u64();
  Limits.MaxMemoryBytes = R.u64();
  Limits.DeadlineMillis = R.u64();
  Limits.CheckIntervalEvents = R.u32();
  return !R.failed();
}

AnalysisPlan::AnalysisPlan(const PlanConfig &Config)
    : Config(Config), Velo(veloOptions(Config)),
      Aero(capped(AeroDromeOptions(), Config)),
      Deadlock(capped(DeadlockOptions(), Config)), San(Config.Mode) {
  if (Config.Reduce)
    Filter = std::make_unique<ReductionFilter>();
}

std::unique_ptr<AnalysisPlan> AnalysisPlan::create(const PlanConfig &Config,
                                                   std::string &Err) {
  std::unique_ptr<AnalysisPlan> P(new AnalysisPlan(Config));
  // The vocabulary, in report-table order. "all" is the first six: the
  // lock-order checker is opt-in, so default reports stay as they were.
  Backend *const Roster[] = {&P->Velo, &P->Basic, &P->Aero, &P->Atom,
                             &P->Race, &P->Hb,    &P->Deadlock};
  const char *const Selectors[] = {"velodrome", "basic",  "aero", "atomizer",
                                   "eraser",    "hb",     "deadlock"};
  const std::string &Sel = Config.BackendSel;
  for (size_t I = 0; I < 7; ++I)
    if (Sel == Selectors[I] || (Sel == "all" && I < 6))
      P->Reporting.push_back(Roster[I]);
  if (P->Reporting.empty()) {
    Err = "unknown backend: " + Sel;
    return nullptr;
  }

  // The governor wraps the verdict-producing pair: the selected graph
  // checker as primary, the vector-clock checker as its degradation
  // target. Beside the optimized primary it also carries the Figure 2
  // reference, which has no GC and quadratic cycle checks: once a cap
  // trips the trace is past test scale, so the governor stops feeding it.
  // Remaining back-ends are delivered alongside, ungoverned, and stop with
  // the governor on exhaustion.
  bool RunAero = P->reports(P->Aero);
  P->Primary = P->reports(P->Velo)    ? static_cast<Backend *>(&P->Velo)
               : P->reports(P->Basic) ? static_cast<Backend *>(&P->Basic)
               : RunAero              ? static_cast<Backend *>(&P->Aero)
                                      : nullptr;
  Backend *Fallback = nullptr;
  if (P->Primary && P->Primary != &P->Aero && (RunAero || Config.HotSpare))
    Fallback = &P->Aero;
  Backend *Reference =
      P->Primary == &P->Velo && P->reports(P->Basic) ? &P->Basic : nullptr;
  GovernedAnalysis::Probe Probe;
  GovernedAnalysis::FailProbe FailProbe;
  if (P->Primary == &P->Velo) {
    Velodrome *V = &P->Velo;
    Probe = [V](uint64_t &Nodes, uint64_t &Bytes) {
      Nodes = V->graph().nodesAlive();
      // Rough per-node footprint: slot bookkeeping + edges + ancestor set.
      Bytes = Nodes * 256;
    };
    // Slot-space exhaustion is a degradation cause, not a process abort.
    FailProbe = [V]() -> std::string {
      return V->graphExhausted() ? "happens-before graph node slot space "
                                   "exhausted"
                                 : "";
    };
  }
  if (P->Primary && Config.Limits.any()) {
    P->Gov = std::make_unique<GovernedAnalysis>(
        *P->Primary, Fallback, Config.Limits, std::move(Probe),
        std::move(FailProbe), Reference);
    P->Delivery.push_back(P->Gov.get());
  }
  for (Backend *B : P->Reporting)
    if (!P->Gov || (B != P->Primary && B != Fallback && B != Reference))
      P->Delivery.push_back(B);
  return P;
}

bool AnalysisPlan::reports(const Backend &B) const {
  return std::find(Reporting.begin(), Reporting.end(), &B) != Reporting.end();
}

void AnalysisPlan::begin(const SymbolTable &S) {
  Syms = &S;
  for (Backend *B : Delivery)
    B->beginAnalysis(S);
}

void AnalysisPlan::note(const std::string &Line) {
  if (NotesOut)
    *NotesOut += Line;
  else
    std::fputs(Line.c_str(), stderr);
}

void AnalysisPlan::crash() const {
  // Test hook: simulate an analysis crash at a deterministic point.
  std::fflush(nullptr);
  ::raise(CrashSignal);
}

void AnalysisPlan::deliverSanitized(uint64_t Line) {
  for (const Event &Out : Sanitized) {
    ++Ordinal;
    if (Filter && !Filter->keep(Out))
      continue;
    Seen.add(Out);
    if (NoteCrashEvents)
      crashdump::noteEvent(Out, Seen.Events, Line);
    for (Backend *B : Delivery) {
      B->setEventOrdinal(Ordinal);
      B->onEvent(Out);
    }
    if (CrashAt != 0 && Seen.Events - EventsAtStart >= CrashAt)
      crash();
    if (stopped())
      break;
  }
}

template <typename NextFn>
bool AnalysisPlan::sweep(NextFn Next, std::string &Err) {
  if (!Filter)
    return true;
  // The replay's sanitizer mode: the classifier sees the stream the
  // filter will be offered.
  TraceSanitizer Cls(Config.Mode);
  TraceClassifier Classifier;
  std::vector<Event> Out;
  Event E;
  uint64_t Line = 0;
  for (bool More = true; More;) {
    Out.clear();
    More = Next(E, Line);
    if (!More) {
      Cls.finish(Out);
    } else if (!Cls.push(E, Out, Line)) {
      Err = Cls.error();
      return false;
    }
    for (const Event &C : Out)
      Classifier.onEvent(C);
  }
  *Filter =
      ReductionFilter(PassManager(*Config.Reduce).plan(Classifier.facts()));
  return true;
}

bool AnalysisPlan::classify(TraceSource &Src, std::string &Err) {
  auto Next = [&Src](Event &E, uint64_t &Line) {
    return Src.next(E) && (Line = Src.lineNo(), true);
  };
  return sweep(Next, Err) && !Src.failed();
}

bool AnalysisPlan::classify(const Trace &T, std::string &Err) {
  auto It = T.begin();
  auto Next = [&](Event &E, uint64_t &) {
    return It != T.end() && (E = *It++, true);
  };
  return sweep(Next, Err);
}

void AnalysisPlan::finish() {
  Sanitized.clear();
  if (!stopped()) {
    San.finish(Sanitized);
    deliverSanitized(0);
  }
  for (Backend *B : Delivery)
    B->endAnalysis();
  closingNotes(San.repairs());
}

void AnalysisPlan::closingNotes(const RepairCounts &Repairs) {
  if (Gov && Gov->referenceStopped())
    note("governor: stopped the reference checker (Velodrome(basic), no GC) "
         "after the cap breach\n");
  note(Repairs.note());
  if (governorState() != GovernorState::Normal)
    note("governor: " + Gov->breachReason() +
         (Gov->state() == GovernorState::Degraded
              ? "; fell back to the vector-clock checker (blame and error "
                "graphs unavailable)"
              : "; analysis stopped") +
         "\n");
}

PipelineResult AnalysisPlan::run(TraceSource &Src, SymbolTable &S,
                                 bool Parallel, ParallelOptions Opts) {
  if (Parallel)
    return runPipeline(Src, S, std::move(Opts));
  NoteCrashEvents = Opts.NoteCrashEvents;
  CrashAt = Opts.CrashAt;
  CrashSignal = Opts.CrashSignal;
  PipelineResult R;
  const bool Checkpointing = Opts.CheckpointSink && Opts.CheckpointEvery != 0;
  // A record just processed is fully delivered, so the source position
  // after it is a clean resume boundary.
  auto Checkpoint = [&](uint64_t Offset) {
    std::string Error;
    if (Opts.CheckpointSink(cut(Offset, Src.lineNo()), Error))
      return true;
    R.Err = PipelineError::Checkpoint;
    R.Detail = Error;
    return false;
  };
  // The cadence counts records read, as the parallel reader's does, so
  // both engines cut after the same records even when --reduce drops
  // some (a resumed source counts from the snapshot's delivered count).
  uint64_t NextCkpt = Src.eventCount() + Opts.CheckpointEvery;
  Event E;
  while (Src.next(E)) {
    if (!feed(E, Src.lineNo())) {
      R.Err = PipelineError::Sanitize;
      R.Detail = San.error();
      return R;
    }
    if (stopped())
      break;
    // Text: tell() fails only once the scanner has met the end of the
    // input (the run is about to finish anyway). Binary: tell() fails
    // mid-frame, deferring the snapshot to the frame's end, so the cadence
    // moves on only when a cut was written.
    uint64_t Off = 0;
    if (Checkpointing && Src.eventCount() >= NextCkpt && Src.tell(Off)) {
      if (!Checkpoint(Off))
        return R;
      NextCkpt = Src.eventCount() + Opts.CheckpointEvery;
    }
    if (int Sig = stopSignal()) {
      // Graceful drain: persist this boundary and report the signal.
      if (Checkpointing && Src.tell(Off))
        Checkpoint(Off);
      R.Signal = Sig;
      return R;
    }
  }
  if (Src.failed()) {
    R.Err = PipelineError::Parse;
    R.Detail = Src.error();
    return R;
  }
  finish();
  R.EventsSeen = Seen.Events;
  R.ThreadsSeen = Seen.Threads;
  R.SanitizedEvents = Ordinal;
  R.Repairs = San.repairs();
  if (Filter)
    R.Reduced = Filter->stats();
  return R;
}

PipelineResult AnalysisPlan::runPipeline(TraceSource &Src, SymbolTable &S,
                                         ParallelOptions Opts) {
  Opts.StartEvents = Seen.Events;
  Opts.StartThreads = Seen.Threads;
  Opts.StartOrdinal = Ordinal;
  if (Gov) {
    // The probe runs on the governor's worker after every event:
    // exhaustion makes that event the stop event, as in the sequential
    // loop.
    Opts.StopProbe = [this] { return stopped(); };
    Opts.StopOwner = Gov.get();
  }
  PipelineResult R =
      ParallelPipeline(Src, S, San, Filter.get(), Delivery, std::move(Opts))
          .run();
  if (R.Err != PipelineError::None)
    return R;
  Seen = {R.EventsSeen, R.ThreadsSeen};
  Ordinal = R.SanitizedEvents;
  if (Filter)
    PipelineReduced = R.Reduced;
  closingNotes(R.Repairs);
  return R;
}

int AnalysisPlan::exitCode() const {
  if (Gov) {
    switch (Gov->verdict()) {
    case GovernorVerdict::Violation:
      return 1;
    case GovernorVerdict::Unknown:
      return 3;
    case GovernorVerdict::Serializable:
      return 0;
    }
  }
  return Primary && Primary->sawViolation() ? 1 : 0;
}

void AnalysisPlan::report(ReportManager &RM, const SymbolTable &S) const {
  RM.Run.Events = Seen.Events;
  RM.Run.SanitizedEvents = Ordinal;
  RM.Run.Threads = Seen.Threads;
  for (const Backend *B : Reporting)
    RM.addSection(B->name(), B->warnings(), &S);
  RM.Run.ExitCode = exitCode();
  RM.Run.Verdict = verdictText(RM.Run.ExitCode);
}

CheckpointCut AnalysisPlan::cut(uint64_t ByteOffset, uint64_t LineNo) const {
  CheckpointCut C;
  C.ByteOffset = ByteOffset;
  C.LineNo = LineNo;
  C.EventsSeen = Seen.Events;
  C.ThreadsSeen = Seen.Threads;
  SnapshotWriter SymsW;
  serializeSymbols(SymsW, *Syms);
  C.SymsBlob = SymsW.payload();
  SnapshotWriter SanW;
  San.serialize(SanW);
  C.SanBlob = SanW.payload();
  if (Filter) {
    SnapshotWriter FilterW;
    Filter->serialize(FilterW);
    C.FilterBlob = FilterW.payload();
  }
  for (const Backend *B : Delivery) {
    SnapshotWriter BW;
    B->serialize(BW);
    C.Backends.emplace_back(B->name(), BW.payload());
  }
  return C;
}

void AnalysisPlan::write(SnapshotWriter &W, const CheckpointCut &Cut) const {
  Config.write(W);
  W.u64(Cut.EventsSeen);
  W.u32(Cut.ThreadsSeen);
  W.u64(Cut.ByteOffset);
  W.u64(Cut.LineNo);
  // str(blob) and blob(writer) share one encoding.
  W.str(Cut.SymsBlob);
  W.str(Cut.SanBlob);
  W.str(Cut.FilterBlob);
  W.u64(Cut.Backends.size());
  for (const auto &Entry : Cut.Backends) {
    W.str(Entry.first);
    W.str(Entry.second);
  }
}

bool AnalysisPlan::readHead(SnapshotReader &R, PlanHead &Out) {
  if (!Out.Config.read(R))
    return false;
  Out.EventsSeen = R.u64();
  Out.ThreadsSeen = R.u32();
  Out.ByteOffset = R.u64();
  Out.LineNo = R.u64();
  return !R.failed();
}

bool AnalysisPlan::restore(const PlanHead &H, SnapshotReader &R,
                           SymbolTable &S, std::string &Err) {
  // Order matters: symbols first (back-ends keep a reference to the table
  // from beginAnalysis), then the sanitizer and each back-end's state.
  SnapshotReader SymsBlob = R.blob();
  if (!deserializeSymbols(SymsBlob, S)) {
    Err = "corrupt symbol table";
    return false;
  }
  begin(S);
  SnapshotReader SanBlob = R.blob();
  if (!San.deserialize(SanBlob)) {
    Err = "sanitizer state does not match this configuration";
    return false;
  }
  SnapshotReader FilterBlob = R.blob();
  if (Filter && !Filter->deserialize(FilterBlob)) {
    Err = "reduction filter state cannot be restored";
    return false;
  }
  if (R.u64() != Delivery.size()) {
    Err = "the saved back-ends do not match this configuration";
    return false;
  }
  for (Backend *B : Delivery) {
    std::string Name = R.str();
    SnapshotReader Blob = R.blob();
    if (Name != B->name() || !B->deserialize(Blob)) {
      Err = "backend '" + Name + "' state cannot be restored";
      return false;
    }
  }
  if (R.failed() || !R.atEnd()) {
    Err = "truncated snapshot";
    return false;
  }
  Seen = {H.EventsSeen, H.ThreadsSeen};
  EventsAtStart = H.EventsSeen;
  // The sanitized-stream position needs no field of its own: the
  // restored filter counted every sanitized event it was offered; without
  // one, every sanitized event was delivered.
  Ordinal = Filter ? Filter->stats().Input : Seen.Events;
  return true;
}

} // namespace velo
