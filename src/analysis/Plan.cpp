//===- analysis/Plan.cpp - One analysis plan behind every tool ------------===//

#include "analysis/Plan.h"

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
      Deadlock(capped(DeadlockOptions(), Config)), San(Config.Mode) {}

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
  // target. Remaining back-ends are delivered alongside, ungoverned, and
  // stop with the governor on exhaustion.
  bool RunAero = P->reports(P->Aero);
  P->Primary = P->reports(P->Velo)    ? static_cast<Backend *>(&P->Velo)
               : P->reports(P->Basic) ? static_cast<Backend *>(&P->Basic)
               : RunAero              ? static_cast<Backend *>(&P->Aero)
                                      : nullptr;
  Backend *Fallback = nullptr;
  if (P->Primary && P->Primary != &P->Aero && (RunAero || Config.HotSpare))
    Fallback = &P->Aero;
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
        std::move(FailProbe));
    P->Delivery.push_back(P->Gov.get());
  }
  for (Backend *B : P->Reporting)
    if (!P->Gov || (B != P->Primary && B != Fallback))
      P->Delivery.push_back(B);
  P->ReferenceLive = P->Gov && P->delivers(P->Basic);
  return P;
}

bool AnalysisPlan::reports(const Backend &B) const {
  return std::find(Reporting.begin(), Reporting.end(), &B) != Reporting.end();
}

bool AnalysisPlan::delivers(const Backend &B) const {
  return std::find(Delivery.begin(), Delivery.end(), &B) != Delivery.end();
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

void AnalysisPlan::dropReference() {
  Delivery.erase(std::find(Delivery.begin(), Delivery.end(), &Basic));
  ReferenceLive = false;
  note("governor: stopped the reference checker (Velodrome(basic), no GC) "
       "after the cap breach\n");
}

void AnalysisPlan::crash() const {
  // Test hook: simulate an analysis crash at a deterministic point.
  std::fflush(nullptr);
  ::raise(CrashSignal);
}

void AnalysisPlan::finish() {
  Sanitized.clear();
  San.finish(Sanitized);
  for (const Event &Out : Sanitized) {
    if (!stopped() && (!Filter || Filter->keep(Out)))
      deliver(Out);
    else
      ++Ordinal;
  }
  end();
}

void AnalysisPlan::end() {
  for (Backend *B : Delivery)
    B->endAnalysis();
  closingNotes();
}

void AnalysisPlan::closingNotes() {
  note(San.repairs().note());
  if (governorState() != GovernorState::Normal)
    note("governor: " + Gov->breachReason() +
         (Gov->state() == GovernorState::Degraded
              ? "; fell back to the vector-clock checker (blame and error "
                "graphs unavailable)"
              : "; analysis stopped") +
         "\n");
}

void AnalysisPlan::wire(ParallelOptions &Opts) {
  Opts.StartEvents = EventsSeen;
  Opts.StartThreads = ThreadsSeen;
  Opts.StartOrdinal = Ordinal;
  Opts.NoteCrashEvents = NoteCrashEvents;
  Opts.CrashAt = CrashAt;
  Opts.CrashSignal = CrashSignal;
  if (!Gov)
    return;
  // The probe runs on the governor's worker; exhaustion stops the reader
  // at the next batch boundary.
  Opts.StopProbe = [this] { return stopped(); };
  Opts.StopOwner = Gov.get();
  if (ReferenceLive) {
    // Pin the reference checker beside the governor so its post-breach
    // drop lands on the exact event the sequential loop drops it at.
    Opts.Colocate.push_back({Gov.get(), &Basic});
    Opts.KeepDelivering = [this](Backend *B) {
      if (B != &Basic || Gov->state() == GovernorState::Normal)
        return true;
      dropReference();
      return false;
    };
  }
}

void AnalysisPlan::absorb(const PipelineResult &R) {
  EventsSeen = R.EventsSeen;
  ThreadsSeen = R.ThreadsSeen;
  Ordinal = R.SanitizedEvents;
  closingNotes();
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
  RM.Run.Events = EventsSeen;
  RM.Run.SanitizedEvents = Ordinal;
  RM.Run.Threads = ThreadsSeen;
  for (const Backend *B : Reporting)
    RM.addSection(B->name(), B->warnings(), &S);
  RM.Run.ExitCode = exitCode();
  RM.Run.Verdict = verdictText(RM.Run.ExitCode);
}

CheckpointCut AnalysisPlan::cut() const {
  CheckpointCut C;
  C.EventsSeen = EventsSeen;
  C.ThreadsSeen = ThreadsSeen;
  SnapshotWriter SymsW;
  serializeSymbols(SymsW, *Syms);
  C.SymsBlob = SymsW.payload();
  SnapshotWriter SanW;
  San.serialize(SanW);
  C.SanBlob = SanW.payload();
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
  // str(blob) and blob(writer) share one encoding.
  W.str(Cut.SymsBlob);
  W.str(Cut.SanBlob);
  uint64_t Live = 0;
  for (const auto &Entry : Cut.Backends)
    Live += !Entry.second.empty();
  W.u64(Live);
  for (const auto &Entry : Cut.Backends) {
    if (Entry.second.empty())
      continue;
    W.str(Entry.first);
    W.str(Entry.second);
  }
}

bool AnalysisPlan::readHead(SnapshotReader &R, PlanHead &Out) {
  if (!Out.Config.read(R))
    return false;
  Out.EventsSeen = R.u64();
  Out.ThreadsSeen = R.u32();
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
  // The snapshot lists the back-ends still live when it was written (the
  // reference checker is dropped after a cap breach), so delivery
  // membership is restored by name.
  uint64_t NumSaved = R.u64();
  std::vector<Backend *> Restored;
  for (uint64_t I = 0; I < NumSaved && !R.failed(); ++I) {
    std::string Name = R.str();
    SnapshotReader Blob = R.blob();
    auto It = std::find_if(Delivery.begin(), Delivery.end(),
                           [&](Backend *B) { return Name == B->name(); });
    if (It == Delivery.end() || !(*It)->deserialize(Blob)) {
      Err = "backend '" + Name + "' state cannot be restored";
      return false;
    }
    Restored.push_back(*It);
  }
  if (R.failed() || !R.atEnd()) {
    Err = "truncated snapshot";
    return false;
  }
  Delivery = std::move(Restored);
  ReferenceLive = ReferenceLive && delivers(Basic);
  EventsSeen = EventsAtStart = H.EventsSeen;
  ThreadsSeen = H.ThreadsSeen;
  // The sanitized-stream position needs no field of its own: a restored
  // filter counted every sanitized event it was offered; without one,
  // every sanitized event was delivered.
  Ordinal = Filter ? Filter->stats().Input : EventsSeen;
  return true;
}

} // namespace velo
