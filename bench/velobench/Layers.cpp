//===- bench/velobench/Layers.cpp - Traced in-process runs ----------------===//
//
// The check mirror below copies velodrome-check's wiring for the
// configurations the workloads use — backend construction, the governor's
// 60000-node default cap and probe, ordinals, the report header — and
// nothing else; the report-identity check against the real tool is what
// keeps it honest. The serve pass needs no mirror: it drives serve::Session,
// the daemon's own per-tenant pipeline.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Harness.h"
#include "Inputs.h"

#include "aero/AeroDrome.h"
#include "analysis/Governor.h"
#include "core/Velodrome.h"
#include "events/TraceSanitizer.h"
#include "events/TraceSource.h"
#include "parallel/Pipeline.h"
#include "report/Report.h"
#include "serve/Session.h"
#include "serve/Wire.h"
#include "staticpass/Classifier.h"
#include "staticpass/PassManager.h"
#include "staticpass/ReductionFilter.h"

#include <fstream>
#include <memory>

using namespace velo;

namespace velobench {

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Scope::Scope(Tracer &T, const char *Name) : T(T) {
  if (!T.Enabled)
    return;
  Index = static_cast<int32_t>(T.Spans.size());
  T.Spans.push_back({Name, now(), 0, T.Open.empty() ? -1 : T.Open.back(),
                     T.CurRun});
  T.Open.push_back(Index);
}

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  T.Spans[static_cast<size_t>(Index)].End = now();
  T.Open.pop_back();
}

std::map<std::string, double> Tracer::selfTimes(uint32_t Run) const {
  std::vector<double> Self(Spans.size(), 0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (Spans[I].Run != Run)
      continue;
    double Dur = Spans[I].End - Spans[I].Start;
    Self[I] += Dur;
    if (Spans[I].Parent >= 0)
      Self[static_cast<size_t>(Spans[I].Parent)] -= Dur;
  }
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Run == Run)
      Out[Spans[I].Name] += Self[I];
  return Out;
}

bool Tracer::writeJsonl(const std::string &Path, std::string &Err) const {
  std::ofstream Out(Path, std::ios::trunc);
  char Buf[256];
  for (const Span &S : Spans) {
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %d, \"run\": %u}\n",
                  S.Name, S.Start, S.End, S.Parent, S.Run);
    Out << Buf;
  }
  Out.close();
  if (!Out) {
    Err = "cannot write " + Path;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// velodrome-check mirror
//===----------------------------------------------------------------------===//

std::vector<std::string> CheckJob::argv(const std::string &Tool) const {
  std::vector<std::string> A = {Tool, "--backend=" + Backend,
                                "--format=" + Format};
  if (UnlimitedWarnings)
    A.push_back("--max-warnings=0");
  if (Reduce)
    A.push_back("--reduce=all");
  if (Parallel)
    A.push_back("--parallel");
  A.push_back(Trace);
  return A;
}

namespace {

constexpr size_t BatchEvents = 4096;

/// velodrome-check's default governor caps (no explicit cap flags).
GovernorLimits defaultLimits() {
  GovernorLimits L;
  L.MaxLiveNodes = 60000;
  return L;
}

/// The job's reporting back-end behind the governor, wired as
/// velodrome-check wires a single-backend selection.
struct GovernedSet {
  Velodrome Velo;
  AeroDrome Aero;
  Backend *Primary;
  std::unique_ptr<GovernedAnalysis> Gov;

  GovernedSet(bool UseVelo, bool UnlimitedWarnings)
      : Velo(veloOptions(UnlimitedWarnings)),
        Aero(aeroOptions(UnlimitedWarnings)),
        Primary(UseVelo ? static_cast<Backend *>(&Velo) : &Aero) {
    GovernedAnalysis::Probe Probe;
    GovernedAnalysis::FailProbe FailProbe;
    if (UseVelo) {
      Velodrome *V = &Velo;
      Probe = [V](uint64_t &Nodes, uint64_t &Bytes) {
        Nodes = V->graph().nodesAlive();
        Bytes = Nodes * 256;
      };
      FailProbe = [V]() -> std::string {
        return V->graphExhausted() ? "happens-before graph node slot space "
                                     "exhausted"
                                   : "";
      };
    }
    Gov = std::make_unique<GovernedAnalysis>(*Primary, nullptr,
                                             defaultLimits(), std::move(Probe),
                                             std::move(FailProbe));
  }

  static VelodromeOptions veloOptions(bool Unlimited) {
    VelodromeOptions O;
    if (Unlimited)
      O.MaxWarnings = 0;
    return O;
  }
  static AeroDromeOptions aeroOptions(bool Unlimited) {
    AeroDromeOptions O;
    if (Unlimited)
      O.MaxWarnings = 0;
    return O;
  }

  bool exhausted() const {
    return Gov->state() == GovernorState::Exhausted;
  }

  void addGraphCounts(LayerCounts &C) const {
    if (Primary != &Velo)
      return;
    C.GraphAllocated += Velo.graph().nodesAllocated();
    C.GraphMaxAlive = std::max<uint64_t>(C.GraphMaxAlive,
                                         Velo.graph().maxNodesAlive());
    C.GraphEdges += Velo.graph().edgesAdded();
    C.GraphMerged += Velo.graph().nodesMerged();
  }

  /// The tool's report and exit code for this run.
  std::string render(const std::string &Tool, const std::string &Trace,
                     uint64_t Events, uint64_t Sanitized, uint32_t Threads,
                     ReportFormat Format, const SymbolTable &Syms,
                     int &Exit) const {
    ReportManager RM;
    RM.Run.Tool = Tool;
    RM.Run.Trace = Trace;
    RM.Run.Events = Events;
    RM.Run.SanitizedEvents = Sanitized;
    RM.Run.Threads = Threads;
    RM.addSection(Primary->name(), Primary->warnings(), &Syms);
    switch (Gov->verdict()) {
    case GovernorVerdict::Violation:
      RM.Run.Verdict = "NOT conflict-serializable";
      Exit = 1;
      break;
    case GovernorVerdict::Unknown:
      RM.Run.Verdict = "resource-limited: verdict unknown";
      Exit = 3;
      break;
    case GovernorVerdict::Serializable:
      RM.Run.Verdict = "serializable";
      Exit = 0;
      break;
    }
    RM.Run.ExitCode = Exit;
    return RM.render(Format);
  }
};

ReportFormat formatOf(const CheckJob &J) {
  ReportFormat F = ReportFormat::Text;
  parseReportFormat(J.Format, F);
  return F;
}

/// velodrome-check's delivery bookkeeping (events and threads seen).
struct Delivery {
  uint64_t EventsSeen = 0;
  uint32_t ThreadsSeen = 0;

  void deliver(Backend &B, const Event &E, uint64_t Ordinal) {
    ++EventsSeen;
    if (E.Thread >= ThreadsSeen)
      ThreadsSeen = E.Thread + 1;
    if ((E.Kind == Op::Fork || E.Kind == Op::Join) &&
        E.child() >= ThreadsSeen)
      ThreadsSeen = E.child() + 1;
    B.setEventOrdinal(Ordinal);
    B.onEvent(E);
  }
};

std::unique_ptr<TraceSource> openSource(const std::string &Path,
                                        SymbolTable &Syms, std::string &Err) {
  TraceReadStatus St = TraceReadStatus::Ok;
  auto Src = openTraceSource(Path, Syms, St, Err);
  if (!Src && Err.empty())
    Err = "cannot open " + Path;
  return Src;
}

/// Read up to BatchEvents events. Returns false at end of input.
bool decodeBatch(TraceSource &Src, std::vector<Event> &Raw, LayerCounts &C) {
  Raw.clear();
  Event E;
  while (Raw.size() < BatchEvents && Src.next(E))
    Raw.push_back(E);
  C.Decoded += Raw.size();
  return !Raw.empty();
}

bool sanitizeBatch(TraceSanitizer &San, const std::vector<Event> &Raw,
                   std::vector<Event> &Clean, std::string &Err) {
  Clean.clear();
  for (const Event &E : Raw)
    if (!San.push(E, Clean)) {
      Err = "trace is not well formed: " + San.error();
      return false;
    }
  return true;
}

/// Pass A of --reduce: stream the sanitized trace into the classifier and
/// plan the filter.
bool classifySweep(const CheckJob &J, Tracer &T, LayerCounts &C,
                   ReductionPlan &Plan, std::string &Err) {
  SymbolTable Syms;
  std::unique_ptr<TraceSource> Src;
  {
    Tracer::Scope S(T, layer::Decode);
    Src = openSource(J.Trace, Syms, Err);
  }
  if (!Src)
    return false;
  TraceSanitizer San(SanitizeMode::Strict);
  TraceClassifier Classifier;
  std::vector<Event> Raw, Clean;
  for (;;) {
    {
      Tracer::Scope S(T, layer::Decode);
      if (!decodeBatch(*Src, Raw, C))
        break;
    }
    {
      Tracer::Scope S(T, layer::Sanitize);
      if (!sanitizeBatch(San, Raw, Clean, Err))
        return false;
    }
    Tracer::Scope S(T, layer::Classify);
    for (const Event &E : Clean)
      Classifier.onEvent(E);
  }
  if (Src->failed()) {
    Err = Src->error();
    return false;
  }
  {
    Tracer::Scope S(T, layer::Sanitize);
    Clean.clear();
    San.finish(Clean);
  }
  Tracer::Scope S(T, layer::Classify);
  for (const Event &E : Clean)
    Classifier.onEvent(E);
  Plan = PassManager(PassMask::all()).plan(Classifier.facts());
  return true;
}

bool runSequential(const CheckJob &J, const ReductionPlan *Plan, Tracer &T,
                   LayerCounts &C, std::string &Report, int &Exit,
                   std::string &Err) {
  SymbolTable Syms;
  std::unique_ptr<TraceSource> Src;
  {
    Tracer::Scope S(T, layer::Decode);
    Src = openSource(J.Trace, Syms, Err);
  }
  if (!Src)
    return false;
  GovernedSet Set(J.Backend == "velodrome", J.UnlimitedWarnings);
  Set.Gov->beginAnalysis(Syms);
  TraceSanitizer San(SanitizeMode::Strict);
  std::unique_ptr<ReductionFilter> Filter;
  if (Plan)
    Filter = std::make_unique<ReductionFilter>(*Plan);
  Delivery D;
  uint64_t SanOrdinal = 0;
  std::vector<Event> Raw, Clean;
  std::vector<uint64_t> Ordinals;

  // Filter (when reducing) then deliver one sanitized batch.
  auto FilterAndDeliver = [&]() {
    Ordinals.clear();
    if (Filter) {
      Tracer::Scope S(T, layer::Filter);
      size_t Out = 0;
      for (const Event &E : Clean) {
        ++SanOrdinal;
        ++C.Offered;
        if (Filter->keep(E)) {
          Clean[Out++] = E;
          Ordinals.push_back(SanOrdinal);
        }
      }
      Clean.resize(Out);
      C.Kept += Out;
    } else {
      for (size_t I = 0; I < Clean.size(); ++I)
        Ordinals.push_back(++SanOrdinal);
    }
    Tracer::Scope S(T, layer::Backend);
    for (size_t I = 0; I < Clean.size(); ++I) {
      D.deliver(*Set.Gov, Clean[I], Ordinals[I]);
      if (Set.exhausted())
        return false;
    }
    return true;
  };

  bool Stopped = false;
  while (!Stopped) {
    {
      Tracer::Scope S(T, layer::Decode);
      if (!decodeBatch(*Src, Raw, C))
        break;
    }
    {
      Tracer::Scope S(T, layer::Sanitize);
      if (!sanitizeBatch(San, Raw, Clean, Err))
        return false;
    }
    Stopped = !FilterAndDeliver();
  }
  if (Src->failed()) {
    Err = Src->error();
    return false;
  }
  if (!Stopped) {
    {
      Tracer::Scope S(T, layer::Sanitize);
      Clean.clear();
      San.finish(Clean);
    }
    FilterAndDeliver();
  }
  {
    Tracer::Scope S(T, layer::Backend);
    Set.Gov->endAnalysis();
  }
  C.Delivered += D.EventsSeen;
  Set.addGraphCounts(C);
  Tracer::Scope S(T, layer::Render);
  Report = Set.render("velodrome-check", J.Trace, D.EventsSeen, SanOrdinal,
                      D.ThreadsSeen, formatOf(J), Syms, Exit);
  C.ReportBytes += Report.size();
  return true;
}

/// --parallel: the same components under ParallelPipeline, as
/// velodrome-check's parallel branch builds it.
bool runPipeline(const CheckJob &J, const ReductionPlan *Plan, Tracer &T,
                 LayerCounts &C, std::string &Report, int &Exit,
                 std::string &Err) {
  Tracer::Scope Whole(T, layer::Parallel);
  double Start = now();
  SymbolTable Syms;
  auto Src = openSource(J.Trace, Syms, Err);
  if (!Src)
    return false;
  GovernedSet Set(J.Backend == "velodrome", J.UnlimitedWarnings);
  Set.Gov->beginAnalysis(Syms);
  TraceSanitizer San(SanitizeMode::Strict);
  std::unique_ptr<ReductionFilter> Filter;
  if (Plan)
    Filter = std::make_unique<ReductionFilter>(*Plan);
  ParallelOptions POpts;
  GovernedAnalysis *Gov = Set.Gov.get();
  POpts.StopProbe = [Gov] {
    return Gov->state() == GovernorState::Exhausted;
  };
  POpts.StopOwner = Gov;
  ParallelPipeline Pipe(*Src, Syms, San, Filter.get(), {Gov},
                        std::move(POpts));
  PipelineResult PR = Pipe.run();
  if (PR.Err != PipelineError::None) {
    Err = "parallel pipeline: " + PR.Detail;
    return false;
  }
  C.PipelineWall += now() - Start;
  C.PipelineEvents += PR.SanitizedEvents;
  C.PipelineBatches += PR.Batches;
  C.ReaderRingHigh = std::max<uint64_t>(C.ReaderRingHigh, PR.ReaderRingHigh);
  C.WorkerRingHigh = std::max<uint64_t>(C.WorkerRingHigh, PR.WorkerRingHigh);
  Tracer::Scope S(T, layer::Render);
  Report = Set.render("velodrome-check", J.Trace, PR.EventsSeen,
                      PR.SanitizedEvents, PR.ThreadsSeen, formatOf(J), Syms,
                      Exit);
  return true;
}

} // namespace

bool runCheckInProcess(const CheckJob &J, Tracer &T, LayerCounts &C,
                       std::string &Report, int &Exit, std::string &Err) {
  ReductionPlan Plan;
  if (J.Reduce && !classifySweep(J, T, C, Plan, Err))
    return false;
  const ReductionPlan *P = J.Reduce ? &Plan : nullptr;
  if (!runSequential(J, P, T, C, Report, Exit, Err))
    return false;
  if (!J.Parallel)
    return true;
  std::string ParReport;
  int ParExit = 0;
  if (!runPipeline(J, P, T, C, ParReport, ParExit, Err))
    return false;
  if (ParReport != Report || ParExit != Exit) {
    Err = "parallel pipeline report differs from the sequential loop";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Serve session
//===----------------------------------------------------------------------===//

bool runServeInProcess(const std::string &Name, const Trace &Stream,
                       size_t FrameEvents, Tracer &T, LayerCounts &C,
                       std::string &Report, int &Exit, std::string &Err) {
  std::vector<std::string> Frames;
  {
    Tracer::Scope S(T, layer::Encode);
    Frames = encodeFrames(Stream, FrameEvents);
  }
  for (const std::string &F : Frames)
    C.WireBytes += F.size();
  C.WireEvents += Stream.size();

  // What the daemon does per session: configure on HELLO, decode and feed
  // each EVENTS frame, evict when idle and rehydrate on the next frame,
  // finish on FINISH.
  serve::Session Sess;
  {
    Tracer::Scope S(T, layer::Configure);
    serve::SessionConfig Config;
    Config.Name = Name;
    Config.BackendSel = "velodrome";
    if (!Sess.configure(Config, Err))
      return false;
  }
  std::vector<Event> Events;
  for (size_t K = 0; K < Frames.size(); ++K) {
    if (K == Frames.size() / 2) {
      // The workload's mid-session pause.
      std::string Blob;
      {
        Tracer::Scope S(T, layer::Evict);
        if (!Sess.evict(Blob, Err))
          return false;
      }
      C.SnapshotBytes += Blob.size();
      Tracer::Scope S(T, layer::Rehydrate);
      if (!Sess.rehydrate(Blob, Err))
        return false;
    }
    {
      Tracer::Scope S(T, layer::Decode);
      Events.clear();
      const std::string &F = Frames[K];
      if (!serve::decodeEventsPayload(
              reinterpret_cast<const uint8_t *>(F.data()), F.size(),
              Sess.symbols(), Events, Err))
        return false;
      C.Decoded += Events.size();
    }
    Tracer::Scope S(T, layer::Feed);
    for (const Event &E : Events)
      if (!Sess.feed(E, Err))
        return false;
  }
  {
    Tracer::Scope S(T, layer::Finish);
    if (!Sess.finish(Err))
      return false;
  }
  C.Delivered += Sess.eventsSeen();
  Report = Sess.report();
  Exit = Sess.exitCode();
  C.ReportBytes += Report.size();
  return true;
}

//===----------------------------------------------------------------------===//
// Reference verdicts
//===----------------------------------------------------------------------===//

bool independentViolation(const Trace &T, const std::string &JobBackend,
                          bool &Violation, std::string &Err) {
  std::vector<std::string> Errors;
  if (!T.validate(&Errors)) {
    Err = "trace is not well formed: " + Errors[0];
    return false;
  }
  Velodrome Velo;
  AeroDrome Aero;
  Backend &Judge = JobBackend == "aero" ? static_cast<Backend &>(Velo)
                                        : static_cast<Backend &>(Aero);
  // A well-formed trace passes the strict sanitizer unchanged.
  replay(T, Judge);
  Violation = Judge.sawViolation();
  return true;
}

} // namespace velobench
