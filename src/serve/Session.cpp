//===- serve/Session.cpp - One tenant's analysis pipeline -----------------===//

#include "serve/Session.h"

#include "analysis/Plan.h"

namespace velo {
namespace serve {

Session::Session() = default;
Session::~Session() = default;

bool Session::buildPlan(std::string &Err) {
  PlanConfig C;
  C.BackendSel = Config.BackendSel;
  C.Mode = Config.Lenient ? SanitizeMode::Lenient : SanitizeMode::Strict;
  C.Limits = Config.Limits;
  Syms = SymbolTable();
  Plan = AnalysisPlan::create(C, Err);
  if (!Plan)
    return false;
  Plan->NotesOut = &Notes;
  return true;
}

bool Session::configure(const SessionConfig &C, std::string &Err) {
  Config = C;
  if (!buildPlan(Err))
    return false;
  Plan->begin(Syms);
  return true;
}

bool Session::feed(const Event &E, std::string &Err) {
  if (!Plan || Finished) {
    Err = "session is not accepting events";
    return false;
  }
  if (Plan->stopped())
    return true; // governor exhausted: the CLI loop stops reading here
  if (!Plan->feed(E)) {
    Err = "trace is not well formed: " + Plan->sanitizer().error();
    return false;
  }
  return true;
}

bool Session::finish(std::string &Err) {
  if (!Plan || Finished) {
    Err = "session is not accepting events";
    return false;
  }
  Plan->finish();
  Finished = true;
  // Same manager as the CLI (src/report): the text rendering is
  // byte-identical to velodrome-check's stdout, and Json/Sarif reuse the
  // identical findings, so the wire report cannot drift from the CLI's.
  ReportManager RM;
  RM.Run.Tool = "velodrome-serve";
  RM.Run.Trace = Config.Name;
  Plan->report(RM, Syms);
  Exit = RM.Run.ExitCode;
  Report = RM.render(Config.Format);
  return true;
}

uint64_t Session::eventsSeen() const {
  return Plan ? Plan->eventsSeen() : EvictedEvents;
}

SymbolTable &Session::symbols() { return Syms; }

// Layout: str name | u32 report format | str notes | plan body (the
// selector, lenient mode and caps ride in the plan config).
bool Session::snapshot(std::string &Blob, std::string &Err) {
  if (!Plan || Finished) {
    Err = "session cannot be snapshotted";
    return false;
  }
  SnapshotWriter W;
  W.str(Config.Name);
  W.u32(static_cast<uint32_t>(Config.Format));
  W.str(Notes);
  Plan->write(W, Plan->cut());
  Blob = W.payload();
  return true;
}

bool Session::evict(std::string &Blob, std::string &Err) {
  if (!snapshot(Blob, Err))
    return false;
  EvictedEvents = Plan->eventsSeen();
  Plan.reset();
  Syms = SymbolTable();
  return true;
}

bool Session::rehydrate(const std::string &Blob, std::string &Err) {
  SnapshotReader R(Blob);
  SessionConfig C;
  C.Name = R.str();
  uint32_t Fmt = R.u32();
  std::string SavedNotes = R.str();
  PlanHead H;
  if (!AnalysisPlan::readHead(R, H) || Fmt > 2) {
    Err = "corrupt session snapshot";
    return false;
  }
  C.Format = static_cast<ReportFormat>(Fmt);
  C.BackendSel = H.Config.BackendSel;
  C.Lenient = H.Config.Mode == SanitizeMode::Lenient;
  C.Limits = H.Config.Limits;

  Config = C;
  Notes = SavedNotes;
  Finished = false;
  if (!buildPlan(Err))
    return false;
  if (!Plan->restore(H, R, Syms, Err)) {
    Err = "corrupt session snapshot (" + Err + ")";
    Plan.reset();
    return false;
  }
  return true;
}

} // namespace serve
} // namespace velo
