//===- serve/Session.h - One tenant's analysis pipeline ---------*- C++ -*-===//
//
// A Session is the daemon-side equivalent of one `velodrome-check`
// invocation. Both are front-ends over the same analysis plan
// (analysis/Plan.h): back-end set, governor, delivery, verdict and report
// sections come from one place, so the rendered report is byte-identical
// to the CLI's stdout on the same event stream. That identity is the
// service contract the fault-injection matrix checks.
//
// Sessions are also the unit of fault isolation and eviction: evict()
// serializes the full pipeline (symbols, sanitizer, every back-end,
// governor budget — cumulative deadline included) into a snapshot blob and
// drops the in-memory state; rehydrate() rebuilds it. A rehydrated session
// must produce a byte-identical report to one that was never evicted.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SERVE_SESSION_H
#define VELO_SERVE_SESSION_H

#include "analysis/Governor.h"
#include "events/Trace.h"
#include "report/Report.h"

#include <memory>
#include <string>
#include <vector>

namespace velo {

class AnalysisPlan;

namespace serve {

struct SessionConfig {
  std::string Name;               ///< display name (the CLI's trace path)
  std::string BackendSel = "all"; ///< the plan's selector vocabulary
  bool Lenient = false;
  /// VERDICT report rendering; Text reproduces velodrome-check's stdout
  /// byte for byte, Json/Sarif swap in the machine documents.
  ReportFormat Format = ReportFormat::Text;
  /// Per-session governor caps. Default-constructed SessionConfig carries
  /// the CLI default, so a plain session is governed exactly like a plain
  /// `velodrome-check` run.
  GovernorLimits Limits = GovernorLimits::defaults();
};

class Session {
public:
  Session();
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Build the pipeline. Fails (with a client-facing message) on an
  /// unknown backend selection.
  bool configure(const SessionConfig &Config, std::string &Err);

  /// Deliver one already-decoded event through sanitizer and back-ends.
  /// Returns false on a strict-mode sanitizer rejection (the session is
  /// dead; Err is the diagnostic). The plan drops events after governor
  /// exhaustion, where the CLI's loop stops reading.
  bool feed(const Event &E, std::string &Err);

  /// End of stream: flush the sanitizer, run endAnalysis, render the
  /// report. feed() must not be called afterwards.
  bool finish(std::string &Err);

  /// Rendered report, byte-identical to `velodrome-check <name>` stdout.
  /// Valid after finish().
  const std::string &report() const { return Report; }
  /// velodrome-check exit-code contract: 0 serializable, 1 violation,
  /// 3 resource-limited. Valid after finish().
  int exitCode() const { return Exit; }
  /// stderr-equivalent diagnostics (lenient repairs, governor breaches),
  /// accumulated across the session.
  const std::string &notes() const { return Notes; }

  uint64_t eventsSeen() const;
  bool finished() const { return Finished; }

  /// The session's symbol table (wire decode interns names here). Only
  /// valid while the session is live (configured and not evicted).
  SymbolTable &symbols();

  /// Serialize the whole pipeline (config, counters, symbols, sanitizer,
  /// every back-end, governor budget) into Blob without disturbing
  /// it. Fails when the session is evicted or finished.
  bool snapshot(std::string &Blob, std::string &Err);

  /// snapshot() then drop the in-memory pipeline; the session keeps only
  /// its config and counters until rehydrate().
  bool evict(std::string &Blob, std::string &Err);

  /// Rebuild the pipeline from an evict() blob (or one read back from the
  /// state directory). The config travels inside the blob.
  bool rehydrate(const std::string &Blob, std::string &Err);

  bool evicted() const { return !Plan; }
  const SessionConfig &config() const { return Config; }

private:
  bool buildPlan(std::string &Err);

  SessionConfig Config;
  SymbolTable Syms;                   ///< emptied on eviction
  std::unique_ptr<AnalysisPlan> Plan; ///< null while evicted
  uint64_t EvictedEvents = 0;         ///< eventsSeen() while evicted
  std::string Report, Notes;
  int Exit = 0;
  bool Finished = false;
};

} // namespace serve
} // namespace velo

#endif // VELO_SERVE_SESSION_H
