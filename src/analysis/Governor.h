//===- analysis/Governor.h - Resource governor & degradation ----*- C++ -*-===//
//
// Production monitors budget their resources and shed precision under
// pressure instead of aborting (cf. bounded-overhead atomicity monitoring in
// PAPERS.md). The governor wraps the expensive full-fidelity checker (the
// Velodrome happens-before graph) and an optional cheap fallback (the
// AeroDrome vector-clock checker, O(#threads) per event) run in lockstep as
// a hot spare:
//
//   Normal ──(live-node / memory cap)──▶ Degraded ──(event cap /
//        └──(event cap / deadline)──────────────────▶ Exhausted   deadline)
//
//  * Degraded: the graph checker stops receiving events (its memory stops
//    growing at the cap); the fallback keeps the sound-and-complete verdict
//    but blame assignment and dot error graphs are lost.
//  * Exhausted: analysis stops; the verdict is Unknown unless a violation
//    was already found (a cycle on a prefix is a cycle of the full trace,
//    so Violation verdicts survive truncation).
//
// The tools map Unknown to exit code 3 ("resource-limited: verdict
// unknown") — never an abort.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ANALYSIS_GOVERNOR_H
#define VELO_ANALYSIS_GOVERNOR_H

#include "analysis/Backend.h"
#include "support/Flags.h"

#include <chrono>
#include <functional>

namespace velo {

/// Resource caps. 0 means unlimited.
struct GovernorLimits {
  uint64_t MaxEvents = 0;      ///< events delivered to the analysis
  uint64_t MaxLiveNodes = 0;   ///< live happens-before graph nodes
  uint64_t MaxMemoryBytes = 0; ///< estimated analysis memory
  uint64_t DeadlineMillis = 0; ///< wall-clock budget for the whole trace
  /// Events between wall-clock probes (caps on counters are checked every
  /// event; reading the clock is the only probe worth batching).
  uint32_t CheckIntervalEvents = 256;

  bool any() const {
    return MaxEvents || MaxLiveNodes || MaxMemoryBytes || DeadlineMillis;
  }

  /// What every tool starts from: graph slots are a 16-bit space
  /// (Step::MaxSlots), so runaway traces degrade at 60000 live nodes
  /// instead of exhausting it.
  static GovernorLimits defaults() {
    GovernorLimits L;
    L.MaxLiveNodes = 60000;
    return L;
  }
};

/// The rows for the cap flags check, run and serve take: --max-events=N,
/// --max-live-nodes=N, --max-memory-mb=N (refused when its bytes overflow)
/// and --deadline-ms=N.
std::vector<Flag> governorFlags(GovernorLimits &L);

enum class GovernorState {
  Normal,    ///< primary (and fallback) running
  Degraded,  ///< primary dropped; fallback carries the verdict
  Exhausted, ///< analysis stopped; verdict may be Unknown
};

enum class GovernorVerdict {
  Serializable, ///< full trace analyzed, no violation
  Violation,    ///< a definite violation was found (survives truncation)
  Unknown,      ///< budget exhausted before a verdict was reached
};

/// Backend adapter enforcing GovernorLimits over a primary checker with an
/// optional lockstep fallback. The probe reports the primary's live-node
/// count and estimated bytes (leave either at 0 when unknown); it is kept
/// abstract so this layer does not depend on the graph implementation.
class GovernedAnalysis : public Backend {
public:
  using Probe = std::function<void(uint64_t &LiveNodes, uint64_t &Bytes)>;
  /// Polled after each event delivered to the primary: a non-empty string
  /// reports an internal failure of the primary (e.g. the happens-before
  /// graph ran out of node slots) and triggers degradation with that
  /// string as the reason — the recoverable path for conditions that used
  /// to abort the process.
  using FailProbe = std::function<std::string()>;

  GovernedAnalysis(Backend &Primary, Backend *Fallback, GovernorLimits Limits,
                   Probe ResourceProbe = nullptr,
                   FailProbe PrimaryFailed = nullptr)
      : Primary(Primary), Fallback(Fallback), Limits(Limits),
        ResourceProbe(std::move(ResourceProbe)),
        PrimaryFailed(std::move(PrimaryFailed)) {}

  const char *name() const override { return "Governed"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;
  void endAnalysis() override;

  void rebindSymbols(const SymbolTable &Syms) override {
    Backend::rebindSymbols(Syms);
    Primary.rebindSymbols(Syms);
    if (Fallback)
      Fallback->rebindSymbols(Syms);
  }

  bool sawViolation() const override {
    return verdict() == GovernorVerdict::Violation;
  }

  GovernorState state() const { return State; }
  GovernorVerdict verdict() const;

  /// Human-readable cause of the last transition out of Normal, e.g.
  /// "live graph nodes 65 exceed cap 64"; empty while Normal.
  const std::string &breachReason() const { return Reason; }

  /// Events actually delivered to the analysis (drops after exhaustion).
  uint64_t eventsDelivered() const { return Delivered; }

  /// Snapshot support: the wrapper serializes its own budget state plus
  /// one nested blob per wrapped checker, so a resumed governed run
  /// continues from the same state (the deadline budget is cumulative
  /// across the crash — elapsed time is carried in the snapshot).
  bool supportsSnapshot() const override {
    return Primary.supportsSnapshot() &&
           (!Fallback || Fallback->supportsSnapshot());
  }
  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

private:
  /// Drop to the fallback if one is available and still running, else stop.
  void degradeOrExhaust(std::string Why);
  void exhaust(std::string Why);

  Backend &Primary;
  Backend *Fallback;
  GovernorLimits Limits;
  Probe ResourceProbe;
  FailProbe PrimaryFailed;

  GovernorState State = GovernorState::Normal;
  std::string Reason;
  uint64_t Delivered = 0;
  std::chrono::steady_clock::time_point Start;
};

} // namespace velo

#endif // VELO_ANALYSIS_GOVERNOR_H
