//===- eraser/Eraser.h - Eraser race-detection back-end ---------*- C++ -*-===//
//
// Back-end wrapper over LockSetEngine: the "Eraser" row of Table 1. Reports
// one race warning per variable that reaches SharedModified with an empty
// candidate lockset.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ERASER_ERASER_H
#define VELO_ERASER_ERASER_H

#include "analysis/Backend.h"
#include "eraser/LockSetEngine.h"

#include <set>

namespace velo {

/// Lockset-based dynamic race detector (Savage et al.), RoadRunner-style.
class Eraser : public Backend {
public:
  const char *name() const override { return "Eraser"; }

  void beginAnalysis(const SymbolTable &Syms) override {
    Backend::beginAnalysis(Syms);
    Engine.clear();
    ReportedVars.clear();
  }

  void onEvent(const Event &E) override {
    countEvent();
    switch (E.Kind) {
    case Op::Acquire:
      Engine.onAcquire(E.Thread, E.lock());
      return;
    case Op::Release:
      Engine.onRelease(E.Thread, E.lock());
      return;
    case Op::Read:
    case Op::Write: {
      Engine.accessIsUnprotected(E.Thread, E.var(), E.Kind == Op::Write);
      if (Engine.isRacyVar(E.var()) && ReportedVars.insert(E.var()).second) {
        Warning W;
        W.Analysis = "eraser";
        W.Category = "race";
        W.Method = NoLabel;
        W.RuleId = "VELO-RACE-002";
        W.Thread = E.Thread;
        W.Ordinal = eventOrdinal();
        W.Message =
            "possible race: variable " +
            (Symbols ? Symbols->varName(E.var()) : std::to_string(E.var())) +
            " is write-shared with an empty candidate lockset (T" +
            std::to_string(E.Thread) + ")";
        report(std::move(W));
      }
      return;
    }
    case Op::Begin:
    case Op::End:
    case Op::Fork: // classic Eraser has no fork/join awareness
    case Op::Join:
      return;
    }
  }

  const LockSetEngine &engine() const { return Engine; }

  void serialize(SnapshotWriter &W) const override {
    serializeBase(W);
    Engine.serialize(W);
    W.u64(ReportedVars.size());
    for (VarId X : ReportedVars)
      W.u32(X);
  }

  bool deserialize(SnapshotReader &R) override {
    if (!deserializeBase(R) || !Engine.deserialize(R))
      return false;
    uint64_t N = R.u64();
    for (uint64_t I = 0; I < N && !R.failed(); ++I)
      ReportedVars.insert(R.u32());
    return !R.failed();
  }

private:
  LockSetEngine Engine;
  std::set<VarId> ReportedVars;
};

} // namespace velo

#endif // VELO_ERASER_ERASER_H
