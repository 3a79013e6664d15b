//===- hbrace/HbRaceDetector.h - Vector-clock race detector -----*- C++ -*-===//
//
// A complete (precise) happens-before race detector in the DJIT+ style:
// full vector clocks per thread, lock, and variable (separate read and
// write clocks). Unlike Eraser, it understands fork/join and any
// release/acquire pattern, so it reports a race iff the observed trace
// contains two concurrent conflicting accesses.
//
// Threads take first-use slots (support/ThreadTable.h) and a clock has one
// component per slot, so a trace run by T1048575 costs what the same trace
// run by T1 costs. Lock and variable clocks are vectors indexed by
// interner id.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_HBRACE_HBRACEDETECTOR_H
#define VELO_HBRACE_HBRACEDETECTOR_H

#include "analysis/Backend.h"
#include "hbrace/VectorClock.h"
#include "support/ThreadTable.h"

#include <set>
#include <vector>

namespace velo {

/// Precise happens-before race detector.
class HbRaceDetector : public Backend {
public:
  const char *name() const override { return "HB"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;

  /// Variables with at least one detected race.
  const std::set<VarId> &racyVars() const { return RacyVars; }

  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

private:
  struct VarClocks {
    VectorClock Reads;
    VectorClock Writes;
  };

  /// The slot of T; a new thread starts in its own epoch.
  uint32_t slotOf(Tid T);
  /// Report a race if Prior does not happen before Now. The witness is
  /// the smallest tid whose component in Prior exceeds Now's.
  bool checkPrior(const Event &E, const VectorClock &Prior,
                  const VectorClock &Now, const char *PriorKind);
  void reportRace(const Event &E, Tid Witness, const char *PriorKind);

  ThreadTable<VectorClock> Threads; ///< each thread's clock, by slot
  std::vector<VectorClock> LockClocks; ///< by lock id
  std::vector<VarClocks> Vars;         ///< by variable id
  std::set<VarId> RacyVars;
};

} // namespace velo

#endif // VELO_HBRACE_HBRACEDETECTOR_H
