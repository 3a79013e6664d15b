//===- atomizer/Atomizer.h - Reduction-based atomicity checker --*- C++ -*-===//
//
// The Atomizer (Flanagan & Freund, POPL 2004): the paper's principal
// baseline. It checks each transaction against Lipton's reduction pattern
//
//     (right-mover | both-mover)*  [non-mover]  (left-mover | both-mover)*
//
// with lock acquires as right-movers, releases as left-movers, consistently
// lock-protected accesses (per an embedded Eraser lockset) as both-movers,
// and potentially racy accesses as non-movers. A transaction that sees a
// right-mover or second non-mover after its commit point is flagged.
//
// Because the lockset analysis cannot understand volatile handoffs,
// fork/join transfer, or any non-lock synchronization, the Atomizer warns
// on such (serializable) patterns — the false alarms that Velodrome's
// completeness eliminates (Table 2). It is also *unsound in the other
// direction* on schedules where the racy interleaving did not occur, which
// is exactly why it generalizes better from a single observed trace.
//
// lastEventSuspicious() exposes the commit-point transition: the adversarial
// scheduler (Section 5) stalls a thread at this point so that a conflicting
// operation of another thread is more likely to interleave, turning the
// potential violation into a concrete one that Velodrome then certifies.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ATOMIZER_ATOMIZER_H
#define VELO_ATOMIZER_ATOMIZER_H

#include "analysis/Backend.h"
#include "eraser/LockSetEngine.h"
#include "support/ThreadTable.h"

#include <set>

namespace velo {

/// Reduction-based dynamic atomicity checker.
class Atomizer : public Backend {
public:
  const char *name() const override { return "Atomizer"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;

  bool lastEventSuspicious() const override { return Suspicious; }

  /// Distinct methods (outermost atomic-block labels) flagged so far.
  const std::set<Label> &flaggedMethods() const { return Flagged; }

  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

private:
  enum class Phase { PreCommit, PostCommit };

  struct ThreadState {
    int Depth = 0;
    Phase Ph = Phase::PreCommit;
    Label Outer = NoLabel;
    bool ViolatedThisTxn = false;
  };

  void violate(ThreadState &TS, const Event &E, const char *Why);

  LockSetEngine Engine;
  ThreadTable<ThreadState> Threads;
  std::set<Label> Flagged;
  bool Suspicious = false;
};

} // namespace velo

#endif // VELO_ATOMIZER_ATOMIZER_H
