//===- eraser/LockSetEngine.h - Eraser lockset state machine ----*- C++ -*-===//
//
// The Eraser algorithm (Savage et al. 1997), as used in the paper twice:
// as the standalone race-detection baseline of Table 1, and embedded inside
// the Atomizer to classify memory accesses as both-movers (consistently
// lock-protected) or non-movers (potentially racy).
//
// Per-variable state machine:
//
//   Virgin --first access--> Exclusive(t)
//   Exclusive --read by u!=t--> Shared          (candidate set initialized)
//   Exclusive --write by u!=t--> SharedModified (candidate set initialized)
//   Shared --write--> SharedModified
//
// In Shared and SharedModified the candidate lockset is intersected with
// the accessor's held locks; an empty candidate set in SharedModified is a
// (potential) race. Deliberately no fork/join or volatile awareness — that
// imprecision is the source of the Atomizer false alarms that Velodrome
// eliminates (Table 2).
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ERASER_LOCKSETENGINE_H
#define VELO_ERASER_LOCKSETENGINE_H

#include "analysis/Snapshot.h"
#include "events/Event.h"
#include "support/ThreadTable.h"

#include <set>
#include <vector>

namespace velo {

/// Shared Eraser state machine used by the Eraser back-end and the Atomizer.
class LockSetEngine {
public:
  void clear() {
    Held.clear();
    Vars.clear();
  }

  void onAcquire(Tid T, LockId M) { heldOf(T).insert(M); }
  void onRelease(Tid T, LockId M) { heldOf(T).erase(M); }

  /// Record an access and report whether it is *unprotected* (the candidate
  /// lockset is empty while the variable is shared between threads). The
  /// Atomizer treats unprotected accesses as non-movers; the Eraser back-end
  /// reports a race when this returns true in the SharedModified state.
  bool accessIsUnprotected(Tid T, VarId X, bool IsWrite);

  /// Has variable X entered the SharedModified state with an empty
  /// candidate lockset at some point (a reportable Eraser race)?
  bool isRacyVar(VarId X) const {
    return X < Vars.size() && Vars[X].RacySharedModified;
  }

  /// Has variable X been observed by more than one thread (left the
  /// Virgin/Exclusive states)?
  bool isSharedVar(VarId X) const {
    return X < Vars.size() && (Vars[X].State == VarState::Shared ||
                               Vars[X].State == VarState::SharedModified);
  }

  const std::set<LockId> &heldLocks(Tid T) { return heldOf(T); }

  /// Surviving candidate guard locks for X — the locks held on *every*
  /// access since X became shared (empty for Virgin/Exclusive variables,
  /// whose candidate set was never initialized).
  std::set<LockId> candidateLocks(VarId X) const {
    if (X >= Vars.size() || (Vars[X].State != VarState::Shared &&
                             Vars[X].State != VarState::SharedModified))
      return {};
    return Vars[X].Candidate;
  }

  /// Human-readable name of X's state ("virgin" when never accessed).
  const char *stateName(VarId X) const {
    if (X >= Vars.size())
      return "virgin";
    switch (Vars[X].State) {
    case VarState::Virgin:
      return "virgin";
    case VarState::Exclusive:
      return "exclusive";
    case VarState::Shared:
      return "shared";
    case VarState::SharedModified:
      return "shared-modified";
    }
    return "virgin";
  }

  /// Checkpoint the full lockset state (held locks, per-variable state
  /// machine) / restore into a cleared engine.
  void serialize(SnapshotWriter &W) const;
  bool deserialize(SnapshotReader &R);

private:
  enum class VarState { Virgin, Exclusive, Shared, SharedModified };

  struct VarInfo {
    VarState State = VarState::Virgin;
    Tid Owner = 0;
    std::set<LockId> Candidate;
    bool RacySharedModified = false;
  };

  std::set<LockId> &heldOf(Tid T) { return Held[T]; }

  // Variable ids are dense interner ids, so the hot per-access path
  // indexes a flat vector instead of hashing (Virgin entries stand in for
  // absent ones and are skipped when serializing). Thread ids need not be
  // dense: held sets sit in first-use slots.
  ThreadTable<std::set<LockId>> Held;
  std::vector<VarInfo> Vars;
};

} // namespace velo

#endif // VELO_ERASER_LOCKSETENGINE_H
