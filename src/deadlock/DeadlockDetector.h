//===- deadlock/DeadlockDetector.h - Lock-order deadlock check --*- C++ -*-===//
//
// GoodLock-style potential-deadlock detector: record a lock-order edge
// A -> B every time a thread acquires B while holding A, then look for
// cycles in the order graph at end of trace. A cycle is reported only if
// its edges can be witnessed by pairwise-distinct threads whose held-lock
// ("gate") sets at the acquisition points are pairwise disjoint — the
// classic gate-lock suppression that keeps cycles serialized by a common
// outer lock out of the report.
//
// The detector is a pure observer: it never affects the serializability
// verdict (sawViolation() stays false) and reports findings under rule
// VELO-DLK-001 with one relatedLocation per cycle edge.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_DEADLOCK_DEADLOCKDETECTOR_H
#define VELO_DEADLOCK_DEADLOCKDETECTOR_H

#include "analysis/Backend.h"

#include <map>
#include <utility>
#include <vector>

namespace velo {

struct DeadlockOptions {
  /// Maximum warnings to keep; 0 means unlimited.
  size_t MaxWarnings = 16;
};

/// Lock-order-graph deadlock detector (--backend=deadlock).
class DeadlockDetector : public Backend {
public:
  explicit DeadlockDetector(const DeadlockOptions &O = DeadlockOptions())
      : Opts(O) {}

  const char *name() const override { return "Deadlock"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;
  void endAnalysis() override;

  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

  /// Number of distinct order-graph edges observed so far.
  size_t edgeCount() const { return Edges.size(); }

private:
  /// One witnessed acquisition for an order-graph edge: who acquired the
  /// destination lock, where in the sanitized stream, and the full set of
  /// locks held at that moment (sorted; includes the source lock).
  struct EdgeInst {
    Tid Thread = 0;
    uint64_t Ordinal = 0;
    std::vector<LockId> Gates;
  };

  static constexpr size_t MaxInstPerEdge = 4;
  static constexpr size_t MaxCycleLen = 8;
  static constexpr size_t MaxSearchSteps = 100000;

  std::vector<LockId> &held(Tid T);
  void addEdge(LockId Src, LockId Dst, const EdgeInst &Inst);
  void searchCycles();
  void dfsCycles(LockId Start, LockId Cur,
                 const std::map<LockId, std::vector<LockId>> &Adj,
                 std::vector<LockId> &Path, size_t &Steps);
  bool chooseInstances(const std::vector<LockId> &Cycle, size_t EdgeIdx,
                       std::vector<const EdgeInst *> &Chosen);
  void reportCycle(const std::vector<LockId> &Cycle,
                   const std::vector<const EdgeInst *> &Chosen);
  std::string lockName(LockId M) const;

  DeadlockOptions Opts;
  std::vector<std::vector<LockId>> Held; ///< Per-thread held-lock stack.
  std::map<std::pair<LockId, LockId>, std::vector<EdgeInst>> Edges;
};

} // namespace velo

#endif // VELO_DEADLOCK_DEADLOCKDETECTOR_H
