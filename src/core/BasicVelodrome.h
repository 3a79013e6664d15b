//===- core/BasicVelodrome.h - Figure 2 reference analysis ------*- C++ -*-===//
//
// The initial, unoptimized analysis of Section 3 (Figure 2): one graph node
// per transaction, including a node for every non-transactional operation
// (the naive [INS OUTSIDE] rule), no garbage collection, no merging, no
// blame assignment — cycle detection by plain DFS at edge insertion.
//
// It is deliberately the most literal possible transcription of the paper's
// rules. The optimized Velodrome class must agree with it on every trace
// (same violation verdict); the property-test suite checks this, which gives
// a differential check on the GC/merge/step machinery.
//
// Memory grows with the trace, so use it on test-sized traces only.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_CORE_BASICVELODROME_H
#define VELO_CORE_BASICVELODROME_H

#include "analysis/Backend.h"

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

namespace velo {

/// Reference implementation of the Figure 2 instrumentation relation.
class BasicVelodrome : public Backend {
public:
  const char *name() const override { return "Velodrome(basic)"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;

  /// Did any edge insertion close a (non-trivial) cycle?
  bool sawViolation() const override { return ViolationCount > 0; }
  uint64_t violationCount() const { return ViolationCount; }

  /// Labels of transactions observed on some cycle (the current transaction
  /// at each detection point; Figure 2 performs no finer blame assignment).
  const std::set<Label> &flaggedMethods() const { return Flagged; }

  /// Total nodes allocated (one per transaction, unary included).
  uint64_t nodesAllocated() const { return Nodes.size(); }

  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

private:
  static constexpr uint32_t None = 0xffffffffu;

  struct Node {
    Tid Owner = 0;
    Label Root = NoLabel;
    std::vector<uint32_t> Out;
  };

  uint32_t newNode(Tid Owner, Label Root);
  /// Add edge From -> To (None sources ignored); returns false if the edge
  /// would create a cycle (edge is then not added and the violation is
  /// recorded against To's transaction).
  void addEdge(uint32_t From, uint32_t To);
  bool reaches(uint32_t From, uint32_t To) const;

  /// Current-transaction node for ops of T: C(t) when inside a transaction,
  /// otherwise a fresh unary node per [INS OUTSIDE] (Sources seeded by
  /// the caller; program-order edge from L(t) added here).
  uint32_t opNode(Tid T);
  void finishOp(Tid T, uint32_t Node);

  std::vector<Node> Nodes;
  std::unordered_map<Tid, uint32_t> Current;    ///< C
  std::unordered_map<Tid, int> Depth;           ///< nesting depth of C(t)
  std::unordered_map<Tid, uint32_t> LastTxn;    ///< L
  std::unordered_map<LockId, uint32_t> Unlock;  ///< U
  std::unordered_map<VarId, uint32_t> LastWr;   ///< W
  /// R. The inner map is ordered: onWrite draws its read->write edges by
  /// iterating it, and the order determines which edge closes a cycle
  /// first — it must not vary with hash-table layout, or a resumed run
  /// could count violations differently from a straight-through one.
  std::unordered_map<VarId, std::map<Tid, uint32_t>> LastRd;

  uint64_t ViolationCount = 0;
  std::set<Label> Flagged;
};

} // namespace velo

#endif // VELO_CORE_BASICVELODROME_H
