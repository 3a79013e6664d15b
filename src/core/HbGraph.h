//===- core/HbGraph.h - Transactional happens-before graph ------*- C++ -*-===//
//
// The dynamically maintained happens-before graph over transaction nodes
// (Sections 4 and 5 of the paper), with the three properties that make the
// analysis scale:
//
//  * Reference-counting garbage collection: a node's reference count is the
//    number of incoming H edges plus one while its transaction is still
//    open. Incoming edges can only be added by the node's own thread, so a
//    finished node with no incoming edges can never join a cycle and is
//    collected immediately; collection cascades along its outgoing edges.
//
//  * Ancestor sets: each live node knows the set of live nodes that reach
//    it, so a cycle-closing edge is detected at insertion time in O(set
//    lookup), the graph is kept acyclic (the offending edge is reported and
//    not added), and merge()'s happens-before queries are O(set lookup).
//
//  * Slot recycling with stale-step detection: L/U/R/W hold weak Step
//    references; a step whose timestamp is at or below its slot's collection
//    watermark dereferences to bottom.
//
// Edges store the timestamps of the operations at their tail and head plus a
// compact description of the inducing operation — the raw material for blame
// assignment and dot error graphs. At most one edge is kept per node pair
// (the paper's H (+) operation), bounding |H| by |Node|^2.
//
// The per-event operations allocate nothing once warm. merge() resolves its
// inputs into a member list, addEdge() reads Ancestors(A) in place and
// reuses its worklist, ancestor sets union in place (FlatSet), and collect()
// reuses its worklists and per-slot visit marks. Recycled slots keep their
// edge and ancestor buffers. Only cycle reports allocate. merge()'s list and
// addEdge()'s worklist are separate buffers: merge() walks its list while
// addEdge() runs for the fresh node.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_CORE_HBGRAPH_H
#define VELO_CORE_HBGRAPH_H

#include "analysis/Snapshot.h"
#include "core/Step.h"
#include "events/Event.h"
#include "support/FlatSet.h"
#include "support/Stats.h"

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace velo {

/// Compact description of the operation that induced a happens-before edge
/// (used to label edges in error graphs, e.g. "acq(#2)" or "wr y").
struct EdgeInfo {
  Op Kind = Op::Read;
  uint32_t Target = 0; ///< var / lock / label id, per Kind.
  Tid Thread = 0;      ///< thread performing the head operation.
};

/// One happens-before edge, stored on its source node.
struct HbEdge {
  NodeId Dst = 0;
  uint64_t TailStamp = 0; ///< timestamp of the source-transaction operation.
  uint64_t HeadStamp = 0; ///< timestamp of the target-transaction operation.
  EdgeInfo Info;
};

/// A transaction node on a cycle, reported back to the analysis.
struct CycleEntry {
  NodeId Node = 0;
  Tid Owner = 0;
  Label Root = NoLabel;  ///< outermost atomic block label, NoLabel if unary.
  HbEdge OutEdge;        ///< the cycle edge leaving this node.
};

/// A happens-before cycle: Entries[0] is the node the cycle-closing edge
/// points at (the currently executing transaction); the closing edge itself
/// is Entries.back().OutEdge.
struct CycleReport {
  std::vector<CycleEntry> Entries;

  /// Is the cycle "increasing" (Section 4.3): at every node other than the
  /// blamed one, the incoming-edge timestamp is <= the outgoing-edge
  /// timestamp? When true, Entries[0]'s transaction is provably not
  /// self-serializable.
  bool Increasing = false;
  /// Timestamp within the blamed node of the cycle's root operation (tail
  /// of the edge leaving Entries[0]).
  uint64_t RootStamp = 0;
  /// Timestamp within the blamed node of the target operation (head of the
  /// closing edge).
  uint64_t TargetStamp = 0;
};

/// The happens-before graph on transaction nodes.
class HbGraph {
public:
  /// Allocate a node for a new transaction by Owner whose outermost atomic
  /// block is labeled Root (NoLabel for a merge-created unary node). Active
  /// nodes carry the +1 "open transaction" reference; unary merge nodes are
  /// born finished. Returns the node's first step, or bottom when all
  /// 65535 slots are pinned live (GraphFull — see graphFull()); the graph
  /// is then degraded, never the process.
  Step allocNode(Tid Owner, Label Root, bool Active);

  /// Has a node allocation ever failed for lack of slots? Once full, the
  /// analysis wrapping this graph can no longer certify serializability
  /// (missing nodes mean missing edges) and should degrade or stop.
  bool graphFull() const { return Full; }

  /// Issue the next timestamp within the node of S (the paper's "L(t)+1").
  /// Bottom maps to bottom.
  Step tick(Step S);

  /// Is S non-bottom and not stale (its slot not collected at or after S's
  /// timestamp)? Stale steps must be treated as bottom by the analysis.
  bool isLive(Step S) const;

  /// Resolve a possibly-stale step to a live step or bottom.
  Step resolve(Step S) const { return isLive(S) ? S : Step::bottom(); }

  enum class AddEdgeResult {
    Added,   ///< edge inserted (or an existing edge's stamps refreshed)
    Skipped, ///< bottom/stale source or intra-node edge; nothing to do
    Cycle    ///< edge would close a cycle; reported, not inserted
  };

  /// Add the happens-before edge From -> To (Info describes the operation at
  /// the head). To must be live. On a would-be cycle, fills *CycleOut (if
  /// non-null) and leaves the graph unchanged.
  AddEdgeResult addEdge(Step From, Step To, const EdgeInfo &Info,
                        CycleReport *CycleOut);

  /// Mark the transaction of node Slot finished (drops the open-transaction
  /// reference; may collect the node and cascade).
  void finishNode(NodeId Slot);

  /// Does A happen before or equal B (A == B, or a path A => B exists among
  /// live nodes)? Both must be live slots.
  bool happensBeforeEq(NodeId A, NodeId B) const;

  /// Is the node of live step S an open transaction?
  bool isActive(NodeId Slot) const { return Slots[Slot].Active; }

  Tid ownerOf(NodeId Slot) const { return Slots[Slot].Owner; }
  Label rootOf(NodeId Slot) const { return Slots[Slot].Root; }

  /// The paper's merge function (Figure 4), with the representative
  /// restricted to finished nodes (see the soundness note in DESIGN.md):
  ///  - if every input resolves to bottom, returns bottom;
  ///  - else if some live input step S_j has a *finished* node that every
  ///    other live input happens-before-or-equals, returns S_j;
  ///  - else allocates a fresh (finished, unary) node with an edge from
  ///    every live input, and returns its first step.
  /// Info describes the unary operation, for edge labeling.
  Step merge(std::span<const Step> Inputs, Tid Owner, const EdgeInfo &Info);
  Step merge(std::initializer_list<Step> Inputs, Tid Owner,
             const EdgeInfo &Info) {
    return merge(std::span<const Step>(Inputs.begin(), Inputs.size()), Owner,
                 Info);
  }

  // --- Statistics (Table 1, right half) ---
  uint64_t nodesAllocated() const { return NumAllocated; }
  uint64_t nodesAlive() const { return Alive.current(); }
  uint64_t maxNodesAlive() const { return Alive.peak(); }
  uint64_t edgesAdded() const { return NumEdges; }
  uint64_t nodesMerged() const { return NumMerged; }

  /// Reset to the empty graph (drops all nodes and statistics).
  void clear();

  /// Checkpoint the complete graph (slots, edges, ancestor sets, free
  /// list, statistics) / restore it into an empty graph. Steps held by the
  /// owning analysis stay valid across the round-trip because slot indices
  /// and stamps are preserved exactly.
  void serialize(SnapshotWriter &W) const;
  bool deserialize(SnapshotReader &R);

private:
  struct Node {
    bool InUse = false;
    bool Active = false;
    uint32_t RefCount = 0;
    Tid Owner = 0;
    Label Root = NoLabel;
    /// Last timestamp issued in this slot; monotone across recycling.
    uint64_t CurStamp = 0;
    /// Steps with stamp <= this are stale (refer to a collected incarnation).
    uint64_t StaleAtOrBelow = 0;
    std::vector<HbEdge> Out;
    FlatSet<NodeId> Ancestors;
  };

  Step freshStamp(NodeId Slot);
  void collect(NodeId Slot); ///< free Slot and cascade.
  void buildCycleReport(NodeId From, NodeId To, const HbEdge &Closing,
                        CycleReport &Out) const;

  std::vector<Node> Slots;
  std::vector<NodeId> FreeList;

  // Scratch buffers, empty between calls and never serialized.
  std::vector<Step> MergeLive;       ///< merge(): resolved, deduped inputs
  std::vector<NodeId> EdgeWork;      ///< addEdge(): ancestor propagation
  std::vector<NodeId> CollectWork;   ///< collect(): nodes to free
  std::vector<NodeId> CollectDfs;    ///< collect(): descendants to repair
  std::vector<uint32_t> VisitMark;   ///< collect(): by slot, == VisitEpoch
  uint32_t VisitEpoch = 0;           ///<   when visited in this walk

  uint64_t NumAllocated = 0;
  uint64_t NumEdges = 0;
  uint64_t NumMerged = 0;
  HighWater Alive;
  bool Full = false;
};

} // namespace velo

#endif // VELO_CORE_HBGRAPH_H
