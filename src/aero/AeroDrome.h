//===- aero/AeroDrome.h - Linear-time vector-clock checker ------*- C++ -*-===//
//
// A second, independent conflict-serializability verdict: the AeroDrome
// algorithm ("Atomicity Checking in Linear Time using Vector Clocks",
// Mathur & Viswanathan) recast over this repo's event model. Where
// Velodrome maintains an explicit happens-before graph with online cycle
// detection and GC, AeroDrome keeps one vector clock per transaction and
// detects a violation when a transaction acquires a dependency clock that
// already contains the transaction itself (or a recorded successor of it) —
// i.e. when a transaction observes its own clock coming back through a
// conflicting access.
//
// Per-event cost is O(#threads) with no graph traversal, giving the
// linear-time throughput baseline for the evaluation stack. The verdict is
// equivalent to Velodrome's on every trace (tests/DifferentialTest.cpp
// enforces this against Velodrome and the offline oracle); blame assignment
// and dot error graphs remain Velodrome-only — this back-end attributes a
// violation to the transaction that closed the cycle, nothing finer.
//
// State layout (docs/ALGORITHM.md §4): threads take first-use slots, and a
// clock has one component per slot. Transaction clocks live in one pooled
// arena, Stride components per row, and are shared by 32-bit handle with a
// plain reference count. Per slot there is the thread's state and the
// successor frontier of its open outermost block (one more row).
// Lock and variable frontiers are vectors indexed by interner id. Once
// warm, the per-event path allocates nothing.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_AERO_AERODROME_H
#define VELO_AERO_AERODROME_H

#include "analysis/Backend.h"
#include "support/ThreadTable.h"

#include <set>
#include <vector>

namespace velo {

/// Configuration for the vector-clock back-end.
struct AeroDromeOptions {
  /// Stop recording warnings after this many distinct blamed methods
  /// (detection — sawViolation() — is unaffected, as with Velodrome).
  size_t MaxWarnings = 1000;
};

/// One detected violation: the transaction that observed its own clock.
struct AeroViolation {
  Tid Thread = 0;       ///< thread whose open transaction closed the cycle
  Label Method = NoLabel; ///< its outermost atomic block, NoLabel if unary
  Tid Witness = 0;      ///< thread whose clock component proved the cycle
  Op Kind = Op::Read;   ///< the conflicting operation that closed it
  uint32_t Target = 0;  ///< variable/lock/thread id of that operation
};

/// The linear-time vector-clock atomicity checker.
class AeroDrome : public Backend {
public:
  explicit AeroDrome(AeroDromeOptions Opts = {}) : Opts(Opts) {}

  const char *name() const override { return "AeroDrome"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;

  bool sawViolation() const override { return Saw; }

  /// Structured violations (parallel to the generic warnings() list, which
  /// is deduplicated by method; this list records every distinct method's
  /// first cycle).
  const std::vector<AeroViolation> &violations() const { return Violations; }

  // --- Statistics for the throughput comparison ---
  uint64_t clockJoins() const { return NumJoins; }
  uint64_t txnsStarted() const { return NumTxns; }
  uint64_t clocksAllocated() const { return NumAllocs; }

  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

private:
  /// Handle of a pooled transaction clock; 0 is "no clock".
  using ClockRef = uint32_t;

  /// A pooled clock: one per transaction, unary operations being
  /// singleton transactions. Its row holds, per slot, the latest
  /// transaction index of that thread ordered before this transaction;
  /// the owner's own component is the transaction's index.
  struct TxnClock {
    uint32_t Slot = 0; ///< the owning thread's slot
    uint32_t Refs = 0; ///< holders: the owner's Cur and frontier entries
  };

  struct ThreadState {
    ClockRef Cur = 0; ///< current (or last) transaction clock
    /// Fork-point transaction of the parent, joined at our first event.
    ClockRef PendingParent = 0;
    Label Outer = NoLabel;  ///< outermost open atomic-block label
    int Depth = 0;          ///< atomic-block nesting depth
  };

  /// Read/write frontier of one shared variable.
  struct VarState {
    ClockRef LastWrite = 0;
    uint32_t NumReaders = 0; ///< non-null entries of Readers
    /// Reader transaction by slot since the last write (cleared at each
    /// write: every cleared reader is folded into the writer's clock).
    std::vector<ClockRef> Readers;
  };

  uint64_t *row(ClockRef C) { return &Rows[size_t(C) * Stride]; }
  uint64_t *succ(uint32_t S) { return &Succ[size_t(S) * Stride]; }
  VarState &var(VarId X) {
    if (X >= Vars.size())
      Vars.resize(X + 1);
    return Vars[X];
  }

  /// The slot of T, growing the per-slot state on its first use.
  uint32_t slotOf(Tid T);
  /// Make room for one more slot, widening every row when Stride is full.
  void addSlot();
  /// A fresh pooled clock owned by slot S, not yet held.
  ClockRef newClock(uint32_t S);
  /// Point Holder at C, moving one reference from the old clock to C.
  void hold(ClockRef &Holder, ClockRef C);

  /// Start a fresh transaction (or unary singleton) for slot S: recycle
  /// the current clock in place if nothing else holds it, else carry its
  /// row into a new one (program order); tick S's component and fold in a
  /// pending fork-point dependency. The successor frontier is onBegin's and
  /// onEnd's: set to the block's own index when the outermost block opens,
  /// cleared when it ends.
  void advance(uint32_t S, const Event &E);

  /// An operation outside any atomic block runs in its own singleton
  /// transaction.
  void beginUnary(uint32_t S, const Event &E) {
    if (Threads.atSlot(S).Depth == 0)
      advance(S, E);
  }

  /// Fold the dependency Ref into slot S's transaction, running both cycle
  /// checks first (own component, successor frontier). A join that raises
  /// a component of S's clock past an entry of another open block's
  /// successor frontier makes S's transaction, and its successors,
  /// successors of that block. E describes the operation, for the warning
  /// message.
  void joinFrom(uint32_t S, ClockRef Ref, const Event &E);

  /// Record transaction Time of slot From, and From's own successors, as
  /// successors of slot U's open block.
  void recordSuccessor(uint32_t U, uint32_t From, uint64_t Time);

  void reportViolation(uint32_t S, Tid Witness, const Event &E);

  void onBegin(const Event &E);
  void onEnd(const Event &E);
  void onAcquire(const Event &E);
  void onRelease(const Event &E);
  void onRead(const Event &E);
  void onWrite(const Event &E);
  void onFork(const Event &E);
  void onJoin(const Event &E);

  AeroDromeOptions Opts;
  ThreadTable<ThreadState> Threads;
  /// By slot, Stride components each: the successor frontier of the slot's
  /// open outermost block. Per thread r, the earliest transaction of r known to
  /// be ordered at or after the block (0 = none); the slot's own entry is
  /// the block's index while it is open, 0 otherwise. A clock is ordered
  /// after the block iff it reaches some entry. A min-clock: onBegin sets
  /// the own entry when the outermost block opens, onEnd clears the row
  /// when it ends, and between the two only recordSuccessor lowers it.
  std::vector<uint64_t> Succ;
  std::vector<TxnClock> Clocks; ///< the pool; [0] is the null handle
  std::vector<uint64_t> Rows;   ///< Stride components per pooled clock
  std::vector<ClockRef> FreeClocks; ///< the first NumFree are free
  uint32_t NumFree = 0;
  uint32_t Stride = 0;          ///< slot capacity of every row
  std::vector<uint32_t> Raised; ///< joinFrom's scratch: raised components
  std::vector<ClockRef> LastRelease; ///< by lock id
  std::vector<VarState> Vars;        ///< by variable id
  std::vector<AeroViolation> Violations;
  std::set<Label> ReportedMethods;
  bool Saw = false;
  uint64_t NumJoins = 0;
  uint64_t NumTxns = 0;
  uint64_t NumAllocs = 0;
};

} // namespace velo

#endif // VELO_AERO_AERODROME_H
