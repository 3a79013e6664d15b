//===- events/Event.h - Monitored-operation event model ---------*- C++ -*-===//
//
// The operation domain of the paper (Figure 1):
//
//   a ::= rd(t,x,v) | wr(t,x,v) | acq(t,m) | rel(t,m) | begin_l(t) | end(t)
//
// plus fork/join, which the paper folds into "thread ordering" happens-before
// edges (its formalism models dynamic thread creation "in a straightforward
// way"; RoadRunner emits fork/join events, and so do we).
//
// Values are omitted from events: the analysis never inspects them (the
// paper's rules [INS READ]/[INS WRITE] ignore v), and dropping them keeps an
// Event in 12 bytes.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_EVENT_H
#define VELO_EVENTS_EVENT_H

#include <cassert>
#include <cstdint>

namespace velo {

/// Thread identifier. Threads are numbered densely from 0.
using Tid = uint32_t;

/// Cap on thread ids: a tid at or above it is a parse error. Shared by the
/// text, binary and wire readers. Below it, ids may be sparse: the
/// sanitizer and Velodrome keep per-thread state by first use, but
/// AeroDrome and the HB race detector still size vector clocks by the
/// largest tid (docs/INGESTION.md section 1).
inline constexpr uint64_t MaxTraceThreads = 1 << 20;
/// Shared-variable identifier (a field in RoadRunner terms).
using VarId = uint32_t;
/// Lock identifier.
using LockId = uint32_t;
/// Atomic-block label (a method name in RoadRunner terms).
using Label = uint32_t;

/// Sentinel label for operations/warnings not attributable to a specific
/// atomic block (e.g. unary transactions).
inline constexpr Label NoLabel = 0xffffffffu;

/// Kind of a monitored operation.
enum class Op : uint8_t {
  Read,    ///< rd(t,x): read shared variable x.
  Write,   ///< wr(t,x): write shared variable x.
  Acquire, ///< acq(t,m): acquire lock m (re-entrant acquires are filtered).
  Release, ///< rel(t,m): release lock m.
  Begin,   ///< begin_l(t): enter an atomic block labeled l.
  End,     ///< end(t): exit the innermost atomic block.
  Fork,    ///< fork(t,u): thread t starts thread u.
  Join,    ///< join(t,u): thread t joins terminated thread u.
};

/// Printable mnemonic ("rd", "acq", ...).
const char *opName(Op Kind);

/// One monitored operation. Target is overloaded by kind: a VarId for
/// Read/Write, a LockId for Acquire/Release, a Label for Begin, the child
/// Tid for Fork/Join, and unused (0) for End.
struct Event {
  Op Kind;
  Tid Thread;
  uint32_t Target;

  static Event read(Tid T, VarId X) { return {Op::Read, T, X}; }
  static Event write(Tid T, VarId X) { return {Op::Write, T, X}; }
  static Event acquire(Tid T, LockId M) { return {Op::Acquire, T, M}; }
  static Event release(Tid T, LockId M) { return {Op::Release, T, M}; }
  static Event begin(Tid T, Label L) { return {Op::Begin, T, L}; }
  static Event end(Tid T) { return {Op::End, T, 0}; }
  static Event fork(Tid T, Tid Child) { return {Op::Fork, T, Child}; }
  static Event join(Tid T, Tid Child) { return {Op::Join, T, Child}; }

  bool isAccess() const { return Kind == Op::Read || Kind == Op::Write; }
  bool isLockOp() const {
    return Kind == Op::Acquire || Kind == Op::Release;
  }

  VarId var() const {
    assert(isAccess() && "not a memory access");
    return Target;
  }
  LockId lock() const {
    assert(isLockOp() && "not a lock operation");
    return Target;
  }
  Label label() const {
    assert(Kind == Op::Begin && "not a begin");
    return Target;
  }
  Tid child() const {
    assert((Kind == Op::Fork || Kind == Op::Join) && "not fork/join");
    return Target;
  }

  bool operator==(const Event &Other) const {
    return Kind == Other.Kind && Thread == Other.Thread &&
           Target == Other.Target;
  }
};

/// Do two operations conflict (Section 2 of the paper)? Two operations
/// conflict if they access the same variable and at least one is a write,
/// they operate on the same lock, or they are performed by the same thread.
/// Begin/End "operate" only via thread identity. Fork/Join additionally
/// conflict with every operation of the forked/joined thread; callers that
/// need that refinement handle it separately (see oracle/ConflictGraph).
bool conflicts(const Event &A, const Event &B);

} // namespace velo

#endif // VELO_EVENTS_EVENT_H
