//===- parallel/Batch.h - Pipeline hand-off unit ----------------*- C++ -*-===//
//
// The unit of work that flows through the parallel pipeline's rings. A
// batch is produced by exactly one stage and, once pushed, is never
// mutated again by the producer — ownership moves with the ring slot.
// Fan-out shares one immutable batch among all workers via shared_ptr.
//
// Two pieces of metadata ride along with the events:
//
//  * SymbolDelta — the names the reader interned while parsing this
//    batch. Worker threads keep a private replica of the symbol table and
//    apply deltas in batch order, so back-ends never read the reader's
//    live interner (the one mutable structure the sequential path shares
//    freely; see docs/PARALLEL.md "Symbol-table ownership").
//
//  * CheckpointTicket — when the reader tags a batch as a checkpoint
//    boundary, every stage and worker deposits its serialized state into
//    the ticket as the batch passes. The deposits together form a
//    consistent cut: each participant serializes after consuming exactly
//    the input prefix the ticket's byte offset describes. No stage ever
//    stalls for a checkpoint.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_PARALLEL_BATCH_H
#define VELO_PARALLEL_BATCH_H

#include "events/Event.h"
#include "events/Trace.h"
#include "events/TraceSanitizer.h"
#include "staticpass/ReductionFilter.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace velo {

/// Names appended to the reader's symbol table while one batch was
/// parsed, in interning order (ids are dense, so appending the same names
/// in the same order reproduces the same ids in a replica).
struct SymbolDelta {
  std::vector<std::string> Vars, Locks, Labels;

  bool empty() const {
    return Vars.empty() && Locks.empty() && Labels.empty();
  }

  /// Append every delta name to Syms (replica catch-up, in batch order).
  void applyTo(SymbolTable &Syms) const {
    for (const std::string &N : Vars)
      Syms.Vars.intern(N);
    for (const std::string &N : Locks)
      Syms.Locks.intern(N);
    for (const std::string &N : Labels)
      Syms.Labels.intern(N);
  }
};

/// What a report's header counts of the delivered stream: events, and one
/// past the largest thread id they name (a fork or join names its child).
struct DeliveryCount {
  uint64_t Events = 0;
  uint32_t Threads = 0;

  void add(const Event &E) {
    ++Events;
    if (E.Thread >= Threads)
      Threads = E.Thread + 1;
    if ((E.Kind == Op::Fork || E.Kind == Op::Join) && E.child() >= Threads)
      Threads = E.child() + 1;
  }
};

/// One consistent analysis cut, assembled from the deposits of every
/// pipeline participant at a batch boundary. Handed to the checkpoint
/// sink once complete.
struct CheckpointCut {
  uint64_t ByteOffset = 0; ///< stream position after the batch's last line
  uint64_t LineNo = 0;     ///< 1-based number of that last line
  uint64_t EventsSeen = 0; ///< events delivered through this batch
  uint32_t ThreadsSeen = 0;
  std::string SymsBlob;    ///< serialized symbol table at the boundary
  std::string SanBlob;     ///< serialized sanitizer state
  std::string FilterBlob;  ///< serialized reduction filter ("" when off)
  /// (backend name, serialized state), in delivery order.
  std::vector<std::pair<std::string, std::string>> Backends;
};

/// In-flight checkpoint: participants deposit under the mutex; the one
/// that makes the final deposit hands the cut to the pipeline (which owns
/// ordering and the sink call).
struct CheckpointTicket {
  CheckpointCut Cut;
  std::mutex Mu;
  size_t Remaining = 0; ///< deposits outstanding (set by the reader)
  uint64_t Seq = 0;     ///< batch sequence number (sink ordering)
  /// The boundary lies at or past the governor's stop event, where the
  /// sequential loop never checkpoints: the cut completes unwritten.
  bool Void = false;
};

/// A batch of events between two pipeline stages.
struct EventBatch {
  uint64_t Seq = 0;
  std::vector<Event> Events;
  /// 1-based source line of each event (0 for synthesized events).
  /// Parallel to Events.
  std::vector<uint32_t> Lines;
  /// 1-based sanitized-stream ordinal of each event, parallel to Events.
  /// Assigned by the sanitizer stage (reader batches leave it empty) and
  /// preserved through reduction, so warnings carry the same coordinate
  /// in plain and --reduce runs.
  std::vector<uint64_t> Ordinals;
  SymbolDelta Symbols;
  /// Checkpoint boundary marker; null for ordinary batches.
  std::shared_ptr<CheckpointTicket> Ticket;

  // What a stop inside this batch reports: the counters as of the stop
  // event are recomputed from these, not from the stages that ran ahead.

  /// Delivered-stream counts before the first event (stamped on fan-out).
  DeliveryCount Before;
  /// The sanitizer's repair counts before this batch, then after each
  /// input event that repaired something, keyed by the number of
  /// sanitized events before that input's output (lenient mode only).
  RepairCounts RepairsBefore;
  std::vector<std::pair<uint64_t, RepairCounts>> RepairsAfter;
  /// The reduction filter's counters after each event it kept, parallel
  /// to Events (filter stage only).
  std::vector<PassStats> FilteredAfter;

  void add(const Event &E, uint32_t Line) {
    Events.push_back(E);
    Lines.push_back(Line);
  }
};

using BatchPtr = std::unique_ptr<EventBatch>;
using SharedBatch = std::shared_ptr<const EventBatch>;

} // namespace velo

#endif // VELO_PARALLEL_BATCH_H
