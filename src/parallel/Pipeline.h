//===- parallel/Pipeline.h - Multi-threaded analysis pipeline ---*- C++ -*-===//
//
// The parallel counterpart of the analysis plan's sequential streaming
// loop (AnalysisPlan::run, docs/PARALLEL.md). Stages are connected by
// bounded SPSC rings (parallel/Ring.h) carrying event batches, and the
// ingested stream fans out to N worker threads that each own a disjoint
// subset of the back-ends:
//
//   reader ──Q1──▶ sanitizer ──QF──▶ filter ──┬─▶ worker 0 (backends …)
//   (decode)       (repair/reject)  (--reduce)├─▶ worker 1 (backends …)
//                                             └─▶ worker N-1
//
// (without --reduce the sanitizer broadcasts directly). Each mutable
// component — the TraceSource's symbol table, the TraceSanitizer, the
// ReductionFilter, every Backend — is owned by exactly one thread for the
// lifetime of the run; batches are immutable after hand-off, and workers
// track symbol interning through per-batch deltas applied to private
// replicas. That ownership discipline is the whole determinism argument:
// every back-end observes byte-for-byte the event sequence the sequential
// loop would have delivered, so verdicts, warning lists, and statistics
// are identical by construction, for any interleaving of the threads.
//
// Checkpoints (--checkpoint under --parallel) are taken only at batch
// boundaries: the reader tags a batch, and every participant deposits its
// serialized state into the batch's ticket as it passes — a consistent
// cut assembled without ever stalling the pipeline.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_PARALLEL_PIPELINE_H
#define VELO_PARALLEL_PIPELINE_H

#include "analysis/Backend.h"
#include "events/TraceSanitizer.h"
#include "events/TraceSource.h"
#include "parallel/Batch.h"
#include "parallel/Ring.h"
#include "staticpass/ReductionFilter.h"

#include <atomic>
#include <csignal>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace velo {

/// Injectable stall point: slows one stage down by a fixed sleep per
/// batch, so tests can force any stage to be the bottleneck and prove
/// output equivalence under adversarial interleavings (queue-full on the
/// stalled stage's input, queue-drain everywhere downstream). A stalled
/// reader also pushes each batch only once every downstream stage is
/// blocked in pop() on an empty ring, so the drained case does not depend
/// on the scheduler: a worker ring holds at most the batch just pushed and
/// the sanitizer's end-of-input flush.
struct PipelineStall {
  enum Stage { None = -1, Reader = 0, Sanitizer = 1, Filter = 2,
               Worker = 3 };
  int At = None;
  int WorkerIndex = -1; ///< with At==Worker: stall only this worker (-1 all)
  uint32_t MicrosPerBatch = 0;
};

/// Parse a stall spec of the form "reader:500", "sanitizer:200",
/// "filter:1000", "worker:250" or "worker2:250" (micros per batch).
/// Returns false on a malformed spec. Used by the VELO_PIPELINE_STALL
/// environment hook (test-only; see docs/PARALLEL.md).
bool parsePipelineStall(const char *Spec, PipelineStall &Out);

/// How a pipeline run ended. Message formats mirror the sequential path:
/// Detail carries exactly what the sequential loop would have passed to
/// its fprintf (e.g. "line 3: bad thread id" for Parse).
enum class PipelineError {
  None,       ///< clean end of stream (or governor stop)
  Parse,      ///< malformed record or failed read; Detail = Src.error()
  Sanitize,   ///< strict-mode rejection; Detail = TraceSanitizer::error()
  Checkpoint, ///< checkpoint sink failed; Detail = sink's error
};

struct PipelineResult {
  PipelineError Err = PipelineError::None;
  std::string Detail;
  uint64_t EventsSeen = 0; ///< events delivered to the back-ends
  uint32_t ThreadsSeen = 0;
  /// Sanitized-stream events produced (pre-reduction): the upper bound of
  /// the ordinal coordinate space warnings report into.
  uint64_t SanitizedEvents = 0;
  /// The sanitizer's repair counts over the input that reached the
  /// back-ends (after a stop, through the input event that made the stop
  /// event).
  RepairCounts Repairs;
  /// The reduction filter's counters over the same input (zero without a
  /// filter).
  PassStats Reduced;
  uint64_t Batches = 0;    ///< batches produced by the reader
  size_t ReaderRingHigh = 0; ///< peak Q1 occupancy (backpressure evidence)
  size_t WorkerRingHigh = 0; ///< peak occupancy across worker rings
  /// AnalysisPlan::run's sequential loop only: the SIGTERM/SIGINT that
  /// ended the run at a record boundary (0 = none).
  int Signal = 0;
};

/// The options of a pipeline run, and of AnalysisPlan::run in both modes:
/// its sequential loop reads the checkpoint and crash fields.
struct ParallelOptions {
  /// Worker threads for back-end fan-out; 0 = one per delivered back-end.
  /// Always clamped to [1, #backends].
  unsigned Workers = 0;
  /// Events per batch. Smaller batches surface more interleavings (tests);
  /// larger batches amortize hand-off (production).
  size_t BatchEvents = 4096;
  /// Ring capacity, in batches, for every ring in the pipeline.
  size_t RingDepth = 8;

  /// Records read (TraceSource::eventCount, before the sanitizer and the
  /// filter) between checkpoint boundaries; 0 = checkpointing off. A cut
  /// lands after the first record at or past each due count where the
  /// source can tell(), in this pipeline (which ends the batch there) and
  /// in the sequential loop alike.
  uint64_t CheckpointEvery = 0;
  /// Receives each completed cut, in order. Returns false with ErrorOut
  /// set to abort the run (reported as PipelineError::Checkpoint).
  std::function<bool(const CheckpointCut &, std::string &ErrorOut)>
      CheckpointSink;

  /// Resume position: the delivered-event/thread counts recorded in the
  /// snapshot. The caller seeks the source (TraceSource::seekTo) first.
  uint64_t StartEvents = 0;
  uint32_t StartThreads = 0;
  /// Sanitized-stream events already consumed before this run (resume):
  /// the next sanitized event gets ordinal StartOrdinal + 1. Under
  /// --reduce this is the restored filter's input count; otherwise it
  /// equals StartEvents.
  uint64_t StartOrdinal = 0;

  /// Record delivered events in the global crash-diagnostics ring
  /// (analysis/CrashDump.h). The ring is process-global and
  /// single-writer: enable in at most one pipeline per process.
  bool NoteCrashEvents = false;
  /// Test hook: raise CrashSignal after CrashAt events have been
  /// delivered by this process (0 = off).
  uint64_t CrashAt = 0;
  int CrashSignal = SIGKILL;

  /// Polled by the worker that owns StopOwner after each event it
  /// delivers; returning true (governor exhaustion) makes that event the
  /// stop event. The worker delivers nothing after it, the reader stops at
  /// its next event, no cut at or past it completes, and the result counts
  /// as of it. Back-ends on other workers may still see batches already
  /// fanned out.
  std::function<bool()> StopProbe;
  Backend *StopOwner = nullptr;

  PipelineStall Stall; ///< test-only stall injection
};

/// One parallel analysis run. The pipeline borrows every component —
/// stream, symbol table, sanitizer, filter, back-ends — and hands
/// exclusive per-thread ownership back when run() returns: the caller
/// must not touch them while run() is executing, and can read all of
/// them (warnings, stats, repair counts) afterwards.
class ParallelPipeline {
public:
  /// Filter may be null (reduction off). Delivery is the back-end list in
  /// delivery order; beginAnalysis(Syms) must already have been called on
  /// each (the pipeline rebinds them to worker-private symbol replicas).
  /// The source must have interned into Syms (and, on resume, be seeked
  /// and have its counters restored) before run().
  ParallelPipeline(TraceSource &Src, SymbolTable &Syms, TraceSanitizer &San,
                   ReductionFilter *Filter, std::vector<Backend *> Delivery,
                   ParallelOptions Opts);

  /// Execute the pipeline to completion (blocking; spawns and joins all
  /// stage and worker threads).
  PipelineResult run();

private:
  struct Worker {
    std::vector<size_t> Owned; ///< indices into Delivery
    SymbolTable Replica;
    std::unique_ptr<BoundedRing<SharedBatch>> Ring;
  };

  void readerMain();
  void sanitizerMain();
  void filterMain();
  void workerMain(size_t Index);

  /// Delivery bookkeeping + broadcast, called by the last single-threaded
  /// stage (filter when reducing, sanitizer otherwise). Returns false when
  /// the pipeline is aborting.
  bool deliver(BatchPtr B);
  void maybeStall(int Stage, int WorkerIndex = -1) const;
  /// The stalled reader's handshake: wait until every stage downstream of
  /// Q1 is blocked in pop() on an empty ring (or the run is ending).
  void awaitDrainedDownstream() const;

  /// Deposit into a ticket under its mutex (or void it); the final
  /// depositor hands a completed cut that nobody voided to the sink
  /// (ordered, at most once per boundary).
  void deposit(const std::shared_ptr<CheckpointTicket> &T,
               const std::function<void(CheckpointCut &)> &Fill,
               bool Void = false);
  /// Record event EI of B as the stop event and stop the reader.
  void takeStop(const EventBatch &B, size_t EI);
  void abortPipeline();

  TraceSource &Src;
  SymbolTable &Syms;
  TraceSanitizer &San;
  ReductionFilter *Filter;
  std::vector<Backend *> Delivery;
  ParallelOptions Opts;

  unsigned NumWorkers = 1;
  std::vector<Worker> Workers;
  BoundedRing<BatchPtr> Q1;
  BoundedRing<BatchPtr> QF;

  std::atomic<bool> Stop{false};
  std::atomic<bool> Aborted{false};
  std::atomic<bool> ParseFailed{false};
  std::atomic<bool> SanFailed{false};

  std::mutex ErrMu;
  std::string ParseErr, SanErr, CkptErr;

  std::mutex CkptMu;
  uint64_t LastCutSeq = 0;
  bool WroteAnyCut = false;
  /// Cuts broadcast to the workers whose final deposit (and sink call)
  /// has not happened yet; the crash-at hook waits for zero.
  std::atomic<uint64_t> PendingCuts{0};

  // Delivery bookkeeping (single-threaded: last stage only).
  DeliveryCount Seen;
  uint64_t Batches = 0;

  // The stop event's counters (written by the stop owner's worker only).
  bool StopTaken = false;
  DeliveryCount StopSeen;
  uint64_t StopOrdinal = 0;
  RepairCounts StopRepairs;
  PassStats StopReduced;

  // Sanitized-stream ordinal assignment (single-threaded: sanitizer
  // stage only).
  uint64_t SanOrdinal = 0;
};

} // namespace velo

#endif // VELO_PARALLEL_PIPELINE_H
