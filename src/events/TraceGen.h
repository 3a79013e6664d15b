//===- events/TraceGen.h - Random well-formed trace generation --*- C++ -*-===//
//
// Seeded generator of structurally well-formed traces (arbitrary
// interleavings of reads, writes, lock operations, and nested atomic
// blocks, optionally under a fork/join envelope). The property-test suite
// feeds these to the online checkers and to the offline oracle and demands
// verdict agreement on every seed — the executable form of the paper's
// soundness-and-completeness theorem. The synthetic benchmark harness uses
// the same generator for throughput streams.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_TRACEGEN_H
#define VELO_EVENTS_TRACEGEN_H

#include "events/Trace.h"

#include <cstdint>

namespace velo {

/// Knobs for random trace generation. The defaults produce small, highly
/// contended traces in which both serializable and non-serializable
/// interleavings are common.
struct TraceGenOptions {
  uint32_t Threads = 4;
  uint32_t Vars = 4;
  uint32_t Locks = 2;
  /// Number of generation steps (events emitted; fork/join add extras).
  size_t Steps = 60;
  /// Maximum atomic-block nesting depth.
  int MaxDepth = 2;
  /// Relative operation weights.
  unsigned WeightBegin = 12;
  unsigned WeightEnd = 14;
  unsigned WeightRead = 26;
  unsigned WeightWrite = 22;
  unsigned WeightAcquire = 14;
  unsigned WeightRelease = 16;
  /// Wrap execution in a fork/join envelope: thread 0 forks each other
  /// thread before its first operation and joins them all at the end.
  bool UseForkJoin = false;
  /// Fraction (percent) of variable accesses performed while holding a
  /// lock chosen deterministically for the variable — raises the share of
  /// serializable traces.
  unsigned GuardedAccessPct = 0;
};

/// Generate a well-formed trace (Trace::validate holds by construction).
Trace generateRandomTrace(uint64_t Seed, const TraceGenOptions &Opts);

/// Chunk Index of an arbitrarily long well-formed stream, for throughput
/// benches: generateRandomTrace(Seed * 7919 + Index + 1, Opts) followed by
/// the releases and ends that close what it leaves open (a lenient
/// TraceSanitizer's finish()). Chunks 0, 1, 2, ... concatenated form a
/// trace Trace::validate accepts, provided Opts.UseForkJoin is off (a
/// joined thread cannot run again). Every chunk interns the same names in
/// the same order, so symbol ids agree across chunks.
Trace generateClosedChunk(uint64_t Seed, uint64_t Index,
                          const TraceGenOptions &Opts);

} // namespace velo

#endif // VELO_EVENTS_TRACEGEN_H
