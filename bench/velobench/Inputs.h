//===- bench/velobench/Inputs.h - Seeded workload inputs --------*- C++ -*-===//
//
// Every input velobench feeds the tools is a function of the workload seed.
// Synthetic streams come from one chunked generator: generateRandomTrace
// chunks concatenated, each chunk closed (open atomic blocks ended, held
// locks released) so nothing spans a chunk boundary, and the whole stream
// checked with Trace::validate. Plain concatenation of chunks leaves
// locks held across the boundary, which strict velodrome-check rejects and
// lenient mode repairs into whole-trace transactions.
//
//===----------------------------------------------------------------------===//

#ifndef VELOBENCH_INPUTS_H
#define VELOBENCH_INPUTS_H

#include "events/TraceGen.h"

#include <string>
#include <vector>

namespace velobench {

/// A strictly well-formed stream of at least MinEvents events built from
/// generateRandomTrace chunks of Opts.Steps steps (chunk I uses seed
/// Seed * 7919 + I + 1). Returns false with Err set if Trace::validate
/// (what strict velodrome-check accepts) rejects the result, which would
/// be a generator bug.
bool generateChunkedTrace(uint64_t Seed, const velo::TraceGenOptions &Opts,
                          uint64_t MinEvents, velo::Trace &Out,
                          std::string &Err);

/// The static_reduction shape: Threads threads each writing and re-reading
/// a private accumulator outside any atomic block, and every 16th round
/// running a lock-guarded transaction on one shared counter. The seed draws
/// each round's read count, so round lengths vary.
velo::Trace makeThreadLocalTrace(uint64_t Seed, uint32_t Threads,
                                 uint64_t MinEvents);

/// Serve wire encoding of a stream: one VELOTRC events-frame payload per
/// FrameEvents events, symbol blocks in first-use order.
std::vector<std::string> encodeFrames(const velo::Trace &T,
                                      size_t FrameEvents);

} // namespace velobench

#endif // VELOBENCH_INPUTS_H
