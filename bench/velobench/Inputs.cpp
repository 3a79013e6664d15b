//===- bench/velobench/Inputs.cpp - Seeded workload inputs ----------------===//

#include "Inputs.h"

#include "events/TraceSanitizer.h"
#include "serve/Wire.h"
#include "support/Rng.h"

using namespace velo;

namespace velobench {

bool generateChunkedTrace(uint64_t Seed, const TraceGenOptions &Opts,
                          uint64_t MinEvents, Trace &Out, std::string &Err) {
  Out = Trace();
  std::vector<Event> Scratch;
  for (uint64_t Chunk = 0; Out.size() < MinEvents; ++Chunk) {
    Trace Part = generateRandomTrace(Seed * 7919 + Chunk + 1, Opts);
    if (Chunk == 0) {
      // generateRandomTrace interns its names in a fixed order, so every
      // chunk's ids agree with the first chunk's table.
      Out.symbols() = Part.symbols();
    }
    // A chunk is well formed on its own; the lenient sanitizer emits it
    // unchanged and its finish() supplies the closing ends and releases.
    TraceSanitizer Closer(SanitizeMode::Lenient);
    for (const Event &E : Part) {
      Scratch.clear();
      Closer.push(E, Scratch);
      for (const Event &C : Scratch)
        Out.push(C);
    }
    Scratch.clear();
    Closer.finish(Scratch);
    for (const Event &C : Scratch)
      Out.push(C);
  }
  std::vector<std::string> Errors;
  if (!Out.validate(&Errors)) {
    Err = "chunked generator produced an ill-formed stream: " + Errors[0];
    return false;
  }
  return true;
}

Trace makeThreadLocalTrace(uint64_t Seed, uint32_t Threads,
                           uint64_t MinEvents) {
  Trace T;
  Rng R(Seed);
  Label Work = T.symbols().Labels.intern("Worker.flush");
  LockId Mu = T.symbols().Locks.intern("mu");
  VarId Shared = T.symbols().Vars.intern("total");
  std::vector<VarId> Local;
  for (uint32_t I = 0; I < Threads; ++I)
    Local.push_back(T.symbols().Vars.intern("acc" + std::to_string(I)));
  // Rounds are round-robined over threads so runs of thread-local work
  // interleave the way a real schedule does.
  for (uint64_t Round = 0; T.size() < MinEvents; ++Round) {
    for (uint32_t Th = 0; Th < Threads; ++Th) {
      T.push(Event::write(Th, Local[Th]));
      for (uint64_t I = 0, N = 8 + R.below(13); I < N; ++I)
        T.push(Event::read(Th, Local[Th]));
      if (Round % 16 == 0) {
        T.push(Event::begin(Th, Work));
        T.push(Event::acquire(Th, Mu));
        T.push(Event::read(Th, Shared));
        T.push(Event::write(Th, Shared));
        T.push(Event::release(Th, Mu));
        T.push(Event::end(Th));
      }
    }
  }
  return T;
}

std::vector<std::string> encodeFrames(const Trace &T, size_t FrameEvents) {
  std::vector<Event> Events(T.begin(), T.end());
  std::vector<std::string> Frames;
  size_t VarsDone = 0, LocksDone = 0, LabelsDone = 0;
  for (size_t Pos = 0; Pos < Events.size(); Pos += FrameEvents) {
    std::string Payload;
    serve::encodeEventsPayload(Payload, Events, Pos,
                               std::min(Pos + FrameEvents, Events.size()),
                               T.symbols(), VarsDone, LocksDone, LabelsDone);
    Frames.push_back(std::move(Payload));
  }
  return Frames;
}

} // namespace velobench
