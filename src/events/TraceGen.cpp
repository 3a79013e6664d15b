//===- events/TraceGen.cpp - Random well-formed trace generation ----------===//

#include "events/TraceGen.h"

#include "events/TraceSanitizer.h"
#include "support/Rng.h"

#include <set>
#include <string>
#include <vector>

namespace velo {

namespace {

struct GenThread {
  int Depth = 0;
  std::set<LockId> Held;
  bool Started = false;
};

} // namespace

Trace generateRandomTrace(uint64_t Seed, const TraceGenOptions &Opts) {
  Rng R(Seed);
  Trace T;
  SymbolTable &Syms = T.symbols();

  std::vector<VarId> Vars;
  for (uint32_t I = 0; I < Opts.Vars; ++I)
    Vars.push_back(Syms.Vars.intern("x" + std::to_string(I)));
  std::vector<LockId> Locks;
  for (uint32_t I = 0; I < Opts.Locks; ++I)
    Locks.push_back(Syms.Locks.intern("m" + std::to_string(I)));
  std::vector<Label> Labels;
  for (uint32_t I = 0; I < 6; ++I)
    Labels.push_back(Syms.Labels.intern("method" + std::to_string(I)));

  std::vector<GenThread> Threads(Opts.Threads);
  std::set<LockId> HeldAnywhere;

  auto EnsureStarted = [&](Tid Id) {
    if (!Opts.UseForkJoin || Id == 0 || Threads[Id].Started)
      return;
    T.push(Event::fork(0, Id));
    Threads[Id].Started = true;
  };
  if (Opts.UseForkJoin)
    Threads[0].Started = true;

  enum Action { ABegin, AEnd, ARead, AWrite, AAcquire, ARelease };

  for (size_t Step = 0; Step < Opts.Steps; ++Step) {
    Tid Id = static_cast<Tid>(R.below(Opts.Threads));
    GenThread &G = Threads[Id];

    // Build the weighted set of currently legal actions.
    std::vector<std::pair<Action, unsigned>> Candidates;
    if (G.Depth < Opts.MaxDepth && Opts.WeightBegin)
      Candidates.push_back({ABegin, Opts.WeightBegin});
    if (G.Depth > 0 && Opts.WeightEnd)
      Candidates.push_back({AEnd, Opts.WeightEnd});
    if (!Vars.empty()) {
      if (Opts.WeightRead)
        Candidates.push_back({ARead, Opts.WeightRead});
      if (Opts.WeightWrite)
        Candidates.push_back({AWrite, Opts.WeightWrite});
    }
    bool SomeLockFree = HeldAnywhere.size() < Locks.size();
    if (!Locks.empty() && SomeLockFree && Opts.WeightAcquire)
      Candidates.push_back({AAcquire, Opts.WeightAcquire});
    if (!G.Held.empty() && Opts.WeightRelease)
      Candidates.push_back({ARelease, Opts.WeightRelease});
    if (Candidates.empty())
      continue;

    unsigned Total = 0;
    for (const auto &[A, Wt] : Candidates)
      Total += Wt;
    unsigned Roll = static_cast<unsigned>(R.below(Total));
    Action Chosen = Candidates.back().first;
    for (const auto &[A, Wt] : Candidates) {
      if (Roll < Wt) {
        Chosen = A;
        break;
      }
      Roll -= Wt;
    }

    EnsureStarted(Id);
    switch (Chosen) {
    case ABegin:
      T.push(Event::begin(Id, R.pick(Labels)));
      ++G.Depth;
      break;
    case AEnd:
      T.push(Event::end(Id));
      --G.Depth;
      break;
    case ARead:
    case AWrite: {
      VarId X = R.pick(Vars);
      // Optionally guard the access with the variable's designated lock to
      // raise the serializable fraction.
      LockId Guard = Locks.empty() ? 0 : Locks[X % Locks.size()];
      bool Guarded = !Locks.empty() && Opts.GuardedAccessPct &&
                     R.below(100) < Opts.GuardedAccessPct &&
                     !HeldAnywhere.count(Guard);
      if (Guarded) {
        T.push(Event::acquire(Id, Guard));
        HeldAnywhere.insert(Guard);
        G.Held.insert(Guard);
      }
      T.push(Chosen == ARead ? Event::read(Id, X) : Event::write(Id, X));
      if (Guarded) {
        T.push(Event::release(Id, Guard));
        HeldAnywhere.erase(Guard);
        G.Held.erase(Guard);
      }
      break;
    }
    case AAcquire: {
      std::vector<LockId> Free;
      for (LockId M : Locks)
        if (!HeldAnywhere.count(M))
          Free.push_back(M);
      LockId M = R.pick(Free);
      T.push(Event::acquire(Id, M));
      HeldAnywhere.insert(M);
      G.Held.insert(M);
      break;
    }
    case ARelease: {
      std::vector<LockId> Mine(G.Held.begin(), G.Held.end());
      LockId M = R.pick(Mine);
      T.push(Event::release(Id, M));
      HeldAnywhere.erase(M);
      G.Held.erase(M);
      break;
    }
    }
  }

  if (Opts.UseForkJoin) {
    // Join every forked thread at the end (children emit nothing after).
    for (Tid Id = 1; Id < Opts.Threads; ++Id)
      if (Threads[Id].Started)
        T.push(Event::join(0, Id));
  }
  return T;
}

Trace generateClosedChunk(uint64_t Seed, uint64_t Index,
                          const TraceGenOptions &Opts) {
  Trace T = generateRandomTrace(Seed * 7919 + Index + 1, Opts);
  // The chunk is well formed on its own, so the lenient sanitizer passes
  // it through unchanged and only finish() has anything to add.
  TraceSanitizer Closer(SanitizeMode::Lenient);
  std::vector<Event> Tail;
  for (const Event &E : T)
    Closer.push(E, Tail);
  Tail.clear();
  Closer.finish(Tail);
  for (const Event &E : Tail)
    T.push(E);
  return T;
}

} // namespace velo
