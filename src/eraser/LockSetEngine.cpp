//===- eraser/LockSetEngine.cpp - Eraser lockset state machine ------------===//

#include "eraser/LockSetEngine.h"

#include "events/TraceStream.h"

#include <algorithm>

namespace velo {

bool LockSetEngine::accessIsUnprotected(Tid T, VarId X, bool IsWrite) {
  if (X >= Vars.size())
    Vars.resize(X + 1);
  VarInfo &V = Vars[X];
  const std::set<LockId> &Locks = heldOf(T);

  auto Intersect = [&]() {
    std::set<LockId> Out;
    std::set_intersection(V.Candidate.begin(), V.Candidate.end(),
                          Locks.begin(), Locks.end(),
                          std::inserter(Out, Out.begin()));
    V.Candidate = std::move(Out);
  };

  switch (V.State) {
  case VarState::Virgin:
    V.State = VarState::Exclusive;
    V.Owner = T;
    return false;
  case VarState::Exclusive:
    if (V.Owner == T)
      return false; // still thread-local
    V.Candidate = Locks;
    V.State = IsWrite ? VarState::SharedModified : VarState::Shared;
    if (V.State == VarState::SharedModified && V.Candidate.empty()) {
      V.RacySharedModified = true;
      return true;
    }
    // First sharing with an empty lockset is already suspicious for the
    // Atomizer's mover classification.
    return V.Candidate.empty();
  case VarState::Shared:
    Intersect();
    if (IsWrite) {
      V.State = VarState::SharedModified;
      if (V.Candidate.empty()) {
        V.RacySharedModified = true;
        return true;
      }
    }
    return V.Candidate.empty();
  case VarState::SharedModified:
    Intersect();
    if (V.Candidate.empty()) {
      V.RacySharedModified = true;
      return true;
    }
    return false;
  }
  return false;
}

void LockSetEngine::serialize(SnapshotWriter &W) const {
  // Skip the defaults (empty held sets, Virgin variables) so the payload
  // only carries entities the engine has actually observed; threads go in
  // ascending tid, whatever their slot order.
  std::vector<uint32_t> Holders;
  for (uint32_t S : Held.slotsByTid())
    if (!Held.atSlot(S).empty())
      Holders.push_back(S);
  W.u64(Holders.size());
  for (uint32_t S : Holders) {
    const std::set<LockId> &Locks = Held.atSlot(S);
    W.u32(Held.tidOf(S));
    W.u64(Locks.size());
    for (LockId M : Locks)
      W.u32(M);
  }

  uint64_t NumVars = 0;
  for (const VarInfo &V : Vars)
    if (V.State != VarState::Virgin)
      ++NumVars;
  W.u64(NumVars);
  for (VarId X = 0; X < Vars.size(); ++X) {
    const VarInfo &V = Vars[X];
    if (V.State == VarState::Virgin)
      continue;
    W.u32(X);
    W.u8(static_cast<uint8_t>(V.State));
    W.u32(V.Owner);
    W.u64(V.Candidate.size());
    for (LockId M : V.Candidate)
      W.u32(M);
    W.boolean(V.RacySharedModified);
  }
}

bool LockSetEngine::deserialize(SnapshotReader &R) {
  clear();
  // Ids ascend strictly, as serialize() writes them, and lie below the
  // readers' caps, so a crafted snapshot cannot size the tables.
  uint64_t NumThreads = R.u64();
  for (uint64_t I = 0, Prev = 0; I < NumThreads && !R.failed(); ++I) {
    Tid T = R.u32();
    if (T >= MaxTraceThreads || (I > 0 && T <= Prev))
      return false;
    Prev = T;
    std::set<LockId> &Locks = heldOf(T);
    uint64_t N = R.u64();
    for (uint64_t J = 0; J < N && !R.failed(); ++J)
      Locks.insert(R.u32());
  }
  uint64_t NumVars = R.u64();
  for (uint64_t I = 0; I < NumVars && !R.failed(); ++I) {
    VarId X = R.u32();
    if (X >= MaxTraceSymbols || X < Vars.size())
      return false;
    Vars.resize(X + 1);
    VarInfo &V = Vars[X];
    V.State = static_cast<VarState>(R.u8());
    V.Owner = R.u32();
    uint64_t N = R.u64();
    for (uint64_t J = 0; J < N && !R.failed(); ++J)
      V.Candidate.insert(R.u32());
    V.RacySharedModified = R.boolean();
  }
  return !R.failed();
}

} // namespace velo
