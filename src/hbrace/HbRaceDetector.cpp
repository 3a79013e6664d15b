//===- hbrace/HbRaceDetector.cpp - Vector-clock race detector -------------===//

#include "hbrace/HbRaceDetector.h"

#include "events/TraceStream.h"

#include <algorithm>

namespace velo {

namespace {

bool anyTick(const VectorClock &C) {
  return std::any_of(C.raw().begin(), C.raw().end(),
                     [](uint64_t V) { return V != 0; });
}

/// A clock as exactly N components, one per slot.
void writeRow(SnapshotWriter &W, const VectorClock &C, uint32_t N) {
  for (uint32_t S = 0; S < N; ++S)
    W.u64(C.get(S));
}

void readRow(SnapshotReader &R, VectorClock &C, uint64_t N) {
  std::vector<uint64_t> V;
  for (uint64_t S = 0; S < N && !R.failed(); ++S)
    V.push_back(R.u64());
  C.setRaw(std::move(V));
}

} // namespace

// Layout: the slot table (tids in slot order), each thread's clock, then
// the lock and variable clocks with any component set, in ascending id.
// Every clock is written as one component per slot, so the bytes depend on
// neither the tids' size nor the table sizes.
void HbRaceDetector::serialize(SnapshotWriter &W) const {
  serializeBase(W);
  const uint32_t N = static_cast<uint32_t>(Threads.size());
  W.u64(N);
  for (uint32_t S = 0; S < N; ++S)
    W.u32(Threads.tidOf(S));
  for (uint32_t S = 0; S < N; ++S)
    writeRow(W, Threads.atSlot(S), N);
  W.u64(std::count_if(LockClocks.begin(), LockClocks.end(), anyTick));
  for (LockId M = 0; M < LockClocks.size(); ++M)
    if (anyTick(LockClocks[M])) {
      W.u32(M);
      writeRow(W, LockClocks[M], N);
    }
  auto hasState = [](const VarClocks &V) {
    return anyTick(V.Reads) || anyTick(V.Writes);
  };
  W.u64(std::count_if(Vars.begin(), Vars.end(), hasState));
  for (VarId X = 0; X < Vars.size(); ++X)
    if (hasState(Vars[X])) {
      W.u32(X);
      writeRow(W, Vars[X].Reads, N);
      writeRow(W, Vars[X].Writes, N);
    }
  W.u64(RacyVars.size());
  for (VarId X : RacyVars)
    W.u32(X);
}

bool HbRaceDetector::deserialize(SnapshotReader &R) {
  if (!deserializeBase(R))
    return false;
  // Tids are distinct and ids ascend strictly, as serialize() writes them,
  // all below the readers' caps, so a crafted snapshot cannot size the
  // tables. The slot table must be whole: every row below is N wide.
  uint64_t N = R.u64();
  for (uint64_t S = 0; S < N; ++S) {
    Tid T = R.u32();
    if (R.failed() || T >= MaxTraceThreads || slotOf(T) != S)
      return false;
  }
  for (uint32_t S = 0; S < N && !R.failed(); ++S)
    readRow(R, Threads.atSlot(S), N);
  uint64_t NumLocks = R.u64();
  for (uint64_t I = 0; I < NumLocks && !R.failed(); ++I) {
    LockId M = R.u32();
    if (M >= MaxTraceSymbols || M < LockClocks.size())
      return false;
    LockClocks.resize(M + 1);
    readRow(R, LockClocks[M], N);
  }
  uint64_t NumVars = R.u64();
  for (uint64_t I = 0; I < NumVars && !R.failed(); ++I) {
    VarId X = R.u32();
    if (X >= MaxTraceSymbols || X < Vars.size())
      return false;
    Vars.resize(X + 1);
    readRow(R, Vars[X].Reads, N);
    readRow(R, Vars[X].Writes, N);
  }
  uint64_t NumRacy = R.u64();
  for (uint64_t I = 0; I < NumRacy && !R.failed(); ++I)
    RacyVars.insert(R.u32());
  return !R.failed();
}

void HbRaceDetector::beginAnalysis(const SymbolTable &Syms) {
  Backend::beginAnalysis(Syms);
  Threads.clear();
  LockClocks.clear();
  Vars.clear();
  RacyVars.clear();
}

uint32_t HbRaceDetector::slotOf(Tid T) {
  size_t Seen = Threads.size();
  uint32_t S = Threads.slot(T);
  if (S == Seen) [[unlikely]]
    Threads.atSlot(S).set(S, 1); // each thread starts in its own epoch
  return S;
}

bool HbRaceDetector::checkPrior(const Event &E, const VectorClock &Prior,
                                const VectorClock &Now,
                                const char *PriorKind) {
  if (Prior.leq(Now))
    return false;
  for (uint32_t S : Threads.slotsByTid())
    if (Prior.get(S) > Now.get(S)) {
      reportRace(E, Threads.tidOf(S), PriorKind);
      break;
    }
  return true;
}

void HbRaceDetector::reportRace(const Event &E, Tid Witness,
                                const char *PriorKind) {
  if (!RacyVars.insert(E.var()).second)
    return; // one warning per variable
  Warning W;
  W.Analysis = "hb";
  W.Category = "race";
  W.Method = NoLabel;
  W.RuleId = "VELO-RACE-001";
  W.Thread = E.Thread;
  W.Ordinal = eventOrdinal();
  WarningSite Site;
  Site.Thread = Witness;
  Site.Note = std::string("prior concurrent ") + PriorKind;
  W.Related.push_back(std::move(Site));
  W.Message = "race: " + std::string(opName(E.Kind)) + " of " +
              (Symbols ? Symbols->varName(E.var()) : std::to_string(E.var())) +
              " by T" + std::to_string(E.Thread) + " is concurrent with a " +
              PriorKind + " by T" + std::to_string(Witness);
  report(std::move(W));
}

void HbRaceDetector::onEvent(const Event &E) {
  countEvent();
  switch (E.Kind) {
  case Op::Acquire: {
    uint32_t S = slotOf(E.Thread);
    if (E.lock() < LockClocks.size())
      Threads.atSlot(S).joinWith(LockClocks[E.lock()]);
    return;
  }
  case Op::Release: {
    uint32_t S = slotOf(E.Thread);
    if (E.lock() >= LockClocks.size())
      LockClocks.resize(E.lock() + 1);
    VectorClock &C = Threads.atSlot(S);
    LockClocks[E.lock()] = C;
    C.tick(S);
    return;
  }
  case Op::Fork: {
    uint32_t P = slotOf(E.Thread), Child = slotOf(E.child());
    VectorClock &Parent = Threads.atSlot(P);
    Threads.atSlot(Child).joinWith(Parent);
    Parent.tick(P);
    return;
  }
  case Op::Join: {
    uint32_t S = slotOf(E.Thread), Child = slotOf(E.child());
    Threads.atSlot(S).joinWith(Threads.atSlot(Child));
    return;
  }
  case Op::Read:
  case Op::Write: {
    uint32_t S = slotOf(E.Thread);
    const VectorClock &C = Threads.atSlot(S);
    if (E.var() >= Vars.size())
      Vars.resize(E.var() + 1);
    VarClocks &V = Vars[E.var()];
    if (E.Kind == Op::Read) {
      checkPrior(E, V.Writes, C, "write");
      V.Reads.set(S, C.get(S));
    } else {
      if (!checkPrior(E, V.Writes, C, "write"))
        checkPrior(E, V.Reads, C, "read");
      V.Writes.set(S, C.get(S));
    }
    return;
  }
  case Op::Begin:
  case Op::End:
    return; // atomic-block markers carry no synchronization
  }
}

} // namespace velo
