//===- aero/AeroDrome.cpp - Linear-time vector-clock checker --------------===//
//
// See AeroDrome.h for the algorithm overview. The invariants maintained
// here:
//
//   1. row(Cur) of slot S is the exact set of transactions ordered before
//      S's current transaction (including itself, at component S). Rows
//      held by anything but their owner's Cur are never written again: a
//      new transaction recycles its clock in place only when nothing else
//      holds it.
//   2. Every lock and variable frontier entry references the transaction
//      that performed the operation, so later readers of the entry see the
//      full eventual dependency set of that transaction while it is open.
//   3. succ(S), S's successor frontier, records per thread r the earliest
//      transaction index of r known to be ordered after S's open block
//      (its own entry: the block's index, set when the outermost block
//      opens; the whole row is cleared when it ends). Every transaction
//      ordered after the block has a clock that reaches the frontier, some
//      component at least the nonzero entry beside it, so joining a clock
//      that reaches it closes a cycle. A join that raises a component past
//      an entry of an open block's frontier keeps this true by folding the
//      joiner, and its own successor frontier, into that block's
//      (docs/ALGORITHM.md §4 argues it).
//
// A violation is flagged exactly when a join would close a cycle; the join
// is then skipped, mirroring Velodrome's refusal to add cycle-closing
// edges, and the analysis continues.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"

#include "events/TraceStream.h"
#include "report/Report.h"

#include <algorithm>
#include <string>

namespace velo {

void AeroDrome::beginAnalysis(const SymbolTable &Syms) {
  Backend::beginAnalysis(Syms);
  Threads.clear();
  Succ.clear();
  Clocks.assign(1, TxnClock()); // the null handle
  Rows.clear();
  FreeClocks.assign(1, 0);
  NumFree = 0;
  Raised.clear();
  Stride = 0;
  LastRelease.clear();
  Vars.clear();
  Violations.clear();
  ReportedMethods.clear();
  Saw = false;
  NumJoins = NumTxns = NumAllocs = 0;
}

uint32_t AeroDrome::slotOf(Tid T) {
  size_t Seen = Threads.size();
  uint32_t S = Threads.slot(T);
  if (S == Seen) [[unlikely]]
    addSlot();
  return S;
}

void AeroDrome::addSlot() {
  size_t N = Threads.size() - 1;
  if (N == Stride) {
    uint32_t Wider = Stride ? 2 * Stride : 8;
    auto widen = [&](std::vector<uint64_t> &Arena, size_t NumRows) {
      std::vector<uint64_t> Out(NumRows * Wider, 0);
      for (size_t R = 0; R < NumRows; ++R)
        std::copy_n(Arena.begin() + R * Stride, Stride,
                    Out.begin() + R * Wider);
      Arena.swap(Out);
    };
    widen(Rows, Clocks.size());
    widen(Succ, N);
    Stride = Wider;
    Raised.resize(Stride);
  }
  Succ.resize((N + 1) * Stride, 0);
}

AeroDrome::ClockRef AeroDrome::newClock(uint32_t S) {
  ClockRef C;
  if (NumFree) {
    C = FreeClocks[--NumFree];
  } else {
    C = static_cast<ClockRef>(Clocks.size());
    Clocks.emplace_back();
    Rows.resize(Rows.size() + Stride, 0);
    FreeClocks.resize(Clocks.size());
  }
  Clocks[C] = TxnClock{S, 0};
  return C;
}

void AeroDrome::hold(ClockRef &Holder, ClockRef C) {
  // Branch-free: the null handle's entry takes the counts of "no clock",
  // and the free list has room for every clock.
  ++Clocks[C].Refs;
  ClockRef Old = Holder;
  FreeClocks[NumFree] = Old;
  NumFree += (--Clocks[Old].Refs == 0) & (Old != 0);
  Holder = C;
}

void AeroDrome::advance(uint32_t S, const Event &E) {
  ++NumTxns;
  ThreadState &TS = Threads.atSlot(S);
  if (TS.Cur && Clocks[TS.Cur].Refs == 1) {
    // Nothing but this thread holds the previous transaction: recycle the
    // clock in place. This is the common case for long unary runs and the
    // analogue of HbGraph's slot recycling.
    ++row(TS.Cur)[S];
  } else {
    ClockRef Next = newClock(S);
    ++NumAllocs;
    size_t N = Threads.size();
    uint64_t *To = row(Next);
    if (TS.Cur)
      std::copy_n(row(TS.Cur), N, To); // program order: carry deps forward
    else
      std::fill_n(To, N, 0);
    ++To[S];
    hold(TS.Cur, Next);
  }
  if (ClockRef Parent = TS.PendingParent) {
    TS.PendingParent = 0; // the reference moves into Parent
    joinFrom(S, Parent, E);
    hold(Parent, 0);
  }
}

/// Render the conflicting operation for the warning message.
static std::string opDesc(const Event &E, const SymbolTable *Syms) {
  std::string Verb = std::string(opName(E.Kind)) + " ";
  if (E.isAccess())
    return Verb + (Syms ? Syms->varName(E.var()) : std::to_string(E.var()));
  if (E.isLockOp())
    return Verb +
           (Syms ? Syms->lockName(E.lock()) : std::to_string(E.lock()));
  if (E.Kind == Op::Fork || E.Kind == Op::Join)
    return Verb + "T" + std::to_string(E.child());
  return "op";
}

void AeroDrome::joinFrom(uint32_t S, ClockRef Ref, const Event &E) {
  ThreadState &TS = Threads.atSlot(S);
  if (!Ref || Ref == TS.Cur)
    return;
  ++NumJoins;
  const uint32_t N = static_cast<uint32_t>(Threads.size());
  uint64_t *Own = row(TS.Cur);
  const uint64_t *Dep = row(Ref);
  const uint64_t C = Own[S];
  // Cycle check 1: the dependency already contains our transaction.
  if (Dep[S] >= C)
    // Skip the cycle-closing join, as Velodrome skips the edge.
    return reportViolation(S, Threads.tidOf(Clocks[Ref].Slot), E);
  // Cycle check 2: the dependency reaches our successor frontier, so it is
  // transitively ordered after us (our own entry is check 1's). The
  // same pass lists the components the join raises: few, and for most
  // joins none.
  const uint64_t *Front = succ(S);
  uint32_t *Up = Raised.data(), NumUp = 0;
  bool Hit = false;
  for (uint32_t I = 0; I < N; ++I) {
    Hit |= (Front[I] != 0) & (Dep[I] >= Front[I]);
    Up[NumUp] = I;
    NumUp += Dep[I] > Own[I];
  }
  if (Hit) // the witness is the hit with the smallest tid
    for (uint32_t I : Threads.slotsByTid())
      if (Front[I] != 0 && Dep[I] >= Front[I])
        return reportViolation(S, Threads.tidOf(I), E);
  // A join that raises a component of our clock past an entry of an open
  // block's successor frontier orders our transaction, and all that
  // follows it, after that block. (Only open blocks have entries, and our
  // own frontier cannot be crossed here: the checks above would have
  // fired.)
  for (uint32_t U = 0; NumUp && U < N; ++U) {
    const uint64_t *Other = succ(U);
    bool Crosses = false;
    for (uint32_t K = 0; K < NumUp; ++K) {
      uint32_t I = Up[K];
      Crosses |= (Own[I] < Other[I]) & (Other[I] <= Dep[I]);
    }
    if (Crosses)
      recordSuccessor(U, S, C);
  }
  for (uint32_t K = 0; K < NumUp; ++K)
    Own[Up[K]] = Dep[Up[K]];
}

void AeroDrome::recordSuccessor(uint32_t U, uint32_t From, uint64_t Time) {
  // A min-join in which 0, "none", must lose: shifted down by one it wraps
  // to the largest value.
  uint64_t *To = succ(U);
  const uint64_t *Known = succ(From);
  for (uint32_t R = 0, N = static_cast<uint32_t>(Threads.size()); R < N; ++R)
    To[R] = std::min(To[R] - 1, Known[R] - 1) + 1;
  To[From] = std::min(To[From] - 1, Time - 1) + 1;
}

void AeroDrome::reportViolation(uint32_t S, Tid Witness, const Event &E) {
  Saw = true;
  Label Method = Threads.atSlot(S).Outer;
  if (!ReportedMethods.insert(Method).second)
    return; // one violation record per blamed method
  Tid T = Threads.tidOf(S);
  AeroViolation V;
  V.Thread = T;
  V.Method = Method;
  V.Witness = Witness;
  V.Kind = E.Kind;
  V.Target = E.Target;
  Violations.push_back(V);
  if (ReportManager::capReached(Violations.size() - 1, Opts.MaxWarnings))
    return;
  Warning W;
  W.Analysis = "aerodrome";
  W.Category = "atomicity";
  W.Method = Method;
  W.RuleId = "VELO-ATOM-002";
  W.Thread = T;
  W.Ordinal = eventOrdinal();
  WarningSite Site;
  Site.Thread = Witness;
  Site.Note = "open transaction the dependency cycle closes through";
  W.Related.push_back(std::move(Site));
  W.Message = "atomicity violation in " +
              (Method == NoLabel
                   ? std::string("unary operation")
                   : (Symbols ? Symbols->labelName(Method)
                              : std::to_string(Method))) +
              ": T" + std::to_string(T) + " " + opDesc(E, Symbols) +
              " closes a dependency cycle through T" + std::to_string(Witness);
  report(std::move(W));
}

void AeroDrome::onBegin(const Event &E) {
  uint32_t S = slotOf(E.Thread);
  ThreadState &TS = Threads.atSlot(S);
  if (TS.Depth++ == 0) {
    advance(S, E);
    TS.Outer = E.label();
    succ(S)[S] = row(TS.Cur)[S]; // the block reaches itself
  }
}

void AeroDrome::onEnd(const Event &E) {
  uint32_t S = slotOf(E.Thread);
  ThreadState &TS = Threads.atSlot(S);
  if (TS.Depth > 0 && --TS.Depth == 0) {
    TS.Outer = NoLabel;
    std::fill_n(succ(S), Threads.size(), 0); // no longer open
  }
}

void AeroDrome::onAcquire(const Event &E) {
  uint32_t S = slotOf(E.Thread);
  beginUnary(S, E);
  if (E.lock() < LastRelease.size())
    joinFrom(S, LastRelease[E.lock()], E);
}

void AeroDrome::onRelease(const Event &E) {
  uint32_t S = slotOf(E.Thread);
  beginUnary(S, E);
  if (E.lock() >= LastRelease.size())
    LastRelease.resize(E.lock() + 1, 0);
  hold(LastRelease[E.lock()], Threads.atSlot(S).Cur);
}

void AeroDrome::onRead(const Event &E) {
  uint32_t S = slotOf(E.Thread);
  beginUnary(S, E);
  VarState &V = var(E.var());
  joinFrom(S, V.LastWrite, E);
  if (S >= V.Readers.size())
    V.Readers.resize(S + 1, 0);
  V.NumReaders += V.Readers[S] == 0;
  hold(V.Readers[S], Threads.atSlot(S).Cur);
}

void AeroDrome::onWrite(const Event &E) {
  uint32_t S = slotOf(E.Thread);
  beginUnary(S, E);
  VarState &V = var(E.var());
  joinFrom(S, V.LastWrite, E);
  // Readers join in ascending tid, which decides the reported witness.
  // Frontier reduction: all previous readers are now ordered before this
  // write, so future conflicts with them flow through our clock.
  for (auto R = Threads.slotsByTid().begin(); V.NumReaders; ++R)
    if (*R < V.Readers.size() && V.Readers[*R]) {
      joinFrom(S, V.Readers[*R], E);
      hold(V.Readers[*R], 0);
      --V.NumReaders;
    }
  hold(V.LastWrite, Threads.atSlot(S).Cur);
}

void AeroDrome::onFork(const Event &E) {
  uint32_t S = slotOf(E.Thread);
  beginUnary(S, E);
  // The child's first transaction starts after the forking transaction;
  // resolve the dependency lazily at the child's first event so the child
  // observes the fork-point transaction's final clock.
  uint32_t C = slotOf(E.child());
  hold(Threads.atSlot(C).PendingParent, Threads.atSlot(S).Cur);
}

void AeroDrome::onJoin(const Event &E) {
  uint32_t C = slotOf(E.child());
  uint32_t S = slotOf(E.Thread);
  const ThreadState &Child = Threads.atSlot(C);
  ClockRef Last = Child.Cur ? Child.Cur : Child.PendingParent;
  beginUnary(S, E);
  joinFrom(S, Last, E);
}

// Layout: the slot table (tids in slot order); then, as one nested blob,
// per slot its handles, block state and frontier row, and the lock and
// variable frontiers with any entry, in ascending id; then the clocks the
// blob names, each a row of one component per slot. Handles are numbered
// in the order the blob names them, so the bytes depend on neither pool
// layout nor table sizes, and restore rebuilds the reference counts that
// decide recycling.
void AeroDrome::serialize(SnapshotWriter &W) const {
  serializeBase(W);
  W.u64(Opts.MaxWarnings);
  const uint32_t N = static_cast<uint32_t>(Threads.size());
  W.u64(N);
  for (uint32_t S = 0; S < N; ++S)
    W.u32(Threads.tidOf(S));

  std::vector<uint32_t> Ids(Clocks.size(), 0);
  std::vector<ClockRef> Order;
  SnapshotWriter F;
  auto ref = [&](ClockRef C) {
    if (C && Ids[C] == 0) {
      Order.push_back(C);
      Ids[C] = static_cast<uint32_t>(Order.size());
    }
    F.u32(Ids[C]);
  };
  auto putRow = [&](SnapshotWriter &Out, const uint64_t *Row) {
    for (uint32_t I = 0; I < N; ++I)
      Out.u64(Row[I]);
  };
  for (uint32_t S = 0; S < N; ++S) {
    const ThreadState &TS = Threads.atSlot(S);
    ref(TS.Cur);
    ref(TS.PendingParent);
    F.u32(TS.Outer);
    F.u64(static_cast<uint64_t>(TS.Depth));
    putRow(F, &Succ[size_t(S) * Stride]);
  }
  F.u64(LastRelease.size() -
        std::count(LastRelease.begin(), LastRelease.end(), 0u));
  for (LockId M = 0; M < LastRelease.size(); ++M)
    if (LastRelease[M]) {
      F.u32(M);
      ref(LastRelease[M]);
    }
  auto hasState = [](const VarState &V) { return V.LastWrite || V.NumReaders; };
  F.u64(std::count_if(Vars.begin(), Vars.end(), hasState));
  for (VarId X = 0; X < Vars.size(); ++X) {
    const VarState &V = Vars[X];
    if (!hasState(V))
      continue;
    F.u32(X);
    ref(V.LastWrite);
    F.u32(V.NumReaders);
    for (uint32_t S = 0; S < V.Readers.size(); ++S)
      if (V.Readers[S]) {
        F.u32(S);
        ref(V.Readers[S]);
      }
  }
  W.blob(F);
  W.u64(Order.size());
  for (ClockRef C : Order) {
    W.u32(Clocks[C].Slot);
    putRow(W, &Rows[size_t(C) * Stride]);
  }

  W.u64(Violations.size());
  for (const AeroViolation &V : Violations) {
    W.u32(V.Thread);
    W.u32(V.Method);
    W.u32(V.Witness);
    W.u8(static_cast<uint8_t>(V.Kind));
    W.u32(V.Target);
  }
  W.u64(ReportedMethods.size());
  for (Label L : ReportedMethods)
    W.u32(L);
  W.boolean(Saw);
  W.u64(NumJoins);
  W.u64(NumTxns);
  W.u64(NumAllocs);
}

bool AeroDrome::deserialize(SnapshotReader &R) {
  if (!deserializeBase(R))
    return false;
  Opts.MaxWarnings = R.u64();
  // Tids are distinct and ids ascend strictly, as serialize() writes them,
  // all below the readers' caps, so a crafted snapshot cannot size the
  // tables. The slot table must be whole: every row below is N wide.
  uint64_t N = R.u64();
  for (uint64_t S = 0; S < N; ++S) {
    Tid T = R.u32();
    if (R.failed() || T >= MaxTraceThreads || slotOf(T) != S)
      return false;
  }
  SnapshotReader F = R.blob();
  std::vector<ClockRef> Objects;
  uint64_t NumObjects = R.u64();
  for (uint64_t I = 0; I < NumObjects && !R.failed(); ++I) {
    uint32_t Owner = R.u32();
    if (Owner >= N)
      return false;
    Objects.push_back(newClock(Owner));
    for (uint64_t J = 0; J < N; ++J)
      row(Objects.back())[J] = R.u64();
  }
  auto ref = [&]() -> ClockRef {
    uint32_t Id = F.u32();
    return Id == 0 || Id > Objects.size() ? 0 : Objects[Id - 1];
  };

  for (uint32_t S = 0; S < N && !F.failed(); ++S) {
    ThreadState &TS = Threads.atSlot(S);
    hold(TS.Cur, ref());
    hold(TS.PendingParent, ref());
    TS.Outer = F.u32();
    TS.Depth = static_cast<int>(F.u64());
    if (TS.Depth < 0 || (TS.Depth > 0 && !TS.Cur))
      return false;
    for (uint32_t I = 0; I < N; ++I)
      succ(S)[I] = F.u64();
  }
  uint64_t NumLocks = F.u64();
  for (uint64_t I = 0; I < NumLocks && !F.failed(); ++I) {
    LockId M = F.u32();
    if (M >= MaxTraceSymbols || M < LastRelease.size())
      return false;
    LastRelease.resize(M + 1, 0);
    hold(LastRelease[M], ref());
  }
  uint64_t NumVars = F.u64();
  for (uint64_t I = 0; I < NumVars && !F.failed(); ++I) {
    VarId X = F.u32();
    if (X >= MaxTraceSymbols || X < Vars.size())
      return false;
    VarState &V = var(X);
    hold(V.LastWrite, ref());
    uint32_t NumReaders = F.u32();
    for (uint32_t J = 0; J < NumReaders && !F.failed(); ++J) {
      // NumReaders counts the non-null entries, so each entry names a clock.
      uint32_t S = F.u32();
      ClockRef C = ref();
      if (S >= N || S < V.Readers.size() || !C)
        return false;
      V.Readers.resize(S + 1, 0);
      ++V.NumReaders;
      hold(V.Readers[S], C);
    }
  }
  if (F.failed())
    return false;

  uint64_t NumViolations = R.u64();
  for (uint64_t I = 0; I < NumViolations && !R.failed(); ++I) {
    AeroViolation V;
    V.Thread = R.u32();
    V.Method = R.u32();
    V.Witness = R.u32();
    V.Kind = static_cast<Op>(R.u8());
    V.Target = R.u32();
    Violations.push_back(V);
  }
  uint64_t NumReported = R.u64();
  for (uint64_t I = 0; I < NumReported && !R.failed(); ++I)
    ReportedMethods.insert(R.u32());
  Saw = R.boolean();
  NumJoins = R.u64();
  NumTxns = R.u64();
  NumAllocs = R.u64();
  return !R.failed();
}

void AeroDrome::onEvent(const Event &E) {
  countEvent();
  switch (E.Kind) {
  case Op::Begin:
    return onBegin(E);
  case Op::End:
    return onEnd(E);
  case Op::Acquire:
    return onAcquire(E);
  case Op::Release:
    return onRelease(E);
  case Op::Read:
    return onRead(E);
  case Op::Write:
    return onWrite(E);
  case Op::Fork:
    return onFork(E);
  case Op::Join:
    return onJoin(E);
  }
}

} // namespace velo
