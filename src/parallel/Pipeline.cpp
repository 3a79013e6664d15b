//===- parallel/Pipeline.cpp - Multi-threaded analysis pipeline -----------===//

#include "parallel/Pipeline.h"

#include "analysis/CrashDump.h"
#include "analysis/Snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace velo {

bool parsePipelineStall(const char *Spec, PipelineStall &Out) {
  if (!Spec)
    return false;
  std::string S(Spec);
  size_t Colon = S.find(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 >= S.size())
    return false;
  std::string Stage = S.substr(0, Colon);
  const std::string Micros = S.substr(Colon + 1);
  for (char C : Micros)
    if (C < '0' || C > '9')
      return false;
  Out = PipelineStall();
  Out.MicrosPerBatch = static_cast<uint32_t>(std::strtoul(Micros.c_str(),
                                                          nullptr, 10));
  if (Stage == "reader") {
    Out.At = PipelineStall::Reader;
  } else if (Stage == "sanitizer") {
    Out.At = PipelineStall::Sanitizer;
  } else if (Stage == "filter") {
    Out.At = PipelineStall::Filter;
  } else if (Stage.rfind("worker", 0) == 0) {
    Out.At = PipelineStall::Worker;
    std::string Idx = Stage.substr(6);
    if (!Idx.empty()) {
      for (char C : Idx)
        if (C < '0' || C > '9')
          return false;
      Out.WorkerIndex = static_cast<int>(std::strtoul(Idx.c_str(), nullptr,
                                                      10));
    }
  } else {
    return false;
  }
  return true;
}

ParallelPipeline::ParallelPipeline(TraceSource &Src, SymbolTable &Syms,
                                   TraceSanitizer &San,
                                   ReductionFilter *Filter,
                                   std::vector<Backend *> Delivery,
                                   ParallelOptions Opts)
    : Src(Src), Syms(Syms), San(San), Filter(Filter),
      Delivery(std::move(Delivery)), Opts(std::move(Opts)),
      Q1(this->Opts.RingDepth), QF(this->Opts.RingDepth) {
  if (this->Opts.BatchEvents == 0)
    this->Opts.BatchEvents = 1;
}

void ParallelPipeline::maybeStall(int Stage, int WorkerIndex) const {
  const PipelineStall &St = Opts.Stall;
  if (St.At != Stage || St.MicrosPerBatch == 0)
    return;
  if (Stage == PipelineStall::Worker && St.WorkerIndex >= 0 &&
      St.WorkerIndex != WorkerIndex)
    return;
  std::this_thread::sleep_for(std::chrono::microseconds(St.MicrosPerBatch));
  if (Stage == PipelineStall::Reader)
    awaitDrainedDownstream();
}

void ParallelPipeline::awaitDrainedDownstream() const {
  auto Drained = [this] {
    if (!Q1.consumerParked() || (Filter && !QF.consumerParked()))
      return false;
    for (const Worker &W : Workers)
      if (!W.Ring->consumerParked())
        return false;
    return true;
  };
  while (!Drained() && !Stop.load() && !Aborted.load())
    std::this_thread::sleep_for(std::chrono::microseconds(20));
}

void ParallelPipeline::abortPipeline() {
  Aborted.store(true);
  Q1.abortAll();
  QF.abortAll();
  for (Worker &W : Workers)
    W.Ring->abortAll();
}

void ParallelPipeline::deposit(
    const std::shared_ptr<CheckpointTicket> &T,
    const std::function<void(CheckpointCut &)> &Fill) {
  bool Complete = false;
  {
    std::lock_guard<std::mutex> Lock(T->Mu);
    Fill(T->Cut);
    Complete = --T->Remaining == 0;
  }
  if (!Complete)
    return;
  // Ticket completions are naturally ordered (every participant deposits
  // in batch order, so the last deposit for cut k precedes the last for
  // cut k+1); the sequence guard below is cheap insurance, not load-
  // bearing.
  {
    std::lock_guard<std::mutex> Lock(CkptMu);
    if (!Aborted.load() && !(WroteAnyCut && T->Seq <= LastCutSeq)) {
      std::string Error;
      if (Opts.CheckpointSink(T->Cut, Error)) {
        LastCutSeq = T->Seq;
        WroteAnyCut = true;
      } else {
        {
          std::lock_guard<std::mutex> ELock(ErrMu);
          if (CkptErr.empty())
            CkptErr = Error;
        }
        abortPipeline();
      }
    }
  }
  PendingCuts.fetch_sub(1);
}

//===----------------------------------------------------------------------===//
// Reader stage: decode records into batches, record symbol deltas, tag
// checkpoint boundaries. Runs on the thread that called run().
//===----------------------------------------------------------------------===//

void ParallelPipeline::readerMain() {
  // Baseline interner sizes for delta extraction.
  size_t VarsN = Syms.Vars.size();
  size_t LocksN = Syms.Locks.size();
  size_t LabelsN = Syms.Labels.size();
  auto TakeDelta = [&](SymbolDelta &D) {
    for (size_t I = VarsN; I < Syms.Vars.size(); ++I)
      D.Vars.push_back(Syms.Vars.name(static_cast<uint32_t>(I)));
    for (size_t I = LocksN; I < Syms.Locks.size(); ++I)
      D.Locks.push_back(Syms.Locks.name(static_cast<uint32_t>(I)));
    for (size_t I = LabelsN; I < Syms.Labels.size(); ++I)
      D.Labels.push_back(Syms.Labels.name(static_cast<uint32_t>(I)));
    VarsN = Syms.Vars.size();
    LocksN = Syms.Locks.size();
    LabelsN = Syms.Labels.size();
  };

  const bool Checkpointing = Opts.CheckpointSink && Opts.CheckpointEvery != 0;
  uint64_t NextCkpt = Opts.StartEvents + Opts.CheckpointEvery;
  // Participants that deposit into every ticket: the sanitizer, the
  // filter (when reducing), the delivery bookkeeping, and each worker.
  const size_t Depositors = 1 + (Filter ? 1 : 0) + 1 + NumWorkers;

  uint64_t Seq = 0;
  auto Fresh = [&]() {
    auto B = std::make_unique<EventBatch>();
    B->Seq = ++Seq;
    return B;
  };
  auto Finalize = [&](BatchPtr &B, bool AtEof) {
    TakeDelta(B->Symbols);
    if (Checkpointing && !ParseFailed.load() && !Stop.load() &&
        Src.eventCount() >= NextCkpt && !B->Events.empty()) {
      // The batch's last record is fully parsed, so the source position
      // is a clean resume boundary when tell() succeeds. Text: any line
      // boundary, but tell() fails once the scanner has met the end of
      // the input (the run is about to finish anyway). Binary: only frame
      // boundaries; mid-frame boundaries simply defer the cut to the
      // frame's end.
      uint64_t Off = 0;
      if (Src.tell(Off)) {
        auto T = std::make_shared<CheckpointTicket>();
        T->Seq = B->Seq;
        T->Remaining = Depositors;
        T->Cut.ByteOffset = Off;
        T->Cut.LineNo = Src.lineNo();
        SnapshotWriter SymsBlob;
        serializeSymbols(SymsBlob, Syms);
        T->Cut.SymsBlob = SymsBlob.payload();
        for (const Backend *BE : Delivery)
          T->Cut.Backends.emplace_back(BE->name(), std::string());
        B->Ticket = std::move(T);
        NextCkpt = Src.eventCount() + Opts.CheckpointEvery;
      }
    }
    (void)AtEof;
  };

  BatchPtr Cur = Fresh();
  Event E;
  while (!Stop.load() && Src.next(E)) {
    Cur->add(E, static_cast<uint32_t>(Src.lineNo()));
    // A checkpoint boundary ends the batch early: cuts can only land on
    // batch boundaries, so the cadence must not be quantized up to
    // BatchEvents (a batch larger than the whole trace would otherwise
    // push the only cut to EOF, where tell() no longer works). It only
    // fires where the source can actually checkpoint (tell succeeds), so
    // a binary trace is not shredded into one-event batches between a
    // due checkpoint and the frame boundary that can host it. A frame
    // end also closes the batch: binary batches stay frame-aligned, so
    // the events hand straight off from the mapped frame.
    uint64_t CkptOff = 0;
    const bool CkptBoundary = Checkpointing && !Cur->Events.empty() &&
                              Src.eventCount() >= NextCkpt &&
                              Src.tell(CkptOff);
    if (Cur->Events.size() >= Opts.BatchEvents || CkptBoundary ||
        Src.endOfFrame()) {
      Finalize(Cur, /*AtEof=*/false);
      maybeStall(PipelineStall::Reader);
      ++Batches;
      if (!Q1.push(std::move(Cur)))
        return; // aborted elsewhere
      Cur = Fresh();
    }
  }
  if (Src.failed()) {
    {
      std::lock_guard<std::mutex> Lock(ErrMu);
      ParseErr = Src.error();
    }
    // Flag before close(): the sanitizer checks it after draining, and
    // the ring's mutex orders the two.
    ParseFailed.store(true);
  }
  // Events parsed before a malformed line still reach the back-ends,
  // exactly as in the sequential loop.
  Finalize(Cur, /*AtEof=*/true);
  if (!Cur->Events.empty() || !Cur->Symbols.empty()) {
    maybeStall(PipelineStall::Reader);
    ++Batches;
    Q1.push(std::move(Cur));
  }
  Q1.close();
}

//===----------------------------------------------------------------------===//
// Sanitizer stage.
//===----------------------------------------------------------------------===//

void ParallelPipeline::sanitizerMain() {
  std::vector<Event> Scratch;
  BatchPtr B;
  bool Failed = false;
  while (!Failed && Q1.pop(B)) {
    maybeStall(PipelineStall::Sanitizer);
    auto Out = std::make_unique<EventBatch>();
    Out->Seq = B->Seq;
    Out->Symbols = std::move(B->Symbols);
    Out->Ticket = std::move(B->Ticket);
    for (size_t I = 0; I < B->Events.size(); ++I) {
      Scratch.clear();
      if (!San.push(B->Events[I], Scratch, B->Lines[I])) {
        {
          std::lock_guard<std::mutex> Lock(ErrMu);
          SanErr = San.error();
        }
        SanFailed.store(true);
        Stop.store(true); // reader quits at its next event
        Failed = true;
        break;
      }
      for (const Event &E : Scratch) {
        Out->add(E, B->Lines[I]);
        Out->Ordinals.push_back(++SanOrdinal);
      }
    }
    if (Failed) {
      // Deliver the events accepted before the rejection — the sequential
      // loop fed each of them to the back-ends before it saw the bad one.
      // The batch's checkpoint ticket (if any) is dropped: its cut
      // position lies past the failure, where the sequential run would
      // never have snapshotted.
      Out->Ticket.reset();
      if (Filter)
        QF.push(std::move(Out));
      else
        deliver(std::move(Out));
      // Drain and discard whatever the reader still produces; this also
      // unblocks a reader stuck on a full ring so it can see Stop.
      while (Q1.pop(B)) {
      }
      break;
    }
    if (Out->Ticket)
      deposit(Out->Ticket, [this](CheckpointCut &Cut) {
        SnapshotWriter W;
        San.serialize(W);
        Cut.SanBlob = W.payload();
      });
    if (Filter) {
      if (!QF.push(std::move(Out)))
        break;
    } else if (!deliver(std::move(Out))) {
      break;
    }
  }
  if (!Aborted.load() && !SanFailed.load() && !ParseFailed.load()) {
    // End of input: flush the sanitizer (synthesized `end` events for
    // blocks still open). On a governor stop the sequential loop also
    // runs finish() but discards its output; match that.
    Scratch.clear();
    San.finish(Scratch);
    if (!Stop.load() && !Scratch.empty()) {
      auto Out = std::make_unique<EventBatch>();
      Out->Seq = ~0ull; // after every reader batch
      for (const Event &E : Scratch) {
        Out->add(E, 0);
        Out->Ordinals.push_back(++SanOrdinal);
      }
      if (Filter)
        QF.push(std::move(Out));
      else
        deliver(std::move(Out));
    }
  }
  if (Filter) {
    QF.close();
  } else {
    for (Worker &W : Workers)
      W.Ring->close();
  }
}

//===----------------------------------------------------------------------===//
// Reduction-filter stage (present only under --reduce).
//===----------------------------------------------------------------------===//

void ParallelPipeline::filterMain() {
  BatchPtr B;
  while (QF.pop(B)) {
    maybeStall(PipelineStall::Filter);
    auto Out = std::make_unique<EventBatch>();
    Out->Seq = B->Seq;
    Out->Symbols = std::move(B->Symbols);
    Out->Ticket = std::move(B->Ticket);
    for (size_t I = 0; I < B->Events.size(); ++I)
      if (Filter->keep(B->Events[I])) {
        Out->add(B->Events[I], B->Lines[I]);
        Out->Ordinals.push_back(I < B->Ordinals.size() ? B->Ordinals[I] : 0);
      }
    if (Out->Ticket)
      deposit(Out->Ticket, [this](CheckpointCut &Cut) {
        SnapshotWriter W;
        Filter->serialize(W);
        Cut.FilterBlob = W.payload();
      });
    if (!deliver(std::move(Out)))
      break;
  }
  for (Worker &W : Workers)
    W.Ring->close();
}

//===----------------------------------------------------------------------===//
// Delivery bookkeeping + fan-out broadcast (runs on the last sequential
// stage's thread).
//===----------------------------------------------------------------------===//

bool ParallelPipeline::deliver(BatchPtr B) {
  bool Crash = false;
  for (size_t I = 0; I < B->Events.size(); ++I) {
    const Event &E = B->Events[I];
    ++EventsSeen;
    if (Opts.NoteCrashEvents)
      crashdump::noteEvent(E, EventsSeen, B->Lines[I]);
    if (E.Thread >= ThreadsSeen)
      ThreadsSeen = E.Thread + 1;
    if ((E.Kind == Op::Fork || E.Kind == Op::Join) &&
        E.child() >= ThreadsSeen)
      ThreadsSeen = E.child() + 1;
    if (Opts.CrashAt != 0 && EventsSeen - Opts.StartEvents >= Opts.CrashAt)
      Crash = true;
  }
  if (B->Ticket) {
    deposit(B->Ticket, [this](CheckpointCut &Cut) {
      Cut.EventsSeen = EventsSeen;
      Cut.ThreadsSeen = ThreadsSeen;
    });
    // Count the cut as in flight before any worker can complete it.
    PendingCuts.fetch_add(1);
  }
  SharedBatch SB(B.release());
  for (Worker &W : Workers)
    if (!W.Ring->push(SB))
      return false;
  if (Crash) {
    // Test hook: simulate an analysis crash at a deterministic point.
    // Let the cuts already fanned out complete first: the sequential loop
    // writes its checkpoints synchronously before reaching the crash
    // event, so a supervised restart must find the same forward progress
    // here (the workers only need to drain their rings; nothing blocks
    // on this thread).
    while (PendingCuts.load() != 0 && !Aborted.load())
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::fflush(nullptr);
    ::raise(Opts.CrashSignal);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Worker threads: apply symbol deltas to the private replica, drive the
// owned back-ends, deposit checkpoint state, poll the stop probe.
//===----------------------------------------------------------------------===//

void ParallelPipeline::workerMain(size_t Index) {
  Worker &W = Workers[Index];
  for (size_t Idx : W.Owned)
    Delivery[Idx]->rebindSymbols(W.Replica);
  std::vector<size_t> Live = W.Owned;
  const bool OwnsProbe =
      Opts.StopProbe && Opts.StopOwner &&
      std::find_if(W.Owned.begin(), W.Owned.end(), [&](size_t Idx) {
        return Delivery[Idx] == Opts.StopOwner;
      }) != W.Owned.end();

  SharedBatch B;
  while (W.Ring->pop(B)) {
    maybeStall(PipelineStall::Worker, static_cast<int>(Index));
    B->Symbols.applyTo(W.Replica);
    for (size_t EI = 0; EI < B->Events.size(); ++EI) {
      const Event &E = B->Events[EI];
      const uint64_t Ord = EI < B->Ordinals.size() ? B->Ordinals[EI] : 0;
      for (size_t Idx : Live) {
        Delivery[Idx]->setEventOrdinal(Ord);
        Delivery[Idx]->onEvent(E);
      }
      if (Opts.KeepDelivering)
        Live.erase(std::remove_if(Live.begin(), Live.end(),
                                  [&](size_t Idx) {
                                    return !Opts.KeepDelivering(
                                        Delivery[Idx]);
                                  }),
                   Live.end());
    }
    if (B->Ticket) {
      auto Ticket = B->Ticket;
      deposit(Ticket, [&](CheckpointCut &Cut) {
        for (size_t Idx : W.Owned) {
          if (std::find(Live.begin(), Live.end(), Idx) == Live.end())
            continue; // dropped back-end: blob stays empty
          SnapshotWriter BW;
          Delivery[Idx]->serialize(BW);
          Cut.Backends[Idx].second = BW.payload();
        }
      });
    }
    if (OwnsProbe && !Stop.load() && Opts.StopProbe())
      Stop.store(true);
    B.reset();
  }
  if (!Aborted.load() && !ParseFailed.load() && !SanFailed.load())
    for (size_t Idx : Live)
      Delivery[Idx]->endAnalysis();
}

//===----------------------------------------------------------------------===//
// Orchestration.
//===----------------------------------------------------------------------===//

PipelineResult ParallelPipeline::run() {
  EventsSeen = Opts.StartEvents;
  ThreadsSeen = Opts.StartThreads;
  SanOrdinal = Opts.StartOrdinal;

  // Group co-located back-ends, then deal groups to workers round-robin
  // in delivery order.
  std::vector<size_t> Group(Delivery.size());
  for (size_t I = 0; I < Group.size(); ++I)
    Group[I] = I;
  for (const auto &Pair : Opts.Colocate) {
    size_t A = Delivery.size(), B = Delivery.size();
    for (size_t I = 0; I < Delivery.size(); ++I) {
      if (Delivery[I] == Pair.first)
        A = I;
      if (Delivery[I] == Pair.second)
        B = I;
    }
    if (A == Delivery.size() || B == Delivery.size())
      continue;
    size_t From = Group[B], To = Group[A];
    for (size_t &G : Group)
      if (G == From)
        G = To;
  }
  std::vector<size_t> GroupOrder; // distinct group ids, first-seen order
  for (size_t G : Group)
    if (std::find(GroupOrder.begin(), GroupOrder.end(), G) ==
        GroupOrder.end())
      GroupOrder.push_back(G);

  NumWorkers = Opts.Workers != 0
                   ? Opts.Workers
                   : static_cast<unsigned>(GroupOrder.size());
  if (NumWorkers > GroupOrder.size())
    NumWorkers = static_cast<unsigned>(GroupOrder.size());
  if (NumWorkers == 0)
    NumWorkers = 1;

  Workers.clear();
  Workers.resize(NumWorkers);
  for (size_t GI = 0; GI < GroupOrder.size(); ++GI)
    for (size_t I = 0; I < Delivery.size(); ++I)
      if (Group[I] == GroupOrder[GI])
        Workers[GI % NumWorkers].Owned.push_back(I);
  for (Worker &W : Workers) {
    std::sort(W.Owned.begin(), W.Owned.end()); // keep delivery order
    // Replicas are copied before any thread starts, so the reader's
    // interning never races a back-end's name lookup.
    W.Replica = Syms;
    W.Ring = std::make_unique<BoundedRing<SharedBatch>>(Opts.RingDepth);
  }

  std::vector<std::thread> Threads;
  for (size_t I = 0; I < NumWorkers; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
  if (Filter)
    Threads.emplace_back([this] { filterMain(); });
  Threads.emplace_back([this] { sanitizerMain(); });
  readerMain();
  for (std::thread &T : Threads)
    T.join();

  PipelineResult R;
  R.EventsSeen = EventsSeen;
  R.ThreadsSeen = ThreadsSeen;
  R.SanitizedEvents = SanOrdinal;
  R.Stopped = Stop.load();
  R.Batches = Batches;
  R.ReaderRingHigh = Q1.highWater();
  for (Worker &W : Workers)
    R.WorkerRingHigh = std::max(R.WorkerRingHigh, W.Ring->highWater());
  // Error precedence reconstructs what the sequential loop would have hit
  // first in stream order: a failed checkpoint write sits at a boundary
  // before any error recorded downstream of it (the participants past
  // that boundary deposited cleanly), and when both the reader and the
  // sanitizer failed, the sanitizer's position is always earlier (events
  // past a malformed line are never parsed, so a strict rejection can
  // only be at or before it).
  std::lock_guard<std::mutex> Lock(ErrMu);
  if (!CkptErr.empty()) {
    R.Err = PipelineError::Checkpoint;
    R.Detail = CkptErr;
  } else if (!SanErr.empty()) {
    R.Err = PipelineError::Sanitize;
    R.Detail = SanErr;
  } else if (!ParseErr.empty()) {
    R.Err = PipelineError::Parse;
    R.Detail = ParseErr;
  }
  return R;
}

} // namespace velo
