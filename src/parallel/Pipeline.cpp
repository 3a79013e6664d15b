//===- parallel/Pipeline.cpp - Multi-threaded analysis pipeline -----------===//

#include "parallel/Pipeline.h"

#include "analysis/CrashDump.h"
#include "analysis/Snapshot.h"
#include "support/ParseInt.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace velo {

bool parsePipelineStall(const char *Spec, PipelineStall &Out) {
  if (!Spec)
    return false;
  std::string S(Spec);
  size_t Colon = S.find(':');
  if (Colon == std::string::npos)
    return false;
  const std::string Stage = S.substr(0, Colon);
  uint64_t Micros = 0, Index = 0;
  if (!parseU64(S.c_str() + Colon + 1, Micros) || Micros > UINT32_MAX)
    return false;
  Out = PipelineStall();
  Out.MicrosPerBatch = static_cast<uint32_t>(Micros);
  if (Stage == "reader") {
    Out.At = PipelineStall::Reader;
  } else if (Stage == "sanitizer") {
    Out.At = PipelineStall::Sanitizer;
  } else if (Stage == "filter") {
    Out.At = PipelineStall::Filter;
  } else if (Stage.rfind("worker", 0) == 0) {
    Out.At = PipelineStall::Worker;
    if (Stage.size() > 6) {
      if (!parseU64(Stage.c_str() + 6, Index) || Index > INT_MAX)
        return false;
      Out.WorkerIndex = static_cast<int>(Index);
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
    const std::function<void(CheckpointCut &)> &Fill, bool Void) {
  bool Complete = false;
  {
    std::lock_guard<std::mutex> Lock(T->Mu);
    T->Void = T->Void || Void;
    if (!Void)
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
    if (!Aborted.load() && !T->Void &&
        !(WroteAnyCut && T->Seq <= LastCutSeq)) {
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
  uint64_t NextCkpt = Src.eventCount() + Opts.CheckpointEvery;
  // Participants that deposit into every ticket: the sanitizer, the
  // filter (when reducing), the delivery bookkeeping, and each worker.
  const size_t Depositors = 1 + (Filter ? 1 : 0) + 1 + NumWorkers;

  uint64_t Seq = 0;
  auto Fresh = [&]() {
    auto B = std::make_unique<EventBatch>();
    B->Seq = ++Seq;
    return B;
  };
  auto Finalize = [&](BatchPtr &B) {
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
      Finalize(Cur);
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
  Finalize(Cur);
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
  const bool Lenient = San.mode() == SanitizeMode::Lenient;
  // Log the repairs one input event made (lenient mode only: strict mode
  // repairs nothing), keyed by the sanitized events before its output.
  auto LogRepairs = [&](EventBatch &Out, uint64_t Was, uint64_t Key) {
    if (Lenient && San.repairs().total() != Was)
      Out.RepairsAfter.emplace_back(Key, San.repairs());
  };
  while (!Failed && Q1.pop(B)) {
    maybeStall(PipelineStall::Sanitizer);
    auto Out = std::make_unique<EventBatch>();
    Out->Seq = B->Seq;
    Out->Symbols = std::move(B->Symbols);
    Out->Ticket = std::move(B->Ticket);
    Out->RepairsBefore = San.repairs();
    for (size_t I = 0; I < B->Events.size(); ++I) {
      Scratch.clear();
      const uint64_t Was = Lenient ? San.repairs().total() : 0;
      const uint64_t Key = SanOrdinal;
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
      LogRepairs(*Out, Was, Key);
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
    // blocks still open). A stop may still come in an earlier batch; the
    // stop owner then ignores this one, repairs included.
    auto Out = std::make_unique<EventBatch>();
    Out->Seq = ~0ull; // after every reader batch
    Out->RepairsBefore = San.repairs();
    Scratch.clear();
    San.finish(Scratch);
    LogRepairs(*Out, Out->RepairsBefore.total(), SanOrdinal);
    if (!Stop.load() && !Scratch.empty()) {
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
    Out->RepairsBefore = B->RepairsBefore;
    Out->RepairsAfter = std::move(B->RepairsAfter);
    for (size_t I = 0; I < B->Events.size(); ++I)
      if (Filter->keep(B->Events[I])) {
        Out->add(B->Events[I], B->Lines[I]);
        Out->Ordinals.push_back(I < B->Ordinals.size() ? B->Ordinals[I] : 0);
        Out->FilteredAfter.push_back(Filter->stats());
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
  B->Before = Seen;
  for (size_t I = 0; I < B->Events.size(); ++I) {
    Seen.add(B->Events[I]);
    if (Opts.NoteCrashEvents)
      crashdump::noteEvent(B->Events[I], Seen.Events, B->Lines[I]);
    if (Opts.CrashAt != 0 && Seen.Events - Opts.StartEvents >= Opts.CrashAt)
      Crash = true;
  }
  if (B->Ticket) {
    deposit(B->Ticket, [this](CheckpointCut &Cut) {
      Cut.EventsSeen = Seen.Events;
      Cut.ThreadsSeen = Seen.Threads;
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

void ParallelPipeline::takeStop(const EventBatch &B, size_t EI) {
  StopTaken = true;
  StopSeen = B.Before;
  for (size_t I = 0; I <= EI; ++I)
    StopSeen.add(B.Events[I]);
  StopOrdinal = B.Ordinals[EI];
  StopRepairs = B.RepairsBefore;
  for (const auto &[Key, Counts] : B.RepairsAfter)
    if (Key < StopOrdinal)
      StopRepairs = Counts;
  if (Filter)
    StopReduced = B.FilteredAfter[EI];
  Stop.store(true);
}

void ParallelPipeline::workerMain(size_t Index) {
  Worker &W = Workers[Index];
  for (size_t Idx : W.Owned)
    Delivery[Idx]->rebindSymbols(W.Replica);
  const bool OwnsProbe =
      Opts.StopProbe &&
      std::find_if(W.Owned.begin(), W.Owned.end(), [&](size_t Idx) {
        return Delivery[Idx] == Opts.StopOwner;
      }) != W.Owned.end();

  SharedBatch B;
  bool Stopped = false;
  while (W.Ring->pop(B)) {
    maybeStall(PipelineStall::Worker, static_cast<int>(Index));
    B->Symbols.applyTo(W.Replica);
    for (size_t EI = 0; !Stopped && EI < B->Events.size(); ++EI) {
      const Event &E = B->Events[EI];
      const uint64_t Ord = EI < B->Ordinals.size() ? B->Ordinals[EI] : 0;
      for (size_t Idx : W.Owned) {
        Delivery[Idx]->setEventOrdinal(Ord);
        Delivery[Idx]->onEvent(E);
      }
      if (OwnsProbe && Opts.StopProbe()) {
        takeStop(*B, EI);
        Stopped = true;
      }
    }
    if (B->Ticket) {
      auto Ticket = B->Ticket;
      deposit(
          Ticket,
          [&](CheckpointCut &Cut) {
            for (size_t Idx : W.Owned) {
              SnapshotWriter BW;
              Delivery[Idx]->serialize(BW);
              Cut.Backends[Idx].second = BW.payload();
            }
          },
          Stopped);
    }
    B.reset();
  }
  if (!Aborted.load() && !ParseFailed.load() && !SanFailed.load())
    for (size_t Idx : W.Owned)
      Delivery[Idx]->endAnalysis();
}

//===----------------------------------------------------------------------===//
// Orchestration.
//===----------------------------------------------------------------------===//

PipelineResult ParallelPipeline::run() {
  Seen = {Opts.StartEvents, Opts.StartThreads};
  SanOrdinal = Opts.StartOrdinal;

  // Deal the back-ends to the workers round-robin in delivery order.
  NumWorkers = static_cast<unsigned>(std::clamp<size_t>(
      Opts.Workers != 0 ? Opts.Workers : Delivery.size(), 1,
      std::max<size_t>(Delivery.size(), 1)));
  Workers.clear();
  Workers.resize(NumWorkers);
  for (size_t I = 0; I < Delivery.size(); ++I)
    Workers[I % NumWorkers].Owned.push_back(I);
  for (Worker &W : Workers) {
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

  // After a stop the stages upstream of the stop owner ran ahead; count
  // as of the stop event, as the sequential loop does.
  PipelineResult R;
  const DeliveryCount &Count = StopTaken ? StopSeen : Seen;
  R.EventsSeen = Count.Events;
  R.ThreadsSeen = Count.Threads;
  R.SanitizedEvents = StopTaken ? StopOrdinal : SanOrdinal;
  R.Repairs = StopTaken ? StopRepairs : San.repairs();
  if (Filter)
    R.Reduced = StopTaken ? StopReduced : Filter->stats();
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
