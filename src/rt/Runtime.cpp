//===- rt/Runtime.cpp - Monitored-execution runtime -----------------------===//

#include "rt/Runtime.h"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace velo {

namespace {

/// Usable stack of every Deterministic-mode thread. Sized so the whole
/// suite passes under ASan+UBSan, whose frames are larger; MAP_NORESERVE
/// makes only the pages a thread touches cost memory.
constexpr size_t FiberStackBytes = size_t(1) << 20;

/// The Runtime whose Deterministic run occupies this OS thread: a fiber's
/// entry function finds its host here.
thread_local Runtime *FiberHost = nullptr;

} // namespace

/// One Deterministic-mode thread's execution context: a ucontext and an
/// mmap'd stack with a PROT_NONE guard page below it. The context of the
/// OS thread that called run() is a Fiber with no mapping of its own; its
/// stack bounds are learned (under ASan) on the first switch away from it.
struct Runtime::Fiber {
  ucontext_t Ctx{};
  void *Map = nullptr; ///< guard page + stack
  size_t MapBytes = 0;
  void *Stack = nullptr; ///< lowest usable stack byte
  size_t StackBytes = 0;
  void *FakeStack = nullptr; ///< ASan's fake stack while switched out
  void *Tsan = nullptr;      ///< TSan's fiber for this context

  Fiber() = default;
  Fiber(const Fiber &) = delete;
  Fiber &operator=(const Fiber &) = delete;
  /// Runs in ~Runtime, after the fiber has switched away for the last
  /// time: never on the stack it frees.
  ~Fiber() {
    if (!Map)
      return; // run()'s context owns nothing
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(Tsan);
#endif
#if defined(__SANITIZE_ADDRESS__)
    // A finished thread never unwound its last frames; clear their
    // redzones so a later mapping at this address starts unpoisoned.
    ASAN_UNPOISON_MEMORY_REGION(Stack, StackBytes);
#endif
    ::munmap(Map, MapBytes);
  }
};

//===----------------------------------------------------------------------===//
// MonitoredThread
//===----------------------------------------------------------------------===//

int &MonitoredThread::heldCount(LockId M) {
  for (auto &[Id, Count] : HeldCounts)
    if (Id == M)
      return Count;
  HeldCounts.push_back({M, 0});
  return HeldCounts.back().second;
}

int64_t MonitoredThread::read(SharedVar &X) {
  RT.schedPoint(Id);
  int64_t V = X.Value.load(std::memory_order_seq_cst);
  RT.emit(Event::read(Id, X.Id));
  return V;
}

void MonitoredThread::write(SharedVar &X, int64_t V) {
  RT.schedPoint(Id);
  X.Value.store(V, std::memory_order_seq_cst);
  RT.emit(Event::write(Id, X.Id));
}

double MonitoredThread::readDouble(SharedVar &X) {
  int64_t Bits = read(X);
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

void MonitoredThread::writeDouble(SharedVar &X, double V) {
  int64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  write(X, Bits);
}

void MonitoredThread::lockAcquire(LockVar &M) {
  int &Count = heldCount(M.Id);
  if (Count > 0) {
    ++Count; // re-entrant: filtered from the event stream
    return;
  }
  RT.schedPoint(Id);
  if (RT.deterministic()) {
    if (M.Held) {
      Runtime::ThreadRec &Rec = RT.ThreadTable[Id];
      Rec.State = Runtime::ThreadState::Blocked;
      Rec.Unblocked = [&M] { return !M.Held; };
      RT.reschedule(Rec);
    }
    assert(!M.Held && "scheduled while lock still held");
    M.Held = true;
    M.Holder = Id;
  } else {
    M.RealMu.lock();
    M.Holder = Id;
  }
  Count = 1;
  RT.emit(Event::acquire(Id, M.Id));
}

void MonitoredThread::lockRelease(LockVar &M) {
  int &Count = heldCount(M.Id);
  if (Count <= 0) {
    std::fprintf(stderr, "velodrome rt: T%u releases un-held lock\n", Id);
    std::abort();
  }
  if (--Count > 0)
    return; // re-entrant: filtered
  RT.schedPoint(Id);
  if (RT.deterministic()) {
    assert(M.Held && M.Holder == Id && "release by non-holder");
    M.Held = false;
    RT.emit(Event::release(Id, M.Id));
    return;
  }
  // Emit before the real unlock so the release event precedes the next
  // holder's acquire event in the linearized stream.
  RT.emit(Event::release(Id, M.Id));
  M.RealMu.unlock();
}

void MonitoredThread::beginAtomic(const std::string &MethodName) {
  beginAtomic(RT.label(MethodName));
}

void MonitoredThread::beginAtomic(Label L) {
  ++BlockDepth;
  bool Emit = !RT.isExcluded(L);
  EmitStack.push_back(Emit);
  if (!Emit)
    return; // excluded method: contents run non-transactionally
  RT.schedPoint(Id);
  RT.emit(Event::begin(Id, L));
}

void MonitoredThread::endAtomic() {
  assert(BlockDepth > 0 && "endAtomic without beginAtomic");
  --BlockDepth;
  bool Emitted = EmitStack.back();
  EmitStack.pop_back();
  if (!Emitted)
    return;
  RT.schedPoint(Id);
  RT.emit(Event::end(Id));
}

Tid MonitoredThread::fork(std::function<void(MonitoredThread &)> Body) {
  RT.schedPoint(Id);
  Tid Child = RT.spawnThread(std::move(Body), Id);
  return Child;
}

void MonitoredThread::join(Tid Child) {
  RT.schedPoint(Id);
  if (RT.deterministic()) {
    Runtime::ThreadRec &ChildRec = RT.ThreadTable[Child];
    if (ChildRec.State != Runtime::ThreadState::Finished) {
      Runtime::ThreadRec &Rec = RT.ThreadTable[Id];
      Rec.State = Runtime::ThreadState::Blocked;
      Rec.Unblocked = [&ChildRec] {
        return ChildRec.State == Runtime::ThreadState::Finished;
      };
      RT.reschedule(Rec);
    }
  } else {
    std::unique_lock<std::mutex> L(RT.SchedMu);
    Runtime::ThreadRec &ChildRec = RT.ThreadTable[Child];
    ChildRec.Cv.wait(L, [&ChildRec] {
      return ChildRec.State == Runtime::ThreadState::Finished;
    });
  }
  RT.emit(Event::join(Id, Child));
}

void MonitoredThread::yield() {
  if (RT.deterministic())
    RT.schedPoint(Id);
  else
    std::this_thread::yield();
}

//===----------------------------------------------------------------------===//
// Runtime
//===----------------------------------------------------------------------===//

Runtime::Runtime(RuntimeOptions Opts, std::vector<Backend *> Backends)
    : Opts(Opts), Backends(std::move(Backends)),
      SchedRng(Opts.SchedulerSeed) {}

Runtime::~Runtime() {
  // Fibers unmap their stacks as the table goes; OS threads join first.
  for (ThreadRec &Rec : ThreadTable)
    if (Rec.Worker.joinable())
      Rec.Worker.join();
}

SharedVar &Runtime::var(const std::string &Name) {
  std::lock_guard<std::mutex> G(RegistryMu);
  uint32_t Id;
  if (Symbols.Vars.lookup(Name, Id))
    return Vars[Id];
  Id = Symbols.Vars.intern(Name);
  Vars.emplace_back(Id);
  return Vars.back();
}

LockVar &Runtime::lock(const std::string &Name) {
  std::lock_guard<std::mutex> G(RegistryMu);
  uint32_t Id;
  if (Symbols.Locks.lookup(Name, Id))
    return Locks[Id];
  Id = Symbols.Locks.intern(Name);
  Locks.emplace_back(Id);
  return Locks.back();
}

Label Runtime::label(const std::string &MethodName) {
  std::lock_guard<std::mutex> G(RegistryMu);
  return Symbols.Labels.intern(MethodName);
}

void Runtime::emit(const Event &E) {
  EventsEmitted.fetch_add(1, std::memory_order_relaxed);
  if (!emitting())
    return;
  if (deterministic()) {
    // Exactly one monitored thread runs at a time: no dispatch lock needed.
    for (Backend *B : Backends)
      B->onEvent(E);
    if (Opts.Adversarial && Guide && Guide->lastEventSuspicious() &&
        stallPolicyAllows(E))
      ThreadTable[E.Thread].Stall = Opts.AdversarialStall;
    return;
  }
  std::lock_guard<std::mutex> G(EmitMu);
  for (Backend *B : Backends)
    B->onEvent(E);
}

bool Runtime::stallPolicyAllows(const Event &E) const {
  switch (Opts.Policy) {
  case StallPolicy::AllOps:
    return true;
  case StallPolicy::WritesOnly:
    return E.Kind == Op::Write;
  case StallPolicy::ReadsOnly:
    return E.Kind == Op::Read;
  case StallPolicy::SpareMainOps:
    return E.Thread != 0;
  }
  return true;
}

Runtime::ThreadRec *Runtime::scheduleNext() {
  // Candidates: ready threads and blocked threads whose predicate holds.
  Runnable.clear();
  Stalled.clear();
  for (ThreadRec &Rec : ThreadTable) {
    bool Can = Rec.State == ThreadState::Ready ||
               (Rec.State == ThreadState::Blocked && Rec.Unblocked &&
                Rec.Unblocked());
    if (!Can)
      continue;
    if (Rec.Stall > 0) {
      --Rec.Stall; // stalls tick down per scheduling decision
      Stalled.push_back(&Rec);
    } else {
      Runnable.push_back(&Rec);
    }
  }

  std::vector<ThreadRec *> &Pool = Runnable.empty() ? Stalled : Runnable;
  if (Pool.empty()) {
    if (LiveThreads == 0)
      return nullptr; // clean shutdown: the last fiber returns to run()
    std::fprintf(stderr,
                 "velodrome rt: deadlock — %zu live threads, none runnable\n",
                 LiveThreads);
    std::abort();
  }
  size_t Choice = Picker ? Picker(Pool.size())
                         : static_cast<size_t>(SchedRng.below(Pool.size()));
  assert(Choice < Pool.size() && "picker returned an out-of-range index");
  ThreadRec *Next = Pool[Choice];
  if (Next->Stall > 0)
    Next->Stall = 0; // forced to run: stop stalling it
  Next->State = ThreadState::Running;
  Next->Unblocked = nullptr;
  Current = Next->Id;
  return Next;
}

void Runtime::reschedule(ThreadRec &Self) {
  ThreadRec *Next = scheduleNext();
  assert(Next && "Self is live, so a thread is scheduled");
  if (Next != &Self)
    switchFiber(*Self.Context, *Next->Context, /*FromFinished=*/false);
}

void Runtime::switchFiber(Fiber &From, Fiber &To,
                          [[maybe_unused]] bool FromFinished) {
#if defined(__SANITIZE_ADDRESS__)
  // A null save slot tells ASan the leaving fiber is gone for good.
  __sanitizer_start_switch_fiber(FromFinished ? nullptr : &From.FakeStack,
                                 To.Stack, To.StackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(To.Tsan, 0);
#endif
  ::swapcontext(&From.Ctx, &To.Ctx);
  // Resumed: another fiber switched back to this one.
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(From.FakeStack, nullptr, nullptr);
#endif
}

std::unique_ptr<Runtime::Fiber> Runtime::makeFiber() {
  static const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  auto F = std::make_unique<Fiber>();
  F->MapBytes = Page + FiberStackBytes;
  void *Map = ::mmap(nullptr, F->MapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
  if (Map == MAP_FAILED || ::mprotect(Map, Page, PROT_NONE) != 0) {
    std::fprintf(stderr, "velodrome rt: cannot map a thread stack: %s\n",
                 std::strerror(errno));
    std::abort();
  }
  F->Map = Map;
  F->Stack = static_cast<char *>(Map) + Page;
  F->StackBytes = FiberStackBytes;
  ::getcontext(&F->Ctx);
  F->Ctx.uc_stack.ss_sp = F->Stack;
  F->Ctx.uc_stack.ss_size = F->StackBytes;
  F->Ctx.uc_link = nullptr; // threadMain never returns into the trampoline
  ::makecontext(&F->Ctx, &Runtime::fiberMain, 0);
#if defined(__SANITIZE_THREAD__)
  F->Tsan = __tsan_create_fiber(0);
#endif
  return F;
}

void Runtime::fiberMain() {
  Runtime &RT = *FiberHost;
  ThreadRec &Rec = RT.ThreadTable[RT.Current];
#if defined(__SANITIZE_ADDRESS__)
  // Thread 0 is entered from run(): learn the caller's stack, which the
  // last thread to exit switches back to.
  const void *FromStack = nullptr;
  size_t FromBytes = 0;
  __sanitizer_finish_switch_fiber(nullptr, &FromStack, &FromBytes);
  if (Rec.Id == 0) {
    RT.Caller->Stack = const_cast<void *>(FromStack);
    RT.Caller->StackBytes = FromBytes;
  }
#endif
  RT.threadMain(Rec);
}

void Runtime::schedPoint(Tid Self) {
  if (!deterministic()) {
    if (Opts.PreemptEveryN > 0) {
      static thread_local int OpsSinceYield = 0;
      if (++OpsSinceYield >= Opts.PreemptEveryN) {
        OpsSinceYield = 0;
        std::this_thread::yield();
      }
    }
    return;
  }
  ThreadRec &Rec = ThreadTable[Self];
  Rec.State = ThreadState::Ready;
  reschedule(Rec);
}

Tid Runtime::spawnThread(std::function<void(MonitoredThread &)> Body,
                         Tid Parent) {
  Tid Child;
  ThreadRec *Rec;
  {
    // The deque never relocates elements, but concurrent push_back and
    // operator[] still race on its internals in FreeRunning mode — so there
    // every table access goes through a pointer captured under SchedMu. A
    // Deterministic run has one OS thread and takes no lock.
    std::unique_lock<std::mutex> G(SchedMu, std::defer_lock);
    if (!deterministic())
      G.lock();
    Child = static_cast<Tid>(ThreadTable.size());
    Rec = &ThreadTable.emplace_back();
    Rec->Id = Child;
    Rec->Body = std::move(Body);
    Rec->State = ThreadState::Ready;
    ++LiveThreads;
  }
  // Emit the fork before the child can run, so its events follow the fork
  // in the linearized stream. Thread 0 has no fork event (the "main"
  // thread pre-exists, as in the paper's semantics).
  if (Child != 0)
    emit(Event::fork(Parent, Child));
  if (deterministic())
    Rec->Context = makeFiber(); // first runs when the scheduler picks it
  else
    Rec->Worker = std::thread([this, Rec] { threadMain(*Rec); });
  return Child;
}

void Runtime::threadMain(ThreadRec &Rec) {
  Tid Self = Rec.Id;
  {
    SplitMix64 Mix(Opts.WorkloadSeed ^ (0x9e3779b97f4a7c15ULL * (Self + 1)));
    MonitoredThread Handle(*this, Self, Mix.next());
    Rec.Body(Handle);
    if (Handle.BlockDepth != 0) {
      std::fprintf(stderr, "velodrome rt: T%u exits inside an atomic block\n",
                   Self);
      std::abort();
    }
  }
  if (deterministic()) {
    // Nothing on this stack owns anything by now: its last switch leaves
    // for good, and ~Runtime unmaps it.
    Rec.State = ThreadState::Finished;
    --LiveThreads;
    ThreadRec *Next = scheduleNext();
    switchFiber(*Rec.Context, Next ? *Next->Context : *Caller,
                /*FromFinished=*/true);
    std::abort(); // a finished fiber is never resumed
  }
  std::lock_guard<std::mutex> G(SchedMu);
  Rec.State = ThreadState::Finished;
  --LiveThreads;
  Rec.Cv.notify_all(); // free-running joiners wait on the child's Cv
  if (LiveThreads == 0)
    AllDoneCv.notify_all();
}

void Runtime::run(std::function<void(MonitoredThread &)> Body) {
  assert(!RunActive && ThreadTable.empty() &&
         "Runtime::run is single-use; create a fresh Runtime per execution");
  RunActive = true;

  if (emitting())
    for (Backend *B : Backends)
      B->beginAnalysis(Symbols);

  spawnThread(std::move(Body), 0);
  if (deterministic()) {
    Caller = std::make_unique<Fiber>();
#if defined(__SANITIZE_THREAD__)
    Caller->Tsan = __tsan_get_current_fiber();
#endif
    // Regains control when the last monitored thread exits. A run started
    // from inside another run's thread hands the OS thread back after.
    Runtime *Outer = std::exchange(FiberHost, this);
    switchFiber(*Caller, *scheduleNext()->Context, /*FromFinished=*/false);
    FiberHost = Outer;
  } else {
    {
      std::unique_lock<std::mutex> L(SchedMu);
      AllDoneCv.wait(L, [this] { return LiveThreads == 0; });
    }
    for (ThreadRec &Rec : ThreadTable)
      Rec.Worker.join();
  }

  if (emitting())
    for (Backend *B : Backends)
      B->endAnalysis();
}

} // namespace velo
