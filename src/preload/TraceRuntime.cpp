//===- preload/TraceRuntime.cpp - Preload tracer core ---------------------===//
//
// Implementation notes, because almost every line here is shaped by one of
// three constraints:
//
//  * Async-signal safety. The fatal-signal flush path may run inside a
//    SIGSEGV handler, so the whole writer core is malloc-free: events
//    encode into a scratch buffer preallocated at init, symbol registries
//    are append-only arrays read lock-free under an atomic count, and the
//    writer lock is a spinlock the handler only try-acquires.
//  * Reentrancy. The runtime's own bookkeeping (malloc for thread states,
//    stdio for diagnostics) can call interposed pthread functions; a
//    thread-local in-runtime flag makes those inner calls pass straight
//    through to libc instead of recursing into the trace.
//  * Owner-only flushing. A thread's buffer is flushed only by that
//    thread (buffer full, sync points, thread exit, its own fatal
//    signal) or by the atexit hook for the exiting thread — so a flush
//    never races the owner appending, and a frame's events always
//    reference symbol ids the registries had already published.
//
// File-order guarantee under the default sync flush policy: a release is
// flushed *before* the real unlock and an acquire is recorded *after* the
// real lock, so for any lock the file orders each critical section's
// events entirely before the next holder's. Unsynchronized accesses have
// approximate order; the trace sanitizer's lenient mode absorbs the
// resulting damage (that is its job).
//
//===----------------------------------------------------------------------===//

#include "preload/TraceRuntime.h"

#include "preload/TraceConfig.h"

#include "events/BinaryFormat.h"
#include "events/Event.h"
#include "support/Syscalls.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <unistd.h>

namespace velo {
namespace preload {
namespace {

//===----------------------------------------------------------------------===//
// Constants and plain-data types (everything constant-initialized: the
// interposers can run before any constructor in this library does)
//===----------------------------------------------------------------------===//

constexpr uint32_t MaxVars = 1u << 16;   ///< distinct annotated addresses
constexpr uint32_t MaxLocks = 1u << 14;  ///< distinct mutexes
constexpr uint32_t MaxLabels = 1u << 10; ///< distinct atomic-block labels
constexpr uint32_t MaxTids = 1u << 20;   ///< mirrors events' MaxTraceThreads
constexpr uint32_t MaxMappedThreads = 1u << 15; ///< live pthread_t -> tid map
constexpr uint32_t MaxHeldLocks = 64;    ///< nesting depth tracked per thread
constexpr uint32_t AddrNameCap = 24;     ///< "m@0x" + 16 hex digits + NUL
constexpr uint32_t LabelNameCap = 64;    ///< longer labels are truncated

struct Rec {
  uint8_t Op;
  uint32_t Tid;
  uint32_t Target;
};

struct HeldLock {
  uint32_t Lock;
  uint32_t Depth;
};

struct ThreadState {
  uint32_t Tid;
  uint32_t Count; ///< events buffered in Buf
  Rec *Buf;       ///< capacity = Config.BufferEvents
  HeldLock Held[MaxHeldLocks];
  uint32_t HeldCount;
  uint64_t SampleTick;
  ThreadState *Next; ///< AllThreads list (drop accounting at exit)
};

/// Test-and-test-and-set spinlock. The writer and registry critical
/// sections are short (one write() / one snprintf); a real mutex would
/// drag pthread symbols into paths that must stay self-contained, and the
/// fatal-signal handler needs a try-acquire that cannot deadlock.
struct SpinLock {
  std::atomic<uint32_t> V{0};
  void lock() {
    while (V.exchange(1, std::memory_order_acquire)) {
      while (V.load(std::memory_order_relaxed))
        ::sched_yield();
    }
  }
  bool tryLock() { return !V.exchange(1, std::memory_order_acquire); }
  void unlock() { V.store(0, std::memory_order_release); }
};

/// Append-only address registry: open-addressing table over preallocated
/// arrays. Lookups are lock-free (acquire loads pair with the release
/// stores publication makes); inserts take the registry spinlock. Names
/// are generated from the address ("v@0x1234"), stored by id, and read by
/// the flush path under the published Count — never freed, never moved.
struct AddrPool {
  std::atomic<uint64_t> *Keys; ///< table; 0 = empty slot
  uint32_t *Ids;               ///< table slot -> id
  char (*Names)[AddrNameCap];  ///< by id
  uint8_t *Lens;               ///< by id
  std::atomic<uint32_t> Count;
  uint32_t Max;
  uint32_t TableCap; ///< power of two, 2x Max
  char Prefix;       ///< 'v' or 'm'
};

/// Label registry: same table, keyed by a content hash with stored-name
/// comparison on collision.
struct LabelPool {
  std::atomic<uint64_t> *Keys;
  uint32_t *Ids;
  char (*Names)[LabelNameCap];
  uint8_t *Lens;
  std::atomic<uint32_t> Count;
  uint32_t Max;
  uint32_t TableCap;
};

struct Global {
  TraceConfig Cfg;

  bool Disabled;          ///< bad env / failed open: permanently off
  std::atomic<bool> Dead; ///< writer closed (trailer written, crash
                          ///< flush done, write error, fork-off child)
  bool ReopenPending;     ///< forked child: open ChildPath on first flush
  bool WriteFailed;       ///< defer the I/O diagnostic out of signal ctx
  char ChildPath[3104];

  int Fd;
  uint64_t BytesWritten; ///< file offset of the next frame
  uint64_t TotalEvents;

  binfmt::IndexEntry *Index;
  size_t IndexCount, IndexCap;
  bool IndexBroken; ///< realloc failed: no trailer, salvage recovers

  char *Scratch; ///< frame encode buffer (worst case, sized at init)
  size_t ScratchCap;

  AddrPool Vars, Locks;
  LabelPool Labels;
  uint32_t VarsEmitted, LocksEmitted, LabelsEmitted;

  /// pthread_t -> tid for join attribution (slots tombstoned on join).
  std::atomic<uint64_t> *ThreadKeys;
  uint32_t *ThreadTids;

  std::atomic<uint32_t> NextTid;
  std::atomic<uint64_t> Drops;
  ThreadState *AllThreads;

  SpinLock StateSpin;  ///< registries, thread list, thread map
  SpinLock WriterSpin; ///< file writes, index, Emitted counters, Scratch

  pthread_key_t Key; ///< TSD destructor = thread-exit flush
  struct sigaction OldSig[5];
};

// constinit matters: Interpose.c's constructor (and with it doInit) runs
// from the same .init_array as this translation unit's dynamic
// initializers, and link order puts it first. A dynamically initialized G
// would still be all-zeros during doInit — BufferEvents = 0 hands the
// initial thread a zero-capacity event buffer whose records then overrun
// the heap — and the late-running initializer would clobber whatever
// doInit stored. Constant initialization makes G fully formed the moment
// the library is mapped, before any constructor can observe it.
constinit Global G{};
constinit std::atomic<int> InitState; // 0 = not started, 1 = running, 2 = done

constexpr int FatalSigs[5] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};

// initial-exec TLS: resolved to static TLS at load time, so access is
// async-signal-safe (no lazy __tls_get_addr allocation). Preloaded
// libraries get static TLS surplus from the dynamic linker.
__thread ThreadState *TlsState
    __attribute__((tls_model("initial-exec"))) = nullptr;
__thread bool TlsInRuntime __attribute__((tls_model("initial-exec"))) = false;

//===----------------------------------------------------------------------===//
// Malloc-free encoding support (the grammar is events/BinaryFormat.h's)
//===----------------------------------------------------------------------===//

/// A byte sink for binfmt's productions that writes to Fd through a small
/// stack buffer: no allocation, so it is as signal-safe as write() itself.
struct FdSink {
  int Fd;
  char Buf[256];
  size_t N = 0;
  bool Ok = true;

  explicit FdSink(int Fd) : Fd(Fd) {}

  void byte(uint8_t B) {
    if (N == sizeof(Buf))
      flush();
    Buf[N++] = static_cast<char>(B);
  }
  void bytes(const char *Data, size_t Len) {
    for (size_t I = 0; I < Len; ++I)
      byte(static_cast<uint8_t>(Data[I]));
  }
  /// Write out what is buffered; false once any write has failed.
  bool flush() {
    Ok = Ok && sys::writeAll(Fd, Buf, N);
    N = 0;
    return Ok;
  }
};

/// A registry's names by id, for binfmt::putSymbolBlock.
template <class Pool> auto namesOf(const Pool &P) {
  return [&P](uint64_t Id) {
    return std::string_view(P.Names[Id], P.Lens[Id]);
  };
}

uint64_t hashKey(uint64_t K) {
  // splitmix64 finisher: addresses share low-bit patterns.
  K ^= K >> 30;
  K *= 0xbf58476d1ce4e5b9ull;
  K ^= K >> 27;
  K *= 0x94d049bb133111ebull;
  K ^= K >> 31;
  return K;
}

//===----------------------------------------------------------------------===//
// Registries
//===----------------------------------------------------------------------===//

/// Look up or insert Key. Returns the id, or UINT32_MAX when the pool is
/// full (the caller drops the event under the counter).
uint32_t poolIntern(AddrPool &P, uint64_t Key) {
  if (Key == 0)
    return UINT32_MAX; // 0 marks empty slots; a null address is untraceable
  uint64_t H = hashKey(Key);
  uint32_t Mask = P.TableCap - 1;
  for (uint32_t I = 0; I < P.TableCap; ++I) {
    uint32_t Slot = static_cast<uint32_t>(H + I) & Mask;
    uint64_t K = P.Keys[Slot].load(std::memory_order_acquire);
    if (K == Key)
      return P.Ids[Slot];
    if (K == 0)
      break;
  }
  G.StateSpin.lock();
  uint32_t Result = UINT32_MAX;
  for (uint32_t I = 0; I < P.TableCap; ++I) {
    uint32_t Slot = static_cast<uint32_t>(H + I) & Mask;
    uint64_t K = P.Keys[Slot].load(std::memory_order_relaxed);
    if (K == Key) {
      Result = P.Ids[Slot];
      break;
    }
    if (K == 0) {
      uint32_t Id = P.Count.load(std::memory_order_relaxed);
      if (Id >= P.Max)
        break; // pool exhausted
      int N = std::snprintf(P.Names[Id], AddrNameCap, "%c@0x%llx", P.Prefix,
                            static_cast<unsigned long long>(Key));
      P.Lens[Id] = static_cast<uint8_t>(N);
      P.Ids[Slot] = Id;
      // Publication order matters: name and slot id before the key, the
      // key before the count — a lock-free reader that sees either sees
      // everything it implies.
      P.Keys[Slot].store(Key, std::memory_order_release);
      P.Count.store(Id + 1, std::memory_order_release);
      Result = Id;
      break;
    }
  }
  G.StateSpin.unlock();
  return Result;
}

/// Lookup without insertion (release path: a lock we never recorded the
/// acquire of must not invent an id).
uint32_t poolLookup(const AddrPool &P, uint64_t Key) {
  if (Key == 0)
    return UINT32_MAX;
  uint64_t H = hashKey(Key);
  uint32_t Mask = P.TableCap - 1;
  for (uint32_t I = 0; I < P.TableCap; ++I) {
    uint32_t Slot = static_cast<uint32_t>(H + I) & Mask;
    uint64_t K = P.Keys[Slot].load(std::memory_order_acquire);
    if (K == Key)
      return P.Ids[Slot];
    if (K == 0)
      return UINT32_MAX;
  }
  return UINT32_MAX;
}

uint32_t labelIntern(LabelPool &P, const char *Name) {
  size_t Len = std::strlen(Name);
  if (Len >= LabelNameCap)
    Len = LabelNameCap - 1; // truncate; identity is the truncated text
  uint64_t Key = binfmt::fnv1a64(std::string_view(Name, Len));
  if (Key == 0)
    Key = 1;
  uint64_t H = hashKey(Key);
  uint32_t Mask = P.TableCap - 1;

  auto SlotMatches = [&](uint32_t Slot) {
    uint32_t Id = P.Ids[Slot];
    return P.Lens[Id] == Len && std::memcmp(P.Names[Id], Name, Len) == 0;
  };

  for (uint32_t I = 0; I < P.TableCap; ++I) {
    uint32_t Slot = static_cast<uint32_t>(H + I) & Mask;
    uint64_t K = P.Keys[Slot].load(std::memory_order_acquire);
    if (K == 0)
      break;
    if (K == Key && SlotMatches(Slot))
      return P.Ids[Slot];
  }
  G.StateSpin.lock();
  uint32_t Result = UINT32_MAX;
  for (uint32_t I = 0; I < P.TableCap; ++I) {
    uint32_t Slot = static_cast<uint32_t>(H + I) & Mask;
    uint64_t K = P.Keys[Slot].load(std::memory_order_relaxed);
    if (K == Key && SlotMatches(Slot)) {
      Result = P.Ids[Slot];
      break;
    }
    if (K == 0) {
      uint32_t Id = P.Count.load(std::memory_order_relaxed);
      if (Id >= P.Max)
        break;
      std::memcpy(P.Names[Id], Name, Len);
      P.Names[Id][Len] = '\0';
      P.Lens[Id] = static_cast<uint8_t>(Len);
      P.Ids[Slot] = Id;
      P.Keys[Slot].store(Key, std::memory_order_release);
      P.Count.store(Id + 1, std::memory_order_release);
      Result = Id;
      break;
    }
  }
  G.StateSpin.unlock();
  return Result;
}

/// pthread_t -> tid map (StateSpin held for writes; lookups lock-free).
void threadMapInsert(uint64_t PthreadId, uint32_t Tid) {
  if (PthreadId == 0)
    return;
  uint64_t H = hashKey(PthreadId);
  uint32_t Cap = MaxMappedThreads * 2, Mask = Cap - 1;
  G.StateSpin.lock();
  for (uint32_t I = 0; I < Cap; ++I) {
    uint32_t Slot = static_cast<uint32_t>(H + I) & Mask;
    uint64_t K = G.ThreadKeys[Slot].load(std::memory_order_relaxed);
    if (K == PthreadId) { // pthread_t reuse after a join: overwrite
      G.ThreadTids[Slot] = Tid;
      break;
    }
    if (K == 0) {
      G.ThreadTids[Slot] = Tid;
      G.ThreadKeys[Slot].store(PthreadId, std::memory_order_release);
      break;
    }
  }
  // A full map silently stops attributing joins; the trace stays valid
  // (a never-joined thread is legal) and the sanitizer needs no repair.
  G.StateSpin.unlock();
}

uint32_t threadMapTake(uint64_t PthreadId) {
  if (PthreadId == 0)
    return UINT32_MAX;
  uint64_t H = hashKey(PthreadId);
  uint32_t Cap = MaxMappedThreads * 2, Mask = Cap - 1;
  uint32_t Result = UINT32_MAX;
  G.StateSpin.lock();
  for (uint32_t I = 0; I < Cap; ++I) {
    uint32_t Slot = static_cast<uint32_t>(H + I) & Mask;
    uint64_t K = G.ThreadKeys[Slot].load(std::memory_order_relaxed);
    if (K == PthreadId) {
      Result = G.ThreadTids[Slot];
      G.ThreadTids[Slot] = UINT32_MAX; // tombstone: joins fire once
      break;
    }
    if (K == 0)
      break;
  }
  G.StateSpin.unlock();
  return Result;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Open Path, write the 16-byte container header. Returns false with the
/// writer marked dead on failure.
bool openOutput(const char *Path) {
  int Fd = ::open(Path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (Fd < 0)
    return false;
  FdSink Out{Fd};
  binfmt::putHeader(Out);
  if (!Out.flush()) {
    sys::closeQuiet(Fd);
    return false;
  }
  G.Fd = Fd;
  G.BytesWritten = binfmt::HeaderSize;
  return true;
}

void indexPush(uint64_t Offset, uint64_t FirstOrdinal, uint64_t Count) {
  if (G.IndexBroken)
    return;
  if (G.IndexCount == G.IndexCap) {
    size_t NewCap = G.IndexCap ? G.IndexCap * 2 : 1024;
    void *P = std::realloc(G.Index, NewCap * sizeof(binfmt::IndexEntry));
    if (!P) {
      G.IndexBroken = true; // keep writing frames; salvage recovers them
      return;
    }
    G.Index = static_cast<binfmt::IndexEntry *>(P);
    G.IndexCap = NewCap;
  }
  G.Index[G.IndexCount++] = {Offset, FirstOrdinal, Count};
}

/// Encode and write T's buffer as one events frame. WriterSpin held; the
/// caller is T's owner, so no one is appending. SignalCtx suppresses the
/// index append (no realloc) — the handler sets Dead right after, so the
/// missing entry never meets a trailer.
void flushLocked(ThreadState *T, bool SignalCtx) {
  uint32_t N = T->Count;
  if (N == 0)
    return;
  T->Count = 0; // consumed either way; drops are counted below
  if (G.Dead.load(std::memory_order_relaxed) || G.Disabled) {
    G.Drops.fetch_add(N, std::memory_order_relaxed);
    return;
  }
  if (G.Fd < 0) {
    // Forked child with lazy reopen: create "<out>.<pid>" on the first
    // event that actually needs it (fork+exec children leave no file).
    if (!G.ReopenPending || SignalCtx || !openOutput(G.ChildPath)) {
      G.Dead.store(true, std::memory_order_relaxed);
      G.WriteFailed = !SignalCtx && G.ReopenPending;
      G.Drops.fetch_add(N, std::memory_order_relaxed);
      return;
    }
    G.ReopenPending = false;
  }

  uint32_t VC = G.Vars.Count.load(std::memory_order_acquire);
  uint32_t LC = G.Locks.Count.load(std::memory_order_acquire);
  uint32_t BC = G.Labels.Count.load(std::memory_order_acquire);

  char *Payload = G.Scratch + binfmt::FrameHeaderSize;
  binfmt::BufferSink P{Payload, G.Scratch + G.ScratchCap};
  binfmt::putSymbolBlock(P, G.VarsEmitted, VC - G.VarsEmitted,
                         namesOf(G.Vars));
  binfmt::putSymbolBlock(P, G.LocksEmitted, LC - G.LocksEmitted,
                         namesOf(G.Locks));
  binfmt::putSymbolBlock(P, G.LabelsEmitted, BC - G.LabelsEmitted,
                         namesOf(G.Labels));
  binfmt::putVarint(P, N);
  for (uint32_t I = 0; I < N; ++I)
    binfmt::putEvent(P, T->Buf[I].Op, T->Buf[I].Tid, T->Buf[I].Target);
  if (!P.Ok) { // scratch is sized for the worst case; belt and braces
    G.Drops.fetch_add(N, std::memory_order_relaxed);
    return;
  }

  const size_t Len = static_cast<size_t>(P.P - Payload);
  binfmt::BufferSink H{G.Scratch, Payload};
  binfmt::putFrameHeader(H, binfmt::EventsFrame, Len,
                         binfmt::fnv1a64(std::string_view(Payload, Len)));

  if (!sys::writeAll(G.Fd, G.Scratch, binfmt::FrameHeaderSize + Len)) {
    G.Dead.store(true, std::memory_order_relaxed);
    G.WriteFailed = true;
    G.Drops.fetch_add(N, std::memory_order_relaxed);
    return;
  }
  if (!SignalCtx)
    indexPush(G.BytesWritten, G.TotalEvents, N);
  G.BytesWritten += binfmt::FrameHeaderSize + Len;
  G.TotalEvents += N;
  G.VarsEmitted = VC;
  G.LocksEmitted = LC;
  G.LabelsEmitted = BC;
}

void flushNow(ThreadState *T) {
  if (T->Count == 0)
    return;
  G.WriterSpin.lock();
  flushLocked(T, /*SignalCtx=*/false);
  G.WriterSpin.unlock();
}

/// Index frame + trailer, closing the container. WriterSpin held. The
/// index payload can exceed the event scratch for frame-heavy runs, so it
/// streams: a hashing pass sizes and checksums it for the frame header,
/// then the same production writes it.
void writeIndexAndTrailer() {
  if (G.Fd < 0 || G.Dead.load(std::memory_order_relaxed) || G.IndexBroken)
    return;
  const std::span<const binfmt::IndexEntry> Index(G.Index, G.IndexCount);
  binfmt::HashSink Sized;
  binfmt::putIndexPayload(Sized, Index, G.TotalEvents);
  if (Sized.Len > binfmt::MaxFramePayload)
    return; // leave a salvageable prefix rather than a bogus index

  FdSink Out{G.Fd};
  binfmt::putFrameHeader(Out, binfmt::IndexFrame, Sized.Len, Sized.Sum.Value);
  binfmt::putIndexPayload(Out, Index, G.TotalEvents);
  binfmt::putTrailer(Out, G.BytesWritten);
  if (!Out.flush())
    G.WriteFailed = true;
}

//===----------------------------------------------------------------------===//
// Thread state
//===----------------------------------------------------------------------===//

extern "C" void veloKeyDtor(void *P); // forward (TSD destructor)

ThreadState *allocThreadState(uint32_t Tid) {
  ThreadState *T =
      static_cast<ThreadState *>(std::calloc(1, sizeof(ThreadState)));
  Rec *Buf = static_cast<Rec *>(std::calloc(G.Cfg.BufferEvents, sizeof(Rec)));
  if (!T || !Buf) {
    std::free(T);
    std::free(Buf);
    return nullptr;
  }
  T->Tid = Tid;
  T->Buf = Buf;
  G.StateSpin.lock();
  T->Next = G.AllThreads;
  G.AllThreads = T;
  G.StateSpin.unlock();
  TlsState = T;
  // The TSD destructor flushes the buffer on pthread_exit and implicit
  // thread termination. The state itself is deliberately never freed: a
  // later-running destructor of another key may still take a traced lock
  // and record into it (one bounded buffer leaks per exited thread).
  ::pthread_setspecific(G.Key, T);
  return T;
}

ThreadState *ensureSelf() {
  ThreadState *T = TlsState;
  if (T)
    return T;
  // A thread we did not see created (made before the library loaded, or
  // by a runtime bypassing the pthread_create PLT). Give it a fresh tid
  // with no fork event — a trace thread never forked is legal.
  uint32_t Tid = G.NextTid.fetch_add(1, std::memory_order_relaxed);
  if (Tid >= MaxTids)
    return nullptr;
  return allocThreadState(Tid);
}

void record(ThreadState *T, uint8_t OpByte, uint32_t Target) {
  if (T->Count >= G.Cfg.BufferEvents)
    flushNow(T); // leaves Count == 0 (dead writers drop under the counter)
  T->Buf[T->Count++] = {OpByte, T->Tid, Target};
}

void syncFlush(ThreadState *T) {
  if (G.Cfg.SyncFlush)
    flushNow(T);
}

/// RAII in-runtime guard. Armed == false means recording must not happen:
/// already inside the runtime, not initialized, or disabled.
struct Guard {
  bool Armed;
  Guard()
      : Armed(!TlsInRuntime && !G.Disabled &&
              InitState.load(std::memory_order_acquire) == 2) {
    if (Armed)
      TlsInRuntime = true;
  }
  ~Guard() {
    if (Armed)
      TlsInRuntime = false;
  }
};

//===----------------------------------------------------------------------===//
// Process-lifetime hooks
//===----------------------------------------------------------------------===//

extern "C" void veloKeyDtor(void *P) {
  ThreadState *T = static_cast<ThreadState *>(P);
  if (!T)
    return;
  bool Saved = TlsInRuntime;
  TlsInRuntime = true;
  flushNow(T);
  TlsInRuntime = Saved;
}

void onExit() {
  bool Saved = TlsInRuntime;
  TlsInRuntime = true;
  G.WriterSpin.lock();
  ThreadState *Self = TlsState;
  if (Self)
    flushLocked(Self, /*SignalCtx=*/false);
  writeIndexAndTrailer();
  // Seal the writer: any thread still running flushes into the drop
  // counter instead of appending frames past the trailer.
  G.Dead.store(true, std::memory_order_relaxed);
  if (G.Fd >= 0) {
    sys::closeQuiet(G.Fd);
    G.Fd = -1;
  }
  // Live threads' unflushed tails are lost by design (flushing another
  // thread's buffer would race its owner); count them as drops.
  uint64_t Unflushed = 0;
  for (ThreadState *T = G.AllThreads; T; T = T->Next)
    if (T != Self)
      Unflushed += T->Count;
  G.WriterSpin.unlock();

  uint64_t Dropped = G.Drops.load(std::memory_order_relaxed) + Unflushed;
  if (G.WriteFailed)
    std::fprintf(stderr,
                 "velodrome-trace: write failure, container truncated "
                 "(recover with velodrome-check --salvage)\n");
  if (Dropped)
    std::fprintf(stderr,
                 "velodrome-trace: %llu event(s) dropped or unflushed\n",
                 static_cast<unsigned long long>(Dropped));
  TlsInRuntime = Saved;
}

void fatalHandler(int Sig) {
  // Flush the crashing thread's buffer if the writer is free, then seal
  // the container (no index/trailer — salvage recovers the prefix) and
  // hand the signal to whoever owned it before us.
  if (G.WriterSpin.tryLock()) {
    ThreadState *T = TlsState;
    if (T && !TlsInRuntime)
      flushLocked(T, /*SignalCtx=*/true);
    G.Dead.store(true, std::memory_order_relaxed);
    G.WriterSpin.unlock();
  } else {
    G.Dead.store(true, std::memory_order_relaxed);
  }
  for (int I = 0; I < 5; ++I)
    if (FatalSigs[I] == Sig)
      ::sigaction(Sig, &G.OldSig[I], nullptr);
  ::raise(Sig);
}

void atforkPrepare() {
  G.StateSpin.lock();
  G.WriterSpin.lock();
}

void atforkParent() {
  G.WriterSpin.unlock();
  G.StateSpin.unlock();
}

void atforkChild() {
  G.WriterSpin.unlock();
  G.StateSpin.unlock();
  if (G.Disabled)
    return;
  // The fd is shared with the parent: close it before anything can write.
  if (G.Fd >= 0) {
    sys::closeQuiet(G.Fd);
    G.Fd = -1;
  }
  // Inherited buffers belong to the parent's file; drop them. Only the
  // forking thread exists in the child.
  ThreadState *Self = TlsState;
  if (Self)
    Self->Count = 0;
  G.AllThreads = Self;
  if (Self)
    Self->Next = nullptr;
  G.IndexCount = 0;
  G.IndexBroken = false;
  G.BytesWritten = binfmt::HeaderSize;
  G.TotalEvents = 0;
  G.VarsEmitted = G.LocksEmitted = G.LabelsEmitted = 0;
  G.Drops.store(0, std::memory_order_relaxed);
  G.WriteFailed = false;
  if (G.Cfg.ReopenOnFork && !G.Dead.load(std::memory_order_relaxed)) {
    std::snprintf(G.ChildPath, sizeof(G.ChildPath), "%s.%ld", G.Cfg.OutPath,
                  static_cast<long>(::getpid()));
    G.ReopenPending = true; // opened on first flush; fork+exec leaves none
  } else {
    G.Dead.store(true, std::memory_order_relaxed);
  }
}

void doInit() {
  TlsInRuntime = true;
  char Diag[256];
  if (!parseTraceConfig(G.Cfg, Diag, sizeof(Diag))) {
    std::fprintf(stderr, "velodrome-trace: %s; tracing disabled\n", Diag);
    G.Disabled = true;
    TlsInRuntime = false;
    return;
  }

  auto AllocAddrPool = [](AddrPool &P, uint32_t Max, char Prefix) {
    P.Max = Max;
    P.TableCap = Max * 2;
    P.Prefix = Prefix;
    P.Keys = static_cast<std::atomic<uint64_t> *>(
        std::calloc(P.TableCap, sizeof(std::atomic<uint64_t>)));
    P.Ids = static_cast<uint32_t *>(std::calloc(P.TableCap, sizeof(uint32_t)));
    P.Names = static_cast<char(*)[AddrNameCap]>(std::calloc(Max, AddrNameCap));
    P.Lens = static_cast<uint8_t *>(std::calloc(Max, 1));
    return P.Keys && P.Ids && P.Names && P.Lens;
  };
  bool Ok = AllocAddrPool(G.Vars, MaxVars, 'v') &&
            AllocAddrPool(G.Locks, MaxLocks, 'm');
  G.Labels.Max = MaxLabels;
  G.Labels.TableCap = MaxLabels * 2;
  G.Labels.Keys = static_cast<std::atomic<uint64_t> *>(
      std::calloc(G.Labels.TableCap, sizeof(std::atomic<uint64_t>)));
  G.Labels.Ids =
      static_cast<uint32_t *>(std::calloc(G.Labels.TableCap, sizeof(uint32_t)));
  G.Labels.Names =
      static_cast<char(*)[LabelNameCap]>(std::calloc(MaxLabels, LabelNameCap));
  G.Labels.Lens = static_cast<uint8_t *>(std::calloc(MaxLabels, 1));
  Ok = Ok && G.Labels.Keys && G.Labels.Ids && G.Labels.Names && G.Labels.Lens;

  G.ThreadKeys = static_cast<std::atomic<uint64_t> *>(
      std::calloc(MaxMappedThreads * 2, sizeof(std::atomic<uint64_t>)));
  G.ThreadTids = static_cast<uint32_t *>(
      std::calloc(MaxMappedThreads * 2, sizeof(uint32_t)));

  // Frame scratch, sized for the worst case: every registry fully
  // unemitted plus a full event buffer.
  G.ScratchCap = binfmt::FrameHeaderSize +
                 static_cast<size_t>(MaxVars + MaxLocks) * (AddrNameCap + 2) +
                 static_cast<size_t>(MaxLabels) * (LabelNameCap + 2) +
                 static_cast<size_t>(G.Cfg.BufferEvents) * 11 + 64;
  G.Scratch = static_cast<char *>(std::malloc(G.ScratchCap));
  Ok = Ok && G.Scratch && G.ThreadKeys && G.ThreadTids;

  if (!Ok || !openOutput(G.Cfg.OutPath)) {
    std::fprintf(stderr,
                 "velodrome-trace: cannot open trace output '%s'; tracing "
                 "disabled\n",
                 G.Cfg.OutPath);
    G.Disabled = true;
    TlsInRuntime = false;
    return;
  }

  ::pthread_key_create(&G.Key, veloKeyDtor);
  G.NextTid.store(1, std::memory_order_relaxed);
  if (!allocThreadState(0)) { // the initial thread is tid 0
    G.Disabled = true;
    TlsInRuntime = false;
    return;
  }

  ::pthread_atfork(atforkPrepare, atforkParent, atforkChild);
  std::atexit(onExit);
  for (int I = 0; I < 5; ++I) {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = fatalHandler;
    ::sigemptyset(&SA.sa_mask);
    ::sigaction(FatalSigs[I], &SA, &G.OldSig[I]);
  }
  TlsInRuntime = false;
}

} // namespace
} // namespace preload
} // namespace velo

//===----------------------------------------------------------------------===//
// C API (called from Interpose.c)
//===----------------------------------------------------------------------===//

using namespace velo;
using namespace velo::preload;

extern "C" {

void velo_rt_init(void) {
  int S = InitState.load(std::memory_order_acquire);
  if (S == 2)
    return;
  int Expected = 0;
  if (InitState.compare_exchange_strong(Expected, 1,
                                        std::memory_order_acq_rel)) {
    doInit();
    InitState.store(2, std::memory_order_release);
    return;
  }
  // Another thread is initializing; in practice init happens on the main
  // thread before any other exists, but don't record half-initialized.
  while (InitState.load(std::memory_order_acquire) != 2)
    ::sched_yield();
}

int velo_rt_active(void) {
  return InitState.load(std::memory_order_acquire) == 2 && !G.Disabled &&
         !G.Dead.load(std::memory_order_relaxed);
}

int velo_rt_in_runtime(void) { return TlsInRuntime; }

void velo_rt_lock_acquired(void *Mutex) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  ThreadState *T = ensureSelf();
  if (!T)
    return;
  uint32_t Id =
      poolIntern(G.Locks, static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Mutex)));
  if (Id == UINT32_MAX) {
    G.Drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (uint32_t I = 0; I < T->HeldCount; ++I)
    if (T->Held[I].Lock == Id) { // recursive re-acquire: filtered
      ++T->Held[I].Depth;
      return;
    }
  if (T->HeldCount == MaxHeldLocks) {
    G.Drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  T->Held[T->HeldCount++] = {Id, 1};
  record(T, static_cast<uint8_t>(Op::Acquire), Id);
}

void velo_rt_lock_releasing(void *Mutex) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  ThreadState *T = TlsState;
  if (!T)
    return;
  uint32_t Id =
      poolLookup(G.Locks, static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Mutex)));
  if (Id == UINT32_MAX)
    return;
  for (uint32_t I = 0; I < T->HeldCount; ++I) {
    if (T->Held[I].Lock != Id)
      continue;
    if (--T->Held[I].Depth > 0)
      return; // recursive unlock, lock still held
    T->Held[I] = T->Held[--T->HeldCount];
    record(T, static_cast<uint8_t>(Op::Release), Id);
    // The sync-policy linchpin: this critical section's events hit the
    // file before the real unlock lets the next holder in.
    syncFlush(T);
    return;
  }
}

uint32_t velo_rt_fork_child(void) {
  Guard Gd;
  if (!Gd.Armed || G.Dead.load(std::memory_order_relaxed))
    return UINT32_MAX;
  ThreadState *T = ensureSelf();
  if (!T)
    return UINT32_MAX;
  uint32_t Child = G.NextTid.fetch_add(1, std::memory_order_relaxed);
  if (Child >= MaxTids)
    return UINT32_MAX;
  record(T, static_cast<uint8_t>(Op::Fork), Child);
  // Regardless of flush policy: the child may flush its own events at any
  // time, and the file must show the fork first.
  flushNow(T);
  return Child;
}

void velo_rt_child_start(uint32_t Tid) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  if (!TlsState)
    allocThreadState(Tid);
}

void velo_rt_child_created(uint32_t Tid, uint64_t PthreadId) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  threadMapInsert(PthreadId, Tid);
}

void velo_rt_joined(uint64_t PthreadId) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  uint32_t Child = threadMapTake(PthreadId);
  if (Child == UINT32_MAX)
    return;
  ThreadState *T = ensureSelf();
  if (!T)
    return;
  record(T, static_cast<uint8_t>(Op::Join), Child);
}

void velo_rt_thread_exit(void) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  ThreadState *T = TlsState;
  if (T)
    flushNow(T);
}

void velo_rt_read(const void *Addr) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  ThreadState *T = ensureSelf();
  if (!T)
    return;
  if (G.Cfg.SampleEvery > 1 && (T->SampleTick++ % G.Cfg.SampleEvery) != 0)
    return;
  uint32_t Id =
      poolIntern(G.Vars, static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Addr)));
  if (Id == UINT32_MAX) {
    G.Drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  record(T, static_cast<uint8_t>(Op::Read), Id);
}

void velo_rt_write(const void *Addr) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  ThreadState *T = ensureSelf();
  if (!T)
    return;
  if (G.Cfg.SampleEvery > 1 && (T->SampleTick++ % G.Cfg.SampleEvery) != 0)
    return;
  uint32_t Id =
      poolIntern(G.Vars, static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Addr)));
  if (Id == UINT32_MAX) {
    G.Drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  record(T, static_cast<uint8_t>(Op::Write), Id);
}

void velo_rt_begin(const char *Label) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  ThreadState *T = ensureSelf();
  if (!T)
    return;
  uint32_t Id = NoLabel;
  if (Label && Label[0] != '\0') {
    Id = labelIntern(G.Labels, Label);
    if (Id == UINT32_MAX)
      Id = NoLabel; // label pool full: keep the block, lose the name
  }
  record(T, static_cast<uint8_t>(Op::Begin), Id);
}

void velo_rt_end(void) {
  Guard Gd;
  if (!Gd.Armed)
    return;
  ThreadState *T = TlsState;
  if (!T)
    return;
  record(T, static_cast<uint8_t>(Op::End), 0);
}

} // extern "C"
