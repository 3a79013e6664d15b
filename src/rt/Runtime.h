//===- rt/Runtime.h - Monitored-execution runtime ---------------*- C++ -*-===//
//
// The C++ stand-in for RoadRunner's JVM instrumentation layer. Workloads are
// ordinary multithreaded C++ programs written against this API:
//
//   Runtime RT(Opts, Backends);
//   SharedVar &X = RT.var("Counter.count");
//   LockVar &M = RT.lock("Counter.mu");
//   RT.run([&](MonitoredThread &T) {
//     Tid W = T.fork([&](MonitoredThread &T2) { ... });
//     {
//       AtomicRegion A(T, "Counter.bump");       // begin/end events
//       T.lockAcquire(M);
//       T.write(X, T.read(X) + 1);               // rd/wr events
//       T.lockRelease(M);
//     }
//     T.join(W);
//   });
//
// Every monitored operation emits the corresponding event (Figure 1 of the
// paper) to the attached back-ends — the same stream RoadRunner produces.
// Re-entrant lock acquires/releases are filtered, as RoadRunner does.
//
// Three execution modes:
//   * Deterministic — a cooperative scheduler runs exactly one monitored
//     thread at a time and picks the next runnable thread with a seeded RNG
//     at every operation. Traces are exactly reproducible from the seed.
//     Every monitored thread is a fiber on the OS thread that calls run(),
//     so a Deterministic run uses one CPU and starts no OS thread. Each
//     fiber has a ucontext and an mmap'd stack of FiberStackBytes (1 MiB, a
//     constant in Runtime.cpp; MAP_NORESERVE, so only touched pages cost
//     memory) above a PROT_NONE guard page, so an overflow faults instead
//     of corrupting a neighbour. A decision that picks another thread is
//     one swapcontext. This path takes no lock, and a thread body must not
//     hold an OS lock across a monitored operation: the next fiber on the
//     same OS thread would deadlock on it. Under ASan every switch is
//     bracketed by __sanitizer_start/finish_switch_fiber; under TSan each
//     thread is a TSan fiber switched with flags 0, so every switch orders
//     memory.
//   * FreeRunning — real preemptive threads (std::thread); events are
//     serialized into the back-ends under one mutex (the linearized stream
//     RoadRunner feeds its back-ends). Used by the throughput/slowdown
//     benchmarks.
//   * Baseline — FreeRunning with event emission compiled out; the
//     uninstrumented-time denominator of Table 1's slowdowns.
//
// Adversarial scheduling (Section 5): in Deterministic mode, a guide
// back-end (the Atomizer) may be attached; whenever the guide marks the
// last event suspicious (a potential atomicity violation's commit point),
// the scheduler stalls that thread for a configurable number of decisions
// so other threads get a window to interleave a conflicting operation.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_RT_RUNTIME_H
#define VELO_RT_RUNTIME_H

#include "analysis/Backend.h"
#include "support/Rng.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace velo {

class Runtime;
class MonitoredThread;

/// A monitored shared variable (a "field"). Values are 64-bit integers;
/// doubles can be stored via bit casting helpers on MonitoredThread.
class SharedVar {
  friend class Runtime;
  friend class MonitoredThread;

public:
  /// Construct through Runtime::var, which assigns the id and name.
  explicit SharedVar(VarId Id) : Id(Id) {}

  VarId id() const { return Id; }

private:
  VarId Id;
  std::atomic<int64_t> Value{0};
};

/// A monitored lock. Blocking and ownership are managed by the runtime.
class LockVar {
  friend class Runtime;
  friend class MonitoredThread;

public:
  /// Construct through Runtime::lock, which assigns the id and name.
  explicit LockVar(LockId Id) : Id(Id) {}

  LockId id() const { return Id; }

private:
  LockId Id;
  // FreeRunning/Baseline modes use the real mutex; Deterministic mode uses
  // Held/Holder, which only the running fiber touches.
  std::mutex RealMu;
  Tid Holder = 0;
  bool Held = false;
};

/// Which suspicious events trigger an adversarial stall. Section 5 of the
/// paper mentions exploring "a number of other scheduling policies, such as
/// pausing writes but not reads, allowing some threads to never pause".
enum class StallPolicy {
  AllOps,        ///< stall on any suspicious operation (the paper's default)
  WritesOnly,    ///< pause writes but not reads
  ReadsOnly,     ///< pause reads but not writes
  SpareMainOps,  ///< any operation, but thread 0 is never paused
};

/// Runtime configuration.
struct RuntimeOptions {
  enum class Mode { Deterministic, FreeRunning, Baseline };
  Mode ExecMode = Mode::Deterministic;
  /// Seed for the deterministic scheduler's choices.
  uint64_t SchedulerSeed = 1;
  /// Seed mixed into each thread's local RNG.
  uint64_t WorkloadSeed = 1;
  /// Stall threads the guide back-end marks suspicious (Deterministic only).
  bool Adversarial = false;
  /// Scheduling decisions a suspicious thread is stalled for (the analogue
  /// of the paper's 100 ms pause).
  int AdversarialStall = 50;
  /// Which suspicious operations trigger the stall.
  StallPolicy Policy = StallPolicy::AllOps;
  /// FreeRunning mode only: yield the OS thread every N monitored
  /// operations (0 = never). Emulates finer preemption granularity than
  /// the OS timeslice provides for short runs — on a single-core host,
  /// millisecond-scale runs would otherwise execute nearly serially.
  int PreemptEveryN = 0;
};

/// Handle through which a monitored thread performs operations. One per
/// thread, valid for the duration of the thread body.
class MonitoredThread {
  friend class Runtime;

public:
  Tid id() const { return Id; }

  /// Deterministic per-thread RNG (seeded from WorkloadSeed and the tid).
  Rng &rng() { return LocalRng; }

  int64_t read(SharedVar &X);
  void write(SharedVar &X, int64_t V);

  /// Doubles stored in SharedVar slots via bit casting.
  double readDouble(SharedVar &X);
  void writeDouble(SharedVar &X, double V);

  /// Acquire/release a lock. Re-entrant pairs are filtered from the event
  /// stream. Blocking acquire; release of a non-held lock aborts.
  void lockAcquire(LockVar &M);
  void lockRelease(LockVar &M);

  /// Enter/exit an atomic block labeled by an interned method name.
  /// Blocks whose label the runtime excludes (Runtime::excludeMethod) emit
  /// no begin/end events — their contents run as non-transactional
  /// operations, mirroring the paper's Table 1 configuration where methods
  /// already known to be non-atomic are not checked.
  void beginAtomic(const std::string &MethodName);
  void beginAtomic(Label L);
  void endAtomic();

  /// Start a monitored child thread; returns its tid. Emits fork.
  Tid fork(std::function<void(MonitoredThread &)> Body);

  /// Wait for a child to finish. Emits join.
  void join(Tid Child);

  /// A pure scheduling point (no event) — lets workloads widen the
  /// interleaving space between monitored operations.
  void yield();

private:
  MonitoredThread(Runtime &RT, Tid Id, uint64_t Seed)
      : RT(RT), Id(Id), LocalRng(Seed) {}

  Runtime &RT;
  Tid Id;
  Rng LocalRng;
  std::vector<std::pair<LockId, int>> HeldCounts; // re-entrancy filtering
  std::vector<bool> EmitStack; // per open block: was its begin emitted?
  int BlockDepth = 0;

  int &heldCount(LockId M);
};

/// RAII atomic block: begin on construction, end on destruction.
class AtomicRegion {
public:
  AtomicRegion(MonitoredThread &T, const std::string &MethodName) : T(T) {
    T.beginAtomic(MethodName);
  }
  AtomicRegion(MonitoredThread &T, Label L) : T(T) { T.beginAtomic(L); }
  ~AtomicRegion() { T.endAtomic(); }
  AtomicRegion(const AtomicRegion &) = delete;
  AtomicRegion &operator=(const AtomicRegion &) = delete;

private:
  MonitoredThread &T;
};

/// The monitored-program host.
class Runtime {
  friend class MonitoredThread;

public:
  Runtime(RuntimeOptions Opts, std::vector<Backend *> Backends);
  ~Runtime();

  /// Create (or look up) a named shared variable / lock / label. Stable
  /// references; names feed the symbol table used in warnings.
  SharedVar &var(const std::string &Name);
  LockVar &lock(const std::string &Name);
  Label label(const std::string &MethodName);

  /// Run a monitored program: Body becomes thread 0; returns when every
  /// monitored thread has finished. Calls beginAnalysis/endAnalysis on the
  /// attached back-ends around the run.
  void run(std::function<void(MonitoredThread &)> Body);

  const SymbolTable &symbols() const { return Symbols; }
  uint64_t eventCount() const { return EventsEmitted.load(); }
  const RuntimeOptions &options() const { return Opts; }

  /// The guide back-end polled for suspicious events (usually an Atomizer
  /// that is also in the Backends list). May be null.
  void setGuide(Backend *G) { Guide = G; }

  /// Stop treating the named method's blocks as atomic (no begin/end
  /// events are emitted for it). Call before run().
  void excludeMethod(const std::string &MethodName) {
    Excluded.insert(label(MethodName));
  }
  bool isExcluded(Label L) const { return Excluded.count(L) != 0; }

  /// Override the deterministic scheduler's choice function: called with
  /// the number of runnable candidates, must return an index below it.
  /// Candidate order is deterministic (thread-table order), which is what
  /// the systematic schedule explorer relies on. Call before run().
  void setSchedulePicker(std::function<size_t(size_t)> P) {
    Picker = std::move(P);
  }

private:
  enum class ThreadState { Created, Ready, Running, Blocked, Finished };

  /// A Deterministic-mode execution context (defined in Runtime.cpp).
  struct Fiber;

  struct ThreadRec {
    Tid Id = 0;
    std::thread Worker;             // FreeRunning/Baseline
    std::unique_ptr<Fiber> Context; // Deterministic
    ThreadState State = ThreadState::Created;
    std::function<bool()> Unblocked; // Deterministic: may this Blocked run?
    std::condition_variable Cv; // FreeRunning/Baseline joiners, under SchedMu
    int Stall = 0;
    std::function<void(MonitoredThread &)> Body;
  };

  bool deterministic() const {
    return Opts.ExecMode == RuntimeOptions::Mode::Deterministic;
  }
  bool emitting() const {
    return Opts.ExecMode != RuntimeOptions::Mode::Baseline;
  }

  /// Dispatch an event to all back-ends (serialized) and apply adversarial
  /// stall marking. Caller context: running monitored thread.
  void emit(const Event &E);

  /// Does the configured StallPolicy permit stalling after event E?
  bool stallPolicyAllows(const Event &E) const;

  /// Deterministic-mode scheduling point: maybe switch to another thread.
  void schedPoint(Tid Self);
  /// Pick the next runnable thread and mark it Running; null once no
  /// thread is live. Aborts on a deadlock. Deterministic mode only.
  ThreadRec *scheduleNext();
  /// Schedule, and switch away from Self unless it was picked again;
  /// returns once Self runs. Self must be Ready or Blocked.
  void reschedule(ThreadRec &Self);
  /// Switch the OS thread from one fiber to another. A Finished fiber's
  /// last switch never returns.
  void switchFiber(Fiber &From, Fiber &To, bool FromFinished);
  /// A fiber whose first switch-in runs threadMain for the thread that
  /// scheduleNext just picked.
  std::unique_ptr<Fiber> makeFiber();
  /// makecontext entry of every fiber.
  static void fiberMain();

  Tid spawnThread(std::function<void(MonitoredThread &)> Body, Tid Parent);
  void threadMain(ThreadRec &Rec);

  RuntimeOptions Opts;
  std::vector<Backend *> Backends;
  Backend *Guide = nullptr;
  std::set<Label> Excluded;
  std::function<size_t(size_t)> Picker;

  SymbolTable Symbols;
  std::deque<SharedVar> Vars;   // deque: stable addresses
  std::deque<LockVar> Locks;
  std::mutex RegistryMu;

  // The thread table (all modes). FreeRunning/Baseline threads reach it
  // and LiveThreads under SchedMu; in Deterministic mode only the running
  // fiber touches them, so that path takes no lock.
  std::mutex SchedMu;
  std::deque<ThreadRec> ThreadTable;
  size_t LiveThreads = 0;
  std::condition_variable AllDoneCv;

  // Deterministic scheduler state.
  Tid Current = 0;
  Rng SchedRng;
  std::unique_ptr<Fiber> Caller;              // run()'s own context
  std::vector<ThreadRec *> Runnable, Stalled; // scheduleNext's candidates

  // Event serialization for FreeRunning mode.
  std::mutex EmitMu;
  std::atomic<uint64_t> EventsEmitted{0};

  bool RunActive = false;
};

} // namespace velo

#endif // VELO_RT_RUNTIME_H
