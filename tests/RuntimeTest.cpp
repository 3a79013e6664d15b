//===- tests/RuntimeTest.cpp - Monitored runtime and scheduler ------------===//

#include "analysis/TraceRecorder.h"
#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "rt/Runtime.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>

namespace velo {
namespace {

RuntimeOptions detOpts(uint64_t Seed) {
  RuntimeOptions O;
  O.ExecMode = RuntimeOptions::Mode::Deterministic;
  O.SchedulerSeed = Seed;
  O.WorkloadSeed = Seed;
  return O;
}

/// A two-thread counter program; Guarded selects correct locking.
void counterProgram(Runtime &RT, bool Guarded, int Rounds) {
  SharedVar &Count = RT.var("Counter.count");
  LockVar &Mu = RT.lock("Counter.mu");
  RT.run([&, Guarded, Rounds](MonitoredThread &T0) {
    auto Body = [&, Guarded, Rounds](MonitoredThread &T) {
      for (int I = 0; I < Rounds; ++I) {
        AtomicRegion A(T, "Counter.bump");
        if (Guarded)
          T.lockAcquire(Mu);
        T.write(Count, T.read(Count) + 1);
        if (Guarded)
          T.lockRelease(Mu);
      }
    };
    Tid W = T0.fork(Body);
    Body(T0);
    T0.join(W);
  });
}

TEST(RuntimeTest, DeterministicModeReproducesTracesExactly) {
  Trace First;
  for (int Rep = 0; Rep < 3; ++Rep) {
    TraceRecorder Rec;
    Runtime RT(detOpts(77), {&Rec});
    counterProgram(RT, /*Guarded=*/true, 5);
    if (Rep == 0) {
      First = Rec.takeTrace();
      ASSERT_TRUE(First.validate());
      continue;
    }
    Trace Again = Rec.takeTrace();
    ASSERT_EQ(Again.size(), First.size());
    for (size_t I = 0; I < First.size(); ++I)
      ASSERT_TRUE(Again[I] == First[I]) << "diverges at event " << I;
  }
}

TEST(RuntimeTest, DifferentSeedsExploreDifferentInterleavings) {
  std::set<std::string> Shapes;
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    TraceRecorder Rec;
    Runtime RT(detOpts(Seed), {&Rec});
    counterProgram(RT, /*Guarded=*/false, 3);
    std::string Shape;
    for (const Event &E : Rec.trace())
      Shape += static_cast<char>('0' + E.Thread);
    Shapes.insert(Shape);
  }
  EXPECT_GT(Shapes.size(), 1u) << "seeds should vary thread interleaving";
}

TEST(RuntimeTest, RecordedTracesAreWellFormed) {
  for (uint64_t Seed = 0; Seed < 10; ++Seed) {
    TraceRecorder Rec;
    Runtime RT(detOpts(Seed), {&Rec});
    counterProgram(RT, Seed % 2 == 0, 4);
    std::vector<std::string> Errors;
    EXPECT_TRUE(Rec.trace().validate(&Errors))
        << "seed " << Seed << ": " << (Errors.empty() ? "" : Errors[0]);
  }
}

TEST(RuntimeTest, ReentrantLockOpsAreFiltered) {
  TraceRecorder Rec;
  Runtime RT(detOpts(1), {&Rec});
  LockVar &Mu = RT.lock("mu");
  SharedVar &X = RT.var("x");
  RT.run([&](MonitoredThread &T) {
    T.lockAcquire(Mu);
    T.lockAcquire(Mu); // re-entrant: no event
    T.write(X, 1);
    T.lockRelease(Mu); // still held: no event
    T.lockRelease(Mu); // real release
  });
  int Acquires = 0, Releases = 0;
  for (const Event &E : Rec.trace()) {
    Acquires += E.Kind == Op::Acquire;
    Releases += E.Kind == Op::Release;
  }
  EXPECT_EQ(Acquires, 1);
  EXPECT_EQ(Releases, 1);
}

TEST(RuntimeTest, LocksActuallyExcludeInDeterministicMode) {
  // With correct locking the counter must be exact under any schedule.
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    Runtime RT(detOpts(Seed), {});
    SharedVar &Count = RT.var("Counter.count");
    LockVar &Mu = RT.lock("Counter.mu");
    RT.run([&](MonitoredThread &T0) {
      auto Body = [&](MonitoredThread &T) {
        for (int I = 0; I < 10; ++I) {
          T.lockAcquire(Mu);
          T.write(Count, T.read(Count) + 1);
          T.lockRelease(Mu);
        }
      };
      Tid A = T0.fork(Body);
      Tid B = T0.fork(Body);
      Body(T0);
      T0.join(A);
      T0.join(B);
      EXPECT_EQ(T0.read(Count), 30) << "seed " << Seed;
    });
  }
}

TEST(RuntimeTest, JoinWaitsForChildCompletion) {
  Runtime RT(detOpts(3), {});
  SharedVar &Flag = RT.var("flag");
  RT.run([&](MonitoredThread &T0) {
    Tid W = T0.fork([&](MonitoredThread &T) {
      for (int I = 0; I < 20; ++I)
        T.yield();
      T.write(Flag, 42);
    });
    T0.join(W);
    EXPECT_EQ(T0.read(Flag), 42);
  });
}

TEST(RuntimeTest, VelodromeAttachedOnlineFindsRmwBugOnSomeSeed) {
  int Detections = 0;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    Velodrome V;
    Runtime RT(detOpts(Seed), {&V});
    counterProgram(RT, /*Guarded=*/false, 4);
    Detections += V.sawViolation();
  }
  EXPECT_GT(Detections, 0) << "some schedule must expose the racy RMW";
}

TEST(RuntimeTest, GuardedCounterIsAlwaysSerializable) {
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    Velodrome V;
    Runtime RT(detOpts(Seed), {&V});
    counterProgram(RT, /*Guarded=*/true, 4);
    EXPECT_FALSE(V.sawViolation()) << "seed " << Seed;
  }
}

TEST(RuntimeTest, DoubleRoundTrips) {
  Runtime RT(detOpts(1), {});
  SharedVar &D = RT.var("d");
  RT.run([&](MonitoredThread &T) {
    T.writeDouble(D, 3.25);
    EXPECT_DOUBLE_EQ(T.readDouble(D), 3.25);
    T.writeDouble(D, -0.0);
    EXPECT_DOUBLE_EQ(T.readDouble(D), -0.0);
  });
}

TEST(RuntimeTest, FreeRunningModeProducesValidLinearizedTrace) {
  RuntimeOptions O;
  O.ExecMode = RuntimeOptions::Mode::FreeRunning;
  TraceRecorder Rec;
  Runtime RT(O, {&Rec});
  SharedVar &Count = RT.var("count");
  LockVar &Mu = RT.lock("mu");
  RT.run([&](MonitoredThread &T0) {
    std::vector<Tid> Kids;
    for (int K = 0; K < 3; ++K)
      Kids.push_back(T0.fork([&](MonitoredThread &T) {
        for (int I = 0; I < 50; ++I) {
          T.lockAcquire(Mu);
          T.write(Count, T.read(Count) + 1);
          T.lockRelease(Mu);
        }
      }));
    for (Tid K : Kids)
      T0.join(K);
    EXPECT_EQ(T0.read(Count), 150);
  });
  std::vector<std::string> Errors;
  EXPECT_TRUE(Rec.trace().validate(&Errors))
      << (Errors.empty() ? "" : Errors[0]);
  EXPECT_GT(Rec.trace().size(), 600u);
}

TEST(RuntimeTest, BaselineModeEmitsNothing) {
  RuntimeOptions O;
  O.ExecMode = RuntimeOptions::Mode::Baseline;
  TraceRecorder Rec;
  Runtime RT(O, {&Rec});
  SharedVar &X = RT.var("x");
  RT.run([&](MonitoredThread &T) {
    for (int I = 0; I < 10; ++I)
      T.write(X, I);
  });
  EXPECT_EQ(Rec.trace().size(), 0u);
  EXPECT_EQ(RT.eventCount(), 10u) << "operations still counted";
}

// Adversarial scheduling: the Atomizer marks the racy read inside the
// transaction as suspicious; stalling that thread lets the other thread's
// write interleave, so Velodrome witnesses the violation far more often.
TEST(RuntimeTest, AdversarialSchedulingRaisesDetectionRate) {
  auto DetectionRate = [&](bool Adversarial) {
    int Hits = 0;
    const int Trials = 30;
    for (uint64_t Seed = 0; Seed < Trials; ++Seed) {
      Atomizer Guide;
      Velodrome V;
      RuntimeOptions O = detOpts(Seed);
      O.Adversarial = Adversarial;
      O.AdversarialStall = 40;
      Runtime RT(O, {&Guide, &V});
      RT.setGuide(&Guide);

      SharedVar &Count = RT.var("count");
      RT.run([&](MonitoredThread &T0) {
        // Pre-share count so the lockset analysis classifies the buggy
        // read as racy (the suspicion trigger), then race one buggy RMW
        // against a stream of writes. Under uniform scheduling the write
        // lands inside the rd..wr window about half the time; with the
        // buggy thread stalled at its commit point, almost always.
        T0.write(Count, 0);
        Tid Writer = T0.fork([&](MonitoredThread &T) {
          for (int I = 0; I < 40; ++I)
            T.write(Count, I);
        });
        Tid Bug = T0.fork([&](MonitoredThread &T) {
          AtomicRegion A(T, "buggy.rmw");
          T.write(Count, T.read(Count) + 1);
        });
        std::vector<Tid> Noise;
        for (int K = 0; K < 4; ++K) {
          SharedVar &Junk = RT.var("junk" + std::to_string(K));
          Noise.push_back(T0.fork([&Junk](MonitoredThread &T) {
            for (int I = 0; I < 60; ++I)
              T.write(Junk, I);
          }));
        }
        T0.join(Writer);
        T0.join(Bug);
        for (Tid K : Noise)
          T0.join(K);
      });
      Hits += V.sawViolation();
    }
    return Hits;
  };

  int Plain = DetectionRate(false);
  int Guided = DetectionRate(true);
  EXPECT_GT(Guided, Plain)
      << "stalling at the commit point must help (plain=" << Plain
      << ", guided=" << Guided << ")";
}

/// Entries in /proc/self/task: the process's OS threads.
size_t osThreadCount() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

// Deterministic threads are fibers on the thread that calls run(): with
// six of them live, the process has exactly the OS threads it had before.
TEST(RuntimeTest, DeterministicRunStartsNoOsThread) {
  size_t Before = osThreadCount();
  size_t During = 0;
  Runtime RT(detOpts(5), {});
  SharedVar &X = RT.var("x");
  RT.run([&](MonitoredThread &T0) {
    std::vector<Tid> Kids;
    for (int K = 0; K < 5; ++K)
      Kids.push_back(T0.fork([&](MonitoredThread &T) {
        for (int I = 0; I < 10; ++I)
          T.write(X, I);
      }));
    During = osThreadCount(); // all six threads are live here
    for (Tid K : Kids)
      T0.join(K);
  });
  EXPECT_EQ(During, Before);
}

/// Recurses through Depth frames of over 1 KiB each, with a scheduling
/// point in every frame, so other threads run while this one is deep.
/// Returns Depth; the frame is read after the call, so it stays live.
int deepCount(MonitoredThread &T, SharedVar &X, int Depth) {
  volatile char Frame[1024];
  Frame[0] = 1;
  Frame[sizeof(Frame) - 1] = 1;
  T.write(X, Depth);
  if (Depth == 0)
    return 0;
  int Below = deepCount(T, X, Depth - 1);
  return Below + Frame[0] * Frame[sizeof(Frame) - 1];
}

TEST(RuntimeTest, DeepRecursionInAMonitoredThreadCompletes) {
  Runtime RT(detOpts(9), {});
  SharedVar &X = RT.var("x");
  SharedVar &Y = RT.var("y");
  int Depth = -1;
  RT.run([&](MonitoredThread &T0) {
    Tid Other = T0.fork([&](MonitoredThread &T) {
      for (int I = 0; I < 300; ++I)
        T.write(Y, I);
    });
    Depth = deepCount(T0, X, 256); // about 256 KiB of stack
    T0.join(Other);
  });
  EXPECT_EQ(Depth, 256);
}

// The Deterministic scheduler's two aborts keep their messages.
TEST(RuntimeDeathTest, LockOrderInversionDeadlockAborts) {
  auto AbBa = [] {
    Runtime RT(detOpts(1), {});
    LockVar &A = RT.lock("A");
    LockVar &B = RT.lock("B");
    RT.run([&](MonitoredThread &T0) {
      bool ChildHoldsB = false;
      T0.lockAcquire(A);
      Tid Child = T0.fork([&](MonitoredThread &T) {
        T.lockAcquire(B);
        ChildHoldsB = true;
        T.lockAcquire(A);
      });
      while (!ChildHoldsB)
        T0.yield();
      T0.lockAcquire(B);
      T0.join(Child);
    });
  };
  EXPECT_DEATH(AbBa(), "velodrome rt: deadlock .* 2 live threads, none "
                       "runnable");
}

TEST(RuntimeDeathTest, ExitInsideAnAtomicBlockAborts) {
  auto Unclosed = [] {
    Runtime RT(detOpts(1), {});
    RT.run([&](MonitoredThread &T0) {
      Tid Child = T0.fork([](MonitoredThread &T) { T.beginAtomic("open"); });
      T0.join(Child);
    });
  };
  EXPECT_DEATH(Unclosed(), "velodrome rt: T1 exits inside an atomic block");
}

} // namespace
} // namespace velo
