//===- tests/SupervisorTest.cpp - support/Supervisor unit tests -----------===//
//
// Each test runs the supervisor in a forked child, so the test process
// keeps its own signal dispositions, and reads what happened from the
// child's exit status, its stderr and a file the workers append to.
//
//===----------------------------------------------------------------------===//

#include "support/Supervisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace velo {
namespace {

std::string tempPath(const char *Stem) {
  return ::testing::TempDir() + "velo_supervisor_" +
         std::to_string(::getpid()) + "_" + Stem;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Append one byte to Path: the workers count their runs this way.
void appendByte(const std::string &Path, char C) {
  std::ofstream(Path, std::ios::app) << C;
}

/// Runs supervise() in a child process group of its own.
struct SupervisorRun {
  std::string Log = tempPath("log"), Stderr = tempPath("stderr");
  pid_t Pid = -1;

  SupervisorRun() {
    std::remove(Log.c_str());
    std::remove(Stderr.c_str());
  }
  ~SupervisorRun() {
    if (Pid > 0) {
      ::kill(-Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    std::remove(Log.c_str());
    std::remove(Stderr.c_str());
  }

  void start(const SupervisorOptions &O, std::function<int()> Worker,
             std::function<bool(double)> Progressed,
             std::function<std::string(const WorkerCrash &)> Record) {
    Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      ::setpgid(0, 0);
      if (!std::freopen(Stderr.c_str(), "w", stderr))
        std::_Exit(126);
      int Rc = supervise(O, Worker, Progressed, Record);
      std::fflush(nullptr);
      std::_Exit(Rc);
    }
    ::setpgid(Pid, Pid);
  }

  /// The supervisor's exit status (128+N when a signal killed it), or -1
  /// when it did not finish within TimeoutSecs.
  int wait(int TimeoutSecs = 20) {
    for (int I = 0; I < TimeoutSecs * 100; ++I) {
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return WIFSIGNALED(Status) ? 128 + WTERMSIG(Status)
                                   : WEXITSTATUS(Status);
      }
      ::usleep(10 * 1000);
    }
    return -1;
  }

  /// Block until the workers have appended N bytes to the log.
  bool awaitLog(size_t N) {
    for (int I = 0; I < 2000; ++I) {
      if (readFile(Log).size() >= N)
        return true;
      ::usleep(5 * 1000);
    }
    return false;
  }
};

std::string noRecord(const WorkerCrash &) { return "noted"; }

TEST(SupervisorTest, WorkerExitStatusPassesThroughWithoutRestart) {
  SupervisorRun Run;
  const std::string Log = Run.Log;
  Run.start(
      SupervisorOptions(),
      [&Log] {
        appendByte(Log, 'w');
        return 7;
      },
      [](double) { return false; }, noRecord);
  EXPECT_EQ(Run.wait(), 7);
  EXPECT_EQ(readFile(Run.Log), "w") << "an exit is never restarted";
  EXPECT_EQ(readFile(Run.Stderr), "");
}

TEST(SupervisorTest, RestartsWhileTheWorkerMakesProgress) {
  // Every crash makes progress, so each opens a new window, and two
  // crashes per window are allowed: the third run finishes.
  SupervisorRun Run;
  const std::string Log = Run.Log;
  SupervisorOptions O;
  O.MaxCrashes = 2;
  Run.start(
      O,
      [&Log] {
        appendByte(Log, 'w');
        const std::string Runs = readFile(Log);
        if (std::count(Runs.begin(), Runs.end(), 'w') < 3)
          ::raise(SIGKILL);
        return 0;
      },
      [](double) { return true; },
      [&Log](const WorkerCrash &C) {
        appendByte(Log, C.GivingUp ? 'G' : static_cast<char>('0' + C.InWindow));
        return "noted";
      });
  EXPECT_EQ(Run.wait(), 0);
  EXPECT_EQ(readFile(Run.Log), "w1w1w");
  const std::string Err = readFile(Run.Stderr);
  EXPECT_NE(Err.find("supervisor: worker killed by signal 9 after "),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("(crash 1 of 2 in this window); noted; restarting\n"),
            std::string::npos)
      << Err;
}

TEST(SupervisorTest, GivesUpAfterMaxCrashesInOneWindow) {
  SupervisorRun Run;
  const std::string Log = Run.Log;
  SupervisorOptions O;
  O.MaxCrashes = 3;
  Run.start(
      O,
      [&Log] {
        appendByte(Log, 'w');
        ::raise(SIGUSR1);
        return 0;
      },
      [](double) { return false; },
      [&Log](const WorkerCrash &C) {
        appendByte(Log, C.GivingUp ? 'G' : static_cast<char>('0' + C.InWindow));
        return "signal " + std::to_string(C.Signal);
      });
  EXPECT_EQ(Run.wait(), 4);
  EXPECT_EQ(readFile(Run.Log), "w1w2wG")
      << "record hears of every crash and is told which is the last";
  const std::string Err = readFile(Run.Stderr);
  EXPECT_NE(Err.find("(crash 3 of 3 in this window); signal " +
                     std::to_string(SIGUSR1) + "; giving up\n"),
            std::string::npos)
      << Err;
}

/// Start a worker that appends its mark and then waits to be stopped;
/// with IgnoreTerm it shrugs SIGTERM off.
void startStoppableWorker(SupervisorRun &Run, const SupervisorOptions &O,
                          bool IgnoreTerm) {
  const std::string Log = Run.Log;
  Run.start(
      O,
      [Log, IgnoreTerm]() -> int {
        if (IgnoreTerm)
          std::signal(SIGTERM, SIG_IGN);
        appendByte(Log, 'w');
        for (;;)
          ::pause();
      },
      [](double) { return false; }, noRecord);
}

TEST(SupervisorTest, StopSignalEscalatesToSigkillAfterTheGraceWindow) {
  SupervisorRun Run;
  SupervisorOptions O;
  O.GraceMillis = 300;
  startStoppableWorker(Run, O, /*IgnoreTerm=*/true);
  ASSERT_TRUE(Run.awaitLog(1));
  const auto Start = std::chrono::steady_clock::now();
  ASSERT_EQ(::kill(Run.Pid, SIGTERM), 0);
  EXPECT_EQ(Run.wait(), 128 + SIGTERM);
  EXPECT_GE(std::chrono::steady_clock::now() - Start,
            std::chrono::milliseconds(300));
  const std::string Err = readFile(Run.Stderr);
  EXPECT_NE(Err.find("supervisor: worker did not stop within 300 ms; "
                     "escalating to SIGKILL\n"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("supervisor: stopped by signal 15\n"), std::string::npos)
      << Err;
}

TEST(SupervisorTest, StopSignalNeedsNoEscalationWhenTheWorkerComplies) {
  SupervisorRun Run;
  SupervisorOptions O;
  O.GraceMillis = 10000;
  startStoppableWorker(Run, O, /*IgnoreTerm=*/false);
  ASSERT_TRUE(Run.awaitLog(1));
  const auto Start = std::chrono::steady_clock::now();
  ASSERT_EQ(::kill(Run.Pid, SIGTERM), 0);
  EXPECT_EQ(Run.wait(), 128 + SIGTERM);
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::milliseconds(5000));
  EXPECT_EQ(readFile(Run.Stderr), "supervisor: stopped by signal 15\n");
  EXPECT_EQ(readFile(Run.Log), "w") << "a stopped worker is not restarted";
}

} // namespace
} // namespace velo
