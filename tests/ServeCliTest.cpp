//===- tests/ServeCliTest.cpp - velodrome-serve end-to-end tests ----------===//
//
// Drives the installed velodrome-serve binary as a deployment would: a
// daemon process (fork/exec), real unix-domain sockets, the library Client
// streaming real traces, and the service contract checked against the
// velodrome-check binary's stdout on the same trace file — byte for byte.
// Also the home of the cross-process fault matrix: injected ENOMEM, torn
// frames and disconnects with resume, supervised SIGKILL crash/restart
// with state-dir recovery, and graceful SIGTERM shutdown that persists
// in-flight sessions.
//
//===----------------------------------------------------------------------===//

#include "events/BinaryWriter.h"
#include "events/TraceGen.h"
#include "events/TraceText.h"
#include "serve/Client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef VELO_SERVE_BIN
#define VELO_SERVE_BIN "velodrome-serve"
#endif
#ifndef VELO_CHECK_BIN
#define VELO_CHECK_BIN "velodrome-check"
#endif
#ifndef VELO_TEST_DATA_DIR
#define VELO_TEST_DATA_DIR "tests/data"
#endif

namespace velo {
namespace serve {
namespace {

/// Clients race the daemon closing NAK'd connections; a late write must
/// come back as EPIPE, not kill the test runner.
const struct SigpipeGuard {
  SigpipeGuard() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipe;

std::string uniquePath(const char *Stem, const char *Ext) {
  static std::atomic<unsigned> Counter{0};
  return "/tmp/velo-servecli-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + "-" + Stem + Ext;
}

Trace genTrace(uint64_t Seed, size_t Steps = 600, unsigned Threads = 4) {
  TraceGenOptions Opts;
  Opts.Threads = Threads;
  Opts.Vars = Threads * 8;
  Opts.Locks = Threads;
  Opts.Steps = Steps;
  Opts.GuardedAccessPct = 60;
  return generateRandomTrace(Seed, Opts);
}

/// What `velodrome-check [flags] <path>` prints on stdout, plus its exit
/// code.
int checkCli(const std::string &TracePath, std::string &Stdout,
             const std::string &Flags = "") {
  Stdout.clear();
  std::string Cmd = std::string(VELO_CHECK_BIN) + " " + Flags + " " +
                    TracePath + " 2>/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Stdout.append(Buf, N);
  int Status = pclose(P);
  if (Status < 0)
    return -1;
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return WEXITSTATUS(Status);
}

/// The velodrome-serve binary as a child process.
struct Daemon {
  pid_t Pid = -1;
  std::string Socket;
  int OutFd = -1; ///< the daemon's stdout, when start() captured it

  void start(std::vector<std::string> ExtraArgs,
             const std::string &FaultEnv = "", bool CaptureStdout = false) {
    Socket = uniquePath("daemon", ".sock");
    std::vector<std::string> Args = {VELO_SERVE_BIN, "--socket=" + Socket,
                                     "--quiet"};
    for (auto &A : ExtraArgs)
      Args.push_back(A);
    int Out[2] = {-1, -1};
    if (CaptureStdout) {
      ASSERT_EQ(::pipe(Out), 0);
    }
    Pid = ::fork();
    ASSERT_GE(Pid, 0) << "fork failed";
    if (Pid == 0) {
      if (CaptureStdout) {
        ::dup2(Out[1], STDOUT_FILENO);
        ::close(Out[0]);
        ::close(Out[1]);
      }
      if (!FaultEnv.empty())
        ::setenv("VELO_SERVE_FAULT", FaultEnv.c_str(), 1);
      std::vector<char *> Argv;
      for (auto &A : Args)
        Argv.push_back(const_cast<char *>(A.c_str()));
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      std::perror("execv velodrome-serve");
      ::_exit(127);
    }
    if (CaptureStdout) {
      ::close(Out[1]);
      OutFd = Out[0];
    }
  }

  /// The next line of the captured stdout ("" at its end).
  std::string readLine() {
    std::string Line;
    char C;
    while (::read(OutFd, &C, 1) == 1 && C != '\n')
      Line += C;
    return Line;
  }

  bool alive() const { return Pid > 0 && ::kill(Pid, 0) == 0; }

  /// SIGTERM and reap; returns the wait exit code (128+sig for signals).
  int stop() {
    if (Pid <= 0)
      return -1;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    for (int I = 0; I < 500; ++I) { // 5s before escalating
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid) {
        Pid = -1;
        ::unlink(Socket.c_str());
        if (WIFSIGNALED(Status))
          return 128 + WTERMSIG(Status);
        return WEXITSTATUS(Status);
      }
      ::usleep(10 * 1000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
    ::unlink(Socket.c_str());
    return -2; // had to escalate — callers treat as failure
  }

  ~Daemon() {
    if (OutFd >= 0)
      ::close(OutFd);
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      ::unlink(Socket.c_str());
    }
  }
};

/// Connect with retries — covers daemon startup and supervised restarts.
bool connectRetry(Client &Cl, const std::string &Socket,
                  unsigned TimeoutMillis = 10000) {
  Cl.ConnectTimeoutMillis = TimeoutMillis;
  std::string Err;
  return Cl.connectUnix(Socket, Err);
}

/// One full session against the daemon: connect, HELLO (resuming if the
/// daemon already knows the name), stream, FINISH, collect the result.
bool runSession(const std::string &Socket, const std::string &Name,
                const Trace &T, RunResult &R, std::string &Err,
                size_t EventsPerFrame = 64, ClientFaults Faults = {},
                uint64_t CheckpointEvery = 0, bool Resume = false,
                const std::string &BackendSel = "all") {
  Client Cl;
  Cl.Faults = Faults;
  if (!connectRetry(Cl, Socket)) {
    Err = "connect timed out";
    return false;
  }
  HelloMsg H;
  H.Name = Name;
  H.Resume = Resume;
  H.BackendSel = BackendSel;
  HelloOkMsg Ok;
  NakMsg Nak;
  if (!Cl.hello(H, Ok, Err, &Nak)) {
    if (!Nak.Reason.empty()) {
      R.GotNak = true;
      R.Nak = Nak;
    }
    return false;
  }
  return Cl.run(T.symbols(), std::vector<Event>(T.begin(), T.end()), Ok,
                EventsPerFrame, CheckpointEvery, R, Err);
}

/// The service contract: the daemon's VERDICT for a trace must be
/// byte-identical to what `velodrome-check [flags] <path>` prints for it.
void expectMatchesCheckCli(const RunResult &R, const std::string &TracePath,
                           const std::string &Flags = "") {
  ASSERT_TRUE(R.GotVerdict) << (R.GotNak ? "NAK: " + R.Nak.Reason
                                         : "no verdict");
  std::string Want;
  int WantExit = checkCli(TracePath, Want, Flags);
  ASSERT_GE(WantExit, 0) << "velodrome-check failed to run";
  EXPECT_EQ(R.Verdict.Report, Want)
      << "daemon report differs from velodrome-check stdout";
  EXPECT_EQ(R.Verdict.ExitCode, WantExit);
}

std::string writeTraceFile(const Trace &T, const char *Stem) {
  std::string Path = uniquePath(Stem, ".velotrc");
  std::string Err;
  EXPECT_TRUE(writeBinaryTraceFile(T, Path, Err)) << Err;
  return Path;
}

TEST(ServeCliTest, VerdictByteIdenticalToCheckCli) {
  Daemon D;
  D.start({});
  ASSERT_GT(D.Pid, 0);
  std::vector<Trace> Inputs = {genTrace(3), genTrace(17)};
  // The lock-order checker's fixture, so "deadlock" has a cycle to report.
  Trace Dlk;
  std::string Err;
  ASSERT_TRUE(readTraceFile(std::string(VELO_TEST_DATA_DIR) +
                                "/deadlock_ab.trace",
                            Dlk, Err))
      << Err;
  Inputs.push_back(Dlk);
  // HELLO's BackendSel takes velodrome-check's whole --backend vocabulary.
  for (const char *Sel : {"velodrome", "basic", "aero", "atomizer", "eraser",
                          "hb", "deadlock", "all"})
    for (const Trace &T : Inputs) {
      std::string Path = writeTraceFile(T, "verdict");
      RunResult R;
      // The session is named after the trace file so the report header
      // (the CLI prints its input path there) lines up byte-for-byte.
      ASSERT_TRUE(runSession(D.Socket, Path, T, R, Err, 64, {}, 0, false,
                             Sel))
          << Sel << ": " << Err;
      expectMatchesCheckCli(R, Path, std::string("--backend=") + Sel);
      ::unlink(Path.c_str());
    }
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

/// Flag values the daemon must refuse before it binds anything. timeout(1)
/// turns a wrongly accepted flag (a daemon that starts serving) into a
/// failure instead of a hang.
TEST(ServeCliTest, UsageErrorsExitTwo) {
  auto serve = [](const std::string &Args) {
    int Status = std::system(("timeout 10 " + std::string(VELO_SERVE_BIN) +
                              " " + Args + " > /dev/null 2>&1")
                                 .c_str());
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  };
  std::string Sock = " --socket=" + uniquePath("usage", ".sock");
  EXPECT_EQ(serve(""), 2) << "no listener";
  EXPECT_EQ(serve("--bogus" + Sock), 2);
  EXPECT_EQ(serve("--workers=0" + Sock), 2);
  EXPECT_EQ(serve("--max-events=-1" + Sock), 2);
  EXPECT_EQ(serve("--supervise --max-crashes=0" + Sock), 2)
      << "zero crashes allowed is a bad value, as in velodrome-check";
  // 2^44 MB is 2^64 bytes: refused, not wrapped to 0 (unlimited) or 1 MiB.
  for (const char *Mb : {"17592186044416", "17592186044417"})
    EXPECT_EQ(serve(std::string("--max-memory-mb=") + Mb + Sock), 2) << Mb;
}

/// A session over loopback TCP: --tcp=0 binds an ephemeral port, prints it
/// as "tcp port: N", and serves there as on the unix socket.
TEST(ServeCliTest, TcpPortZeroServesOnThePrintedPort) {
  Daemon D;
  D.start({"--tcp=0"}, "", /*CaptureStdout=*/true);
  ASSERT_GT(D.Pid, 0);
  std::string Line = D.readLine();
  if (Line.rfind("listening on ", 0) == 0)
    Line = D.readLine();
  ASSERT_EQ(Line.rfind("tcp port: ", 0), 0u) << Line;
  int Port = std::atoi(Line.c_str() + 10);
  ASSERT_GT(Port, 0) << Line;

  Trace T = genTrace(5);
  std::string Path = writeTraceFile(T, "tcp");
  Client Cl;
  Cl.ConnectTimeoutMillis = 10000;
  std::string Err;
  ASSERT_TRUE(Cl.connectTcp(Port, Err)) << Err;
  HelloMsg H;
  H.Name = Path;
  HelloOkMsg Ok;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  RunResult R;
  ASSERT_TRUE(Cl.run(T.symbols(), std::vector<Event>(T.begin(), T.end()), Ok,
                     64, 0, R, Err))
      << Err;
  expectMatchesCheckCli(R, Path);
  ::unlink(Path.c_str());
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

TEST(ServeCliTest, MaxSessionsRefusesASecondConcurrentSession) {
  Daemon D;
  D.start({"--max-sessions=1"});
  ASSERT_GT(D.Pid, 0);
  Trace T = genTrace(21);
  std::string Path = writeTraceFile(T, "first");
  Client First;
  ASSERT_TRUE(connectRetry(First, D.Socket));
  HelloMsg H;
  H.Name = Path;
  HelloOkMsg Ok;
  std::string Err;
  ASSERT_TRUE(First.hello(H, Ok, Err)) << Err;

  Client Second;
  ASSERT_TRUE(connectRetry(Second, D.Socket));
  HelloMsg H2;
  H2.Name = "second";
  HelloOkMsg Ok2;
  NakMsg Nak;
  EXPECT_FALSE(Second.hello(H2, Ok2, Err, &Nak));
  EXPECT_NE(Nak.Reason.find("session limit reached (1)"), std::string::npos)
      << Nak.Reason;

  // The first session is untouched.
  RunResult R;
  ASSERT_TRUE(First.run(T.symbols(), std::vector<Event>(T.begin(), T.end()),
                        Ok, 64, 0, R, Err))
      << Err;
  expectMatchesCheckCli(R, Path);
  ::unlink(Path.c_str());
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

TEST(ServeCliTest, QueueFramesIsTheHelloCredit) {
  Daemon D;
  D.start({"--queue-frames=3"});
  ASSERT_GT(D.Pid, 0);
  Client Cl;
  ASSERT_TRUE(connectRetry(Cl, D.Socket));
  HelloMsg H;
  H.Name = "credit";
  HelloOkMsg Ok;
  std::string Err;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  EXPECT_EQ(Ok.Credit, 3u);
  Cl.close();
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

/// A cap that nothing would enforce draws a NAK naming it, whether the
/// HELLO carries it or the daemon's own flag applies it to the session:
/// hb runs no governed checker, and only Velodrome has the node probe.
TEST(ServeCliTest, CapsNothingEnforcesDrawANak) {
  Daemon D;
  D.start({"--max-events=100000"});
  ASSERT_GT(D.Pid, 0);
  struct Case {
    const char *Sel;
    uint64_t MaxLiveNodes; ///< a HELLO cap; 0 takes the daemon's
    const char *Refused;   ///< the flag the NAK names; null = accepted
  };
  for (const Case &C : {Case{"hb", 0, "--max-events"},
                        Case{"aero", 1, "--max-live-nodes"},
                        Case{"aero", 0, nullptr},
                        Case{"velodrome", 1, nullptr}}) {
    Client Cl;
    ASSERT_TRUE(connectRetry(Cl, D.Socket));
    HelloMsg H;
    H.Name = std::string("caps-") + C.Sel;
    H.BackendSel = C.Sel;
    H.Limits.MaxLiveNodes = C.MaxLiveNodes;
    HelloOkMsg Ok;
    NakMsg Nak;
    std::string Err;
    EXPECT_EQ(Cl.hello(H, Ok, Err, &Nak), C.Refused == nullptr)
        << C.Sel << ": " << Err;
    if (C.Refused) {
      EXPECT_TRUE(Nak.Fatal);
      EXPECT_EQ(Nak.Reason.rfind(std::string(C.Refused) + " needs ", 0), 0u)
          << Nak.Reason;
    }
  }
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

/// --idle-evict-ms: a session that sends nothing is snapshotted to the
/// state directory while its client still holds it, and the verdict after
/// rehydration is velodrome-check's.
TEST(ServeCliTest, IdleSessionEvictsToTheStateDir) {
  std::string StateDir = uniquePath("idlestate", "");
  ASSERT_EQ(::mkdir(StateDir.c_str(), 0755), 0);
  Daemon D;
  D.start({"--state-dir=" + StateDir, "--idle-evict-ms=50"});
  ASSERT_GT(D.Pid, 0);
  Trace T = genTrace(23);
  std::string Path = writeTraceFile(T, "idle");
  Client Cl;
  ASSERT_TRUE(connectRetry(Cl, D.Socket));
  HelloMsg H;
  H.Name = Path;
  HelloOkMsg Ok;
  std::string Err;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;

  auto SessionFiles = [&StateDir] {
    size_t N = 0;
    for (const auto &E : std::filesystem::directory_iterator(StateDir))
      N += E.path().extension() == ".session";
    return N;
  };
  for (int I = 0; I < 500 && SessionFiles() == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(SessionFiles(), 1u) << "the idle session was never evicted";

  RunResult R;
  ASSERT_TRUE(Cl.run(T.symbols(), std::vector<Event>(T.begin(), T.end()), Ok,
                     64, 0, R, Err))
      << Err;
  expectMatchesCheckCli(R, Path);
  ::unlink(Path.c_str());
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
  std::filesystem::remove_all(StateDir);
}

TEST(ServeCliTest, FaultMatrixIsolatesSessionsAndDaemonSurvives) {
  // Injected ENOMEM (via the VELO_SERVE_FAULT env contract) kills exactly
  // one session; clients inflicting torn frames, abrupt disconnects and
  // slow-loris dribbles on their own connections still converge — after a
  // resume — to verdicts byte-identical to velodrome-check. The daemon
  // never exits.
  Daemon D;
  D.start({"--frame-timeout-ms=10000"}, /*FaultEnv=*/"enomem:2");
  ASSERT_GT(D.Pid, 0);

  // Doomed session first (sequentially): its second frame is frame #2 of
  // the daemon's global counter, where the simulated ENOMEM fires.
  {
    Trace T = genTrace(99);
    RunResult R;
    std::string Err;
    runSession(D.Socket, "doomed", T, R, Err, /*EventsPerFrame=*/64);
    ASSERT_TRUE(R.GotNak) << "expected a session-fatal NAK";
    EXPECT_NE(R.Nak.Reason.find("memory"), std::string::npos) << R.Nak.Reason;
    EXPECT_FALSE(R.GotVerdict);
  }
  ASSERT_TRUE(D.alive()) << "a session fault must not take the daemon down";

  // Now the concurrent matrix: 8 sessions, a third of them hostile.
  struct Case {
    std::string Path;
    Trace T;
    RunResult R;
    std::string Err;
    bool Ok = false;
    ClientFaults Faults;
  };
  std::vector<Case> Cases(8);
  for (size_t I = 0; I < Cases.size(); ++I) {
    Cases[I].T = genTrace(100 + I, 400 + 40 * I);
    Cases[I].Path = writeTraceFile(Cases[I].T, "matrix");
    if (I % 3 == 1)
      Cases[I].Faults.TornAfterFrames = 3;
    if (I % 3 == 2)
      Cases[I].Faults.DisconnectAfterFrames = 4;
    if (I == 0) {
      Cases[I].Faults.SlowBytesPerWrite = 512;
      Cases[I].Faults.SlowDelayMillis = 1;
    }
  }
  std::vector<std::thread> Drivers;
  for (auto &C : Cases)
    Drivers.emplace_back([&C, &D] {
      // Hostile clients trip their own fault, then reconnect clean and
      // resume; the server must have kept the session.
      C.Ok = runSession(D.Socket, C.Path, C.T, C.R, C.Err,
                        /*EventsPerFrame=*/32, C.Faults);
      if (!C.R.GotVerdict && (C.Faults.TornAfterFrames ||
                              C.Faults.DisconnectAfterFrames)) {
        // The server may still hold the session InFlight for a moment
        // after the abrupt hangup; resume is briefly refused as busy.
        for (int Try = 0; Try < 50 && !C.R.GotVerdict; ++Try) {
          C.R = RunResult();
          C.Ok = runSession(D.Socket, C.Path, C.T, C.R, C.Err,
                            /*EventsPerFrame=*/32, {}, 0, /*Resume=*/true);
          if (!C.R.GotVerdict)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
    });
  for (auto &Th : Drivers)
    Th.join();
  for (auto &C : Cases) {
    ASSERT_TRUE(C.Ok) << C.Err;
    expectMatchesCheckCli(C.R, C.Path);
    ::unlink(C.Path.c_str());
  }
  EXPECT_TRUE(D.alive());
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

TEST(ServeCliTest, SupervisedKillWorkerRestartsAndSessionResumes) {
  // kill-worker SIGKILLs the daemon process mid-frame. Under --supervise
  // it restarts (exponential backoff) and the client resumes its named
  // session from the state directory; the final verdict must still match
  // velodrome-check. Checkpoints every frame keep durable progress ahead
  // of the crash point so the resume loop converges.
  std::string StateDir = uniquePath("state", "");
  ASSERT_EQ(::mkdir(StateDir.c_str(), 0755), 0);
  Daemon D;
  D.start({"--supervise", "--state-dir=" + StateDir, "--max-crashes=10",
           "--fault-at=kill-worker:3"});
  ASSERT_GT(D.Pid, 0);

  Trace T = genTrace(7, 500);
  std::string Path = writeTraceFile(T, "supervised");
  RunResult R;
  bool Done = false;
  for (int Attempt = 0; Attempt < 12 && !Done; ++Attempt) {
    R = RunResult();
    std::string Err;
    // Frame the stream so at least one checkpoint lands before frame 3:
    // frame 1 = events, frame 2 = CHECKPOINT, frame 3 dies.
    if (runSession(D.Socket, Path, T, R, Err, /*EventsPerFrame=*/128, {},
                   /*CheckpointEvery=*/1, /*Resume=*/Attempt > 0) &&
        R.GotVerdict)
      Done = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(Done) << "session never reached a verdict across restarts";
  expectMatchesCheckCli(R, Path);
  ::unlink(Path.c_str());
  EXPECT_TRUE(D.alive()) << "the supervisor must outlive worker crashes";
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

/// FaultInject.h: flags win over VELO_SERVE_FAULT. The environment alone
/// would fail the first session's first frame with ENOMEM; the flag moves
/// that fault past the end of the run.
TEST(ServeCliTest, FaultFlagOverridesEnv) {
  Daemon D;
  D.start({"--fault-at=enomem:1000"}, /*FaultEnv=*/"enomem:1");
  ASSERT_GT(D.Pid, 0);
  Trace T = genTrace(31);
  std::string Path = writeTraceFile(T, "faultflag");
  RunResult R;
  std::string Err;
  runSession(D.Socket, Path, T, R, Err);
  EXPECT_FALSE(R.GotNak) << R.Nak.Reason;
  expectMatchesCheckCli(R, Path);
  ::unlink(Path.c_str());
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

/// kill-worker:1 kills every incarnation of the daemon on its first
/// frame, so each crash is a rapid one: with --max-crashes=2 the
/// supervisor gives up on the second with exit 4, and the ledger in the
/// state directory holds one line per crash.
TEST(ServeCliTest, SupervisedGivesUpAfterRapidCrashes) {
  std::string StateDir = uniquePath("rapidstate", "");
  ASSERT_EQ(::mkdir(StateDir.c_str(), 0755), 0);
  Daemon D;
  D.start({"--supervise", "--state-dir=" + StateDir, "--max-crashes=2",
           "--fault-at=kill-worker:1"});
  ASSERT_GT(D.Pid, 0);
  Trace T = genTrace(37, 300);
  int Status = 0;
  bool Exited = false;
  for (int Attempt = 0; Attempt < 20 && !Exited; ++Attempt) {
    RunResult R;
    std::string Err;
    EXPECT_FALSE(runSession(D.Socket, "rapid-" + std::to_string(Attempt), T,
                            R, Err, /*EventsPerFrame=*/64, {}, 0,
                            /*Resume=*/false, "velodrome") &&
                 R.GotVerdict)
        << "no incarnation gets past its first frame";
    for (int I = 0; I < 100 && !Exited; ++I) {
      Exited = ::waitpid(D.Pid, &Status, WNOHANG) == D.Pid;
      if (!Exited)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(Exited) << "the supervisor never gave up";
  D.Pid = -1;
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 4);
  std::ifstream Ledger(StateDir + "/velodrome-serve.crashes");
  std::string Line;
  std::vector<std::string> Lines;
  while (std::getline(Ledger, Line))
    Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 2u);
  for (size_t I = 0; I < Lines.size(); ++I)
    EXPECT_EQ(Lines[I], "worker killed by signal 9 (crash " +
                            std::to_string(I + 1) +
                            " in this window); sessions resume from " +
                            StateDir);
  ::unlink(D.Socket.c_str());
  std::filesystem::remove_all(StateDir);
}

TEST(ServeCliTest, GracefulShutdownPersistsSessionsAcrossRestart) {
  // SIGTERM to a supervised daemon is forwarded to the worker, which
  // snapshots every live session to the state directory before exiting;
  // the whole process tree exits 128+SIGTERM within the grace window. A
  // fresh daemon over the same state directory resumes the session where
  // it left off, and the verdict is byte-identical to velodrome-check.
  std::string StateDir = uniquePath("gracestate", "");
  ASSERT_EQ(::mkdir(StateDir.c_str(), 0755), 0);
  Trace T = genTrace(11, 600);
  std::string Path = writeTraceFile(T, "graceful");
  std::vector<Event> Events(T.begin(), T.end());
  size_t Sent = std::min<size_t>(5 * 64, Events.size());

  std::string FirstSocket;
  {
    Daemon D;
    D.start({"--supervise", "--state-dir=" + StateDir});
    ASSERT_GT(D.Pid, 0);
    FirstSocket = D.Socket;
    // Stream part of the trace, then hang up mid-session (a complete-frame
    // disconnect, never a FINISH): the daemon owes nothing to this client
    // but must keep the session durable.
    Client Cl;
    Cl.Faults.DisconnectAfterFrames = 6; // HELLO + 5 events frames
    ASSERT_TRUE(connectRetry(Cl, D.Socket));
    HelloMsg H;
    H.Name = Path;
    HelloOkMsg Ok;
    std::string Err;
    ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
    RunResult R;
    ASSERT_TRUE(Cl.run(T.symbols(), Events, Ok, /*EventsPerFrame=*/64,
                       /*CheckpointEvery=*/0, R, Err))
        << Err;
    ASSERT_TRUE(R.FaultTripped);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(D.stop(), 128 + SIGTERM);
  }

  Daemon D2;
  D2.start({"--state-dir=" + StateDir});
  ASSERT_GT(D2.Pid, 0);
  Client Cl;
  ASSERT_TRUE(connectRetry(Cl, D2.Socket));
  HelloMsg H;
  H.Name = Path;
  H.Resume = true;
  HelloOkMsg Ok;
  std::string Err;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  EXPECT_EQ(Ok.Events, Sent)
      << "resumed session lost durable progress across the shutdown";
  RunResult R;
  ASSERT_TRUE(Cl.run(T.symbols(), Events, Ok, /*EventsPerFrame=*/64, 0, R,
                     Err))
      << Err;
  expectMatchesCheckCli(R, Path);
  ::unlink(Path.c_str());
  EXPECT_EQ(D2.stop(), 128 + SIGTERM);
}

} // namespace
} // namespace serve
} // namespace velo
