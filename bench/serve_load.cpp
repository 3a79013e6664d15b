//===- bench/serve_load.cpp - Concurrent-session daemon throughput --------===//
//
// Load generator and gate for velodrome-serve: N concurrent client
// sessions stream generated traces at an in-process daemon (or an external
// one via --socket) and the aggregate events/sec is measured. The hard
// invariant always runs first: every session's verdict must be
// byte-identical to a directly-fed Session (the same pipeline
// velodrome-check builds) — the daemon adds concurrency, never semantics.
//
//   serve_load [options]          (`serve_load --help` lists them)
//
// --check gates: identity (always), then aggregate events/sec >= --min-eps
// (default 50000) when the host has at least 4 hardware threads; on
// smaller hosts the throughput gate is skipped unless --min-eps was given
// explicitly. Exit: 0 pass, 1 gate failed, 2 usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include "events/TraceGen.h"
#include "support/Flags.h"
#include "support/Stopwatch.h"
#include "support/Syscalls.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace velo;
using namespace velo::serve;

namespace {

/// Reference verdict: the trace through one directly-fed Session.
bool referenceVerdict(const Trace &T, const std::string &Name,
                      const std::string &BackendSel, std::string &Report,
                      int &Exit, std::string &Err) {
  Session S;
  SessionConfig C;
  C.Name = Name;
  C.BackendSel = BackendSel;
  if (!S.configure(C, Err))
    return false;
  S.symbols().Vars.syncFrom(T.symbols().Vars);
  S.symbols().Locks.syncFrom(T.symbols().Locks);
  S.symbols().Labels.syncFrom(T.symbols().Labels);
  for (const Event &E : T)
    if (!S.feed(E, Err))
      return false;
  if (!S.finish(Err))
    return false;
  Report = S.report();
  Exit = S.exitCode();
  return true;
}

struct SessionOutcome {
  bool Ok = false;
  std::string Error;
  VerdictMsg Verdict;
};

} // namespace

int main(int argc, char **argv) {
  sys::ignoreSigpipe();
  uint64_t Sessions = 8, EventsPer = 100000, Threads = 4, FrameEvents = 4096;
  uint64_t Workers = 4, Seed = 1, Reps = 3, ConnectTimeoutMs = 0;
  std::string BackendSel = "velodrome", ExternalSocket;
  bool Check = false, ExplicitGate = false;
  double MinEps = 50000;

  const FlagTable Table{
      "serve_load [options]",
      {u64Flag("--sessions=N", Sessions, "concurrent sessions (default 8)",
               1),
       u64Flag("--events=N", EventsPer,
               "approximate events per session (default 100000)", 1),
       u64Flag("--threads=N", Threads,
               "threads in each generated trace (default 4)", 1, UINT32_MAX),
       u64Flag("--frame-events=N", FrameEvents,
               "events per wire frame (default 4096)", 1),
       u64Flag("--workers=N", Workers, "daemon worker threads (default 4)"),
       stringFlag("--backend=SEL", BackendSel,
                  "session backend selection (default velodrome; 'all' "
                  "includes the quadratic reference checker)"),
       u64Flag("--seed=N", Seed, "generator seed (default 1)"),
       u64Flag("--reps=N", Reps, "timing repetitions, best-of (default 3)",
               1),
       stringFlag("--socket=PATH", ExternalSocket,
                  "drive an external daemon instead of in-process"),
       u64Flag("--connect-timeout-ms=N", ConnectTimeoutMs,
               "retry refused connects with backoff for up to N ms "
               "(default 0 = one attempt), for a daemon still coming up"),
       boolFlag("--check", Check,
                "gate: identity, then events/sec >= --min-eps"),
       {"--min-eps=X",
        [&](const std::string &V) {
          char *End = nullptr;
          MinEps = std::strtod(V.c_str(), &End);
          ExplicitGate = true;
          return !V.empty() && *End == '\0' && MinEps > 0;
        },
        "aggregate events/sec gate (default 50000); given, the gate runs "
        "even on small hosts"}},
      "exit: 0 pass, 1 gate failed, 2 usage/setup error\n"};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(argc, argv, Operands); Rc >= 0)
    return Rc;

  // Per-session workloads and reference verdicts (identity baseline).
  std::vector<Trace> Traces;
  std::vector<std::string> WantReport(Sessions);
  std::vector<int> WantExit(Sessions);
  uint64_t TotalEvents = 0;
  for (uint64_t I = 0; I < Sessions; ++I) {
    TraceGenOptions Opts;
    Opts.Threads = static_cast<uint32_t>(Threads);
    Opts.Vars = static_cast<uint32_t>(Threads) * 16;
    Opts.Locks = static_cast<uint32_t>(Threads);
    Opts.Steps = static_cast<size_t>(EventsPer);
    Opts.GuardedAccessPct = 60;
    Traces.push_back(generateRandomTrace(Seed * 7919 + I + 1, Opts));
    TotalEvents += Traces.back().size();
    std::string Err;
    if (!referenceVerdict(Traces[I], "load-" + std::to_string(I), BackendSel,
                          WantReport[I], WantExit[I], Err)) {
      std::fprintf(stderr, "reference run %llu failed: %s\n",
                   static_cast<unsigned long long>(I), Err.c_str());
      return 2;
    }
  }

  // Daemon: in-process unless --socket pointed us at a live one.
  std::unique_ptr<Server> Srv;
  std::thread Runner;
  std::string Socket = ExternalSocket;
  if (Socket.empty()) {
    Socket = "/tmp/velo-serve-load-" + std::to_string(::getpid()) + ".sock";
    ServerOptions SO;
    SO.SocketPath = Socket;
    SO.Workers = static_cast<unsigned>(Workers);
    SO.MaxSessions = Sessions + 4;
    SO.Verbose = false;
    Srv = std::make_unique<Server>(SO);
    std::string Err;
    if (!Srv->start(Err)) {
      std::fprintf(stderr, "daemon start failed: %s\n", Err.c_str());
      return 2;
    }
    Runner = std::thread([&] { Srv->run(); });
  }

  // One measured repetition: all sessions concurrently, wall-clocked
  // end-to-end (connect to verdict).
  auto runOnce = [&](const std::string &Tag,
                     std::vector<SessionOutcome> &Out) -> double {
    Out.assign(Sessions, SessionOutcome());
    Stopwatch Timer;
    std::vector<std::thread> Drivers;
    for (uint64_t I = 0; I < Sessions; ++I)
      Drivers.emplace_back([&, I] {
        SessionOutcome &R = Out[I];
        Client Cl;
        Cl.ConnectTimeoutMillis = static_cast<unsigned>(ConnectTimeoutMs);
        std::string Err;
        if (!Cl.connectUnix(Socket, Err)) {
          R.Error = Err;
          return;
        }
        HelloMsg H;
        H.Name = "load-" + std::to_string(I) + Tag;
        H.BackendSel = BackendSel;
        HelloOkMsg Ok;
        if (!Cl.hello(H, Ok, Err)) {
          R.Error = Err;
          return;
        }
        RunResult RR;
        if (!Cl.run(Traces[I].symbols(),
                    std::vector<Event>(Traces[I].begin(), Traces[I].end()),
                    Ok, static_cast<size_t>(FrameEvents), 0, RR, Err)) {
          R.Error = Err;
          return;
        }
        if (!RR.GotVerdict) {
          R.Error = RR.GotNak ? "NAK: " + RR.Nak.Reason : "no verdict";
          return;
        }
        R.Ok = true;
        R.Verdict = RR.Verdict;
      });
    for (auto &Th : Drivers)
      Th.join();
    return Timer.seconds();
  };

  // Identity first (and always); this run doubles as warm-up.
  std::vector<SessionOutcome> Out;
  runOnce("", Out);
  for (uint64_t I = 0; I < Sessions; ++I) {
    if (!Out[I].Ok) {
      std::fprintf(stderr, "FAIL: session %llu: %s\n",
                   static_cast<unsigned long long>(I), Out[I].Error.c_str());
      if (Srv)
        Srv->requestStop();
      if (Runner.joinable())
        Runner.join();
      return 1;
    }
    if (Out[I].Verdict.Report != WantReport[I] ||
        Out[I].Verdict.ExitCode != WantExit[I]) {
      std::fprintf(stderr,
                   "FAIL: session %llu verdict differs from the directly-fed "
                   "pipeline\n--- daemon ---\n%s--- direct ---\n%s",
                   static_cast<unsigned long long>(I),
                   Out[I].Verdict.Report.c_str(), WantReport[I].c_str());
      if (Srv)
        Srv->requestStop();
      if (Runner.joinable())
        Runner.join();
      return 1;
    }
  }
  std::printf("identity: %llu session verdicts byte-identical to the "
              "directly-fed pipeline\n",
              static_cast<unsigned long long>(Sessions));

  double Best = 1e30;
  for (uint64_t R = 0; R < Reps; ++R) {
    double Sec = runOnce("-r" + std::to_string(R), Out);
    bool AllOk = true;
    for (auto &O : Out)
      AllOk = AllOk && O.Ok;
    if (!AllOk) {
      std::fprintf(stderr, "FAIL: a timed repetition lost a session\n");
      if (Srv)
        Srv->requestStop();
      if (Runner.joinable())
        Runner.join();
      return 1;
    }
    if (Sec < Best)
      Best = Sec;
  }
  double Eps = TotalEvents / Best;
  std::printf("load: %llu sessions x ~%llu events, %llu daemon workers, "
              "frame %llu events\nbest: %.3fs  aggregate: %.0f events/sec\n",
              static_cast<unsigned long long>(Sessions),
              static_cast<unsigned long long>(EventsPer),
              static_cast<unsigned long long>(Workers),
              static_cast<unsigned long long>(FrameEvents), Best, Eps);

  if (Srv) {
    Srv->requestStop();
    if (Runner.joinable())
      Runner.join();
    ::unlink(Socket.c_str());
  }

  if (!Check)
    return 0;
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw < 4 && !ExplicitGate) {
    std::printf("throughput gate skipped: %u hardware thread(s) (identity "
                "gate already passed)\n",
                Hw);
    return 0;
  }
  if (Eps < MinEps) {
    std::fprintf(stderr, "FAIL: %.0f events/sec < gate %.0f\n", Eps, MinEps);
    return 1;
  }
  std::printf("gate: %.0f events/sec >= %.0f\n", Eps, MinEps);
  return 0;
}
