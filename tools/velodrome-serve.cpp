//===- tools/velodrome-serve.cpp - Multi-tenant analysis daemon -----------===//
//
// Long-lived daemon form of velodrome-check: clients open named sessions
// over a unix-domain (or loopback TCP) socket, stream VELOTRC event frames,
// and receive a verdict byte-identical to what `velodrome-check` would
// print for the same stream. Sessions are mutually fault-isolated; idle
// ones evict to snapshots; with --state-dir they survive daemon restarts,
// and under --supervise the daemon itself restarts after a crash with
// exponential backoff. `velodrome-serve --help` lists the options, and
// docs/OPERATIONS.md §6 specifies the service.
//
// exit: 0 clean shutdown, 2 usage/setup error,
//       4 crashed repeatedly under --supervise,
//       128+N stopped by signal N
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/ParseInt.h"
#include "support/Supervisor.h"
#include "support/Syscalls.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace velo;
using namespace velo::serve;

namespace {

struct ToolOptions {
  ServerOptions Srv;
  SupervisorOptions Sup;
};

/// Returns -1 to go on, else the status to exit with.
int parseArgs(int Argc, char **Argv, ToolOptions &O) {
  O.Srv.Verbose = true;
  std::vector<Flag> Rows = {
      stringFlag("--socket=PATH", O.Srv.SocketPath, "unix-domain listener"),
      {"--tcp=PORT",
       [&O](const std::string &V) {
         uint64_t Port = 0;
         if (!parseU64(V.c_str(), Port) || Port > 65535)
           return false;
         O.Srv.TcpPort = static_cast<int>(Port);
         return true;
       },
       "loopback TCP listener (0 = ephemeral; the bound port is printed as "
       "\"tcp port: N\")"},
      u64Flag("--workers=N", O.Srv.Workers,
              "analysis worker threads (default 2)", 1, 1024),
      u64Flag("--max-sessions=N", O.Srv.MaxSessions,
              "concurrent session cap (default 64)", 1),
      u64Flag("--queue-frames=N", O.Srv.QueueFrames,
              "per-session queue bound = client credit (default 8)", 1),
      u64Flag("--idle-evict-ms=MS", O.Srv.IdleEvictMillis,
              "evict idle sessions to snapshots (0 = off)"),
      u64Flag("--frame-timeout-ms=MS", O.Srv.FrameTimeoutMillis,
              "slow-loris partial-frame deadline (default 10000)"),
      stringFlag("--state-dir=DIR", O.Srv.StateDir,
                 "durable session snapshots (resume across restarts)"),
      {"--fault-at=SPEC",
       [&O](const std::string &V) {
         std::string Err;
         return parseFaultSpec(V, O.Srv.Faults, Err);
       },
       "deterministic fault injection: a comma list of kill-worker:N, "
       "enomem:N, eagain:N, wedge:N:MS, evict:N (overrides "
       "VELO_SERVE_FAULT)"},
      boolFlag("--quiet", O.Srv.Verbose, "suppress session lifecycle logging",
               false),
  };
  addFlags(Rows, governorFlags(O.Srv.SessionLimits));
  addFlags(Rows, supervisionFlags(O.Sup));
  const FlagTable Table{
      "velodrome-serve --socket=PATH [options]", std::move(Rows),
      "the caps are each session's defaults; a HELLO with caps overrides "
      "them\n"
      "exit: 0 clean shutdown, 2 usage/setup error,\n"
      "      4 crashed repeatedly under --supervise, 128+N stopped by "
      "signal N\n"};
  // The environment's faults go in first, so --fault-at overrides them.
  std::string EnvErr;
  bool EnvOk = applyFaultEnv(O.Srv.Faults, EnvErr);
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(Argc, Argv, Operands); Rc >= 0)
    return Rc;
  if (O.Srv.SocketPath.empty() && O.Srv.TcpPort < 0)
    return Table.usageError("--socket or --tcp is required");
  if (!EnvOk) {
    std::fprintf(stderr, "error: VELO_SERVE_FAULT: %s\n", EnvErr.c_str());
    return 2;
  }
  return -1;
}

Server *ActiveServer = nullptr;

int runDaemon(const ToolOptions &O) {
  Server Srv(O.Srv);
  std::string Err;
  if (!Srv.start(Err)) {
    std::fprintf(stderr, "velodrome-serve: %s\n", Err.c_str());
    return 2;
  }
  ActiveServer = &Srv;
  installStopHandlers([] {
    if (ActiveServer)
      ActiveServer->requestStop(); // atomic store + pipe write: signal-safe
  });
  if (!O.Srv.SocketPath.empty())
    std::printf("listening on %s\n", O.Srv.SocketPath.c_str());
  if (O.Srv.TcpPort >= 0)
    std::printf("tcp port: %d\n", Srv.tcpPort());
  std::fflush(stdout);
  Srv.run();
  ActiveServer = nullptr;
  if (int Sig = stopSignal()) {
    std::fprintf(stderr,
                 "velodrome-serve: stopped by signal %d; sessions %s\n", Sig,
                 O.Srv.StateDir.empty() ? "discarded (no --state-dir)"
                                        : "snapshotted for resume");
    return 128 + Sig;
  }
  return 0;
}

/// A daemon that served for 30 s before dying earned a fresh crash window.
/// Every crash appends a line to a ledger next to the session state, so an
/// operator (or a test) can see what the supervisor observed.
int runSupervised(const ToolOptions &O) {
  if (O.Srv.StateDir.empty())
    std::fprintf(stderr,
                 "velodrome-serve: warning: --supervise without "
                 "--state-dir; sessions will not survive a restart\n");
  const std::string Dir = O.Srv.StateDir.empty() ? "." : O.Srv.StateDir;
  return supervise(
      O.Sup, [&O] { return runDaemon(O); },
      [](double UpSecs) { return UpSecs >= 30.0; },
      [&Dir](const WorkerCrash &C) {
        std::ofstream Out(Dir + "/velodrome-serve.crashes",
                          std::ios::out | std::ios::app);
        Out << "worker killed by signal " << C.Signal << " (crash "
            << C.InWindow << " in this window); sessions resume from " << Dir
            << "\n";
        return "crash log " + Dir + "/velodrome-serve.crashes";
      });
}

} // namespace

int main(int argc, char **argv) {
  // A disconnecting client must surface as EPIPE on the write, never as
  // SIGPIPE daemon death.
  sys::ignoreSigpipe();
  ToolOptions O;
  if (int Rc = parseArgs(argc, argv, O); Rc >= 0)
    return Rc;
  if (O.Sup.Enabled)
    return runSupervised(O);
  return runDaemon(O);
}
