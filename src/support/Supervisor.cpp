//===- support/Supervisor.cpp - Restart a crashing worker -----------------===//

#include "support/Supervisor.h"

#include "support/Syscalls.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace velo {

namespace detail {
volatile std::sig_atomic_t StopSignal = 0;
} // namespace detail

namespace {

void (*volatile StopHook)() = nullptr;

void onStopSignal(int Sig) {
  detail::StopSignal = Sig;
  if (StopHook)
    StopHook();
}

void setStopDisposition(void (*Handler)(int)) {
  struct sigaction SA = {};
  SA.sa_handler = Handler;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

/// Forward Sig, give the worker GraceMillis to exit, then SIGKILL it.
/// Either way the worker is reaped into Status.
void stopWorker(pid_t Pid, int Sig, uint64_t GraceMillis, int &Status) {
  ::kill(Pid, Sig);
  for (uint64_t Waited = 0; Waited < GraceMillis; Waited += 20) {
    if (sys::waitpidRetry(Pid, &Status, WNOHANG) == Pid)
      return;
    ::usleep(20 * 1000);
  }
  std::fprintf(stderr,
               "supervisor: worker did not stop within %llu ms; escalating "
               "to SIGKILL\n",
               static_cast<unsigned long long>(GraceMillis));
  ::kill(Pid, SIGKILL);
  sys::waitpidRetry(Pid, &Status, 0);
}

} // namespace

void installStopHandlers(void (*OnStop)()) {
  StopHook = OnStop;
  setStopDisposition(onStopSignal);
}

void resetStopHandlers() { setStopDisposition(SIG_DFL); }

std::vector<Flag> supervisionFlags(SupervisorOptions &O) {
  return {boolFlag("--supervise", O.Enabled,
                   "run in a worker process, restarted when a signal kills "
                   "it"),
          u64Flag("--max-crashes=K", O.MaxCrashes,
                  "crashes in one window before giving up with exit 4 "
                  "(default 3)",
                  1),
          u64Flag("--grace-ms=N", O.GraceMillis,
                  "SIGTERM/SIGINT: wait N ms for the worker before SIGKILL "
                  "(default 2000)")};
}

int supervise(const SupervisorOptions &O, const std::function<int()> &Worker,
              const std::function<bool(double UpSecs)> &Progressed,
              const std::function<std::string(const WorkerCrash &)> &Record) {
  installStopHandlers();
  uint64_t InWindow = 0;
  for (;;) {
    std::fflush(nullptr);
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::perror("supervisor: fork");
      return 2;
    }
    if (Pid == 0) {
      resetStopHandlers();
      int Rc = Worker();
      // _Exit skips the atexit handlers and static destructors, which are
      // the parent's, and stdio flushing, which is done here.
      std::fflush(nullptr);
      std::_Exit(Rc);
    }
    const auto Start = std::chrono::steady_clock::now();
    // A WNOHANG poll notices a stop signal wherever it lands; its EINTR
    // cuts the sleep short.
    int Status = 0;
    for (;;) {
      if (int Sig = stopSignal()) {
        stopWorker(Pid, Sig, O.GraceMillis, Status);
        std::fprintf(stderr, "supervisor: stopped by signal %d\n", Sig);
        return 128 + Sig;
      }
      pid_t R = sys::waitpidRetry(Pid, &Status, WNOHANG);
      if (R == Pid)
        break;
      if (R < 0) {
        std::perror("supervisor: waitpid");
        return 2;
      }
      ::usleep(10 * 1000);
    }
    if (WIFEXITED(Status))
      return WEXITSTATUS(Status);

    WorkerCrash C;
    C.Signal = WIFSIGNALED(Status) ? WTERMSIG(Status) : 0;
    C.UpSecs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
    InWindow = Progressed(C.UpSecs) ? 1 : InWindow + 1;
    C.InWindow = InWindow;
    C.GivingUp = InWindow >= O.MaxCrashes;
    const std::string Note = Record(C);
    std::fprintf(stderr,
                 "supervisor: worker killed by signal %d after %.1fs (crash "
                 "%llu of %llu in this window); %s; %s\n",
                 C.Signal, C.UpSecs, static_cast<unsigned long long>(InWindow),
                 static_cast<unsigned long long>(O.MaxCrashes), Note.c_str(),
                 C.GivingUp ? "giving up" : "restarting");
    if (C.GivingUp)
      return 4;
    // Exponential backoff, 50 ms doubling to a 2 s cap: a transient cause
    // (memory pressure, a flaky disk) gets room to clear.
    uint64_t BackoffMs =
        std::min<uint64_t>(2000, 50ull << std::min<uint64_t>(InWindow - 1, 6));
    ::usleep(static_cast<useconds_t>(BackoffMs * 1000));
  }
}

} // namespace velo
