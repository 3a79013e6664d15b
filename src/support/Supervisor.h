//===- support/Supervisor.h - Restart a crashing worker ---------*- C++ -*-===//
//
// The one supervisor behind `velodrome-check --supervise` and
// `velodrome-serve --supervise` (docs/OPERATIONS.md §3). It forks the
// worker and reaps it. A worker that exits ends the supervisor with its
// status; one killed by a signal is restarted after a capped exponential
// backoff, unless MaxCrashes crashes land in one window, which gives up
// with exit 4. SIGTERM/SIGINT to the supervisor is forwarded to the worker,
// which gets GraceMillis to exit before SIGKILL, and the supervisor then
// exits 128+N.
//
// The tools differ only in what a window is and what a crash leaves
// behind, so those two are the caller's: Progressed says whether the
// worker that just crashed made progress, which starts a new window, and
// Record is told of every crash.
//
// This file also holds the process's one pair of SIGTERM/SIGINT stop
// handlers, which the workers install for their graceful drain.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_SUPERVISOR_H
#define VELO_SUPPORT_SUPERVISOR_H

#include "support/Flags.h"

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>

namespace velo {

/// What --supervise, --max-crashes= and --grace-ms= set.
struct SupervisorOptions {
  bool Enabled = false;
  uint64_t MaxCrashes = 3;     ///< crashes in one window before giving up
  uint64_t GraceMillis = 2000; ///< forwarded stop signal to SIGKILL
};

/// The rows for SupervisorOptions, shared by every supervised tool.
std::vector<Flag> supervisionFlags(SupervisorOptions &O);

struct WorkerCrash {
  int Signal = 0;        ///< what killed the worker (0: not a signal)
  double UpSecs = 0;     ///< how long the worker ran
  uint64_t InWindow = 0; ///< this crash's number in its window, from 1
  bool GivingUp = false; ///< the last crash: the supervisor exits 4
};

/// Run Worker (in a child, with default SIGTERM/SIGINT dispositions) until
/// it exits, restarting it after each crash. Progressed is asked first,
/// then Record, whose text ends the supervisor's line about the crash.
/// Returns the worker's exit status, 4 on giving up, 128+N after a
/// forwarded stop signal N, and 2 if fork or waitpid fails.
int supervise(const SupervisorOptions &O, const std::function<int()> &Worker,
              const std::function<bool(double UpSecs)> &Progressed,
              const std::function<std::string(const WorkerCrash &)> &Record);

namespace detail {
extern volatile std::sig_atomic_t StopSignal;
} // namespace detail

/// The SIGTERM/SIGINT that asked this process to stop, or 0. Inline: the
/// sequential checker polls it once per event.
inline int stopSignal() { return detail::StopSignal; }

/// Note SIGTERM/SIGINT in stopSignal() instead of dying, without
/// SA_RESTART, so blocked calls return EINTR. OnStop, when given, runs in
/// the handler and must be async-signal-safe.
void installStopHandlers(void (*OnStop)() = nullptr);
void resetStopHandlers();

} // namespace velo

#endif // VELO_SUPPORT_SUPERVISOR_H
