//===- bench/velobench/Harness.h - Benchmark plumbing -----------*- C++ -*-===//
//
// The parts of velobench that know nothing about atomicity checking: the
// command line, a monotonic clock, order statistics, the result document,
// and child processes (timed exec-to-exit with the child's peak RSS from
// wait4, plus a long-lived daemon that is always stopped and reaped).
//
//===----------------------------------------------------------------------===//

#ifndef VELOBENCH_HARNESS_H
#define VELOBENCH_HARNESS_H

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace velobench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  double ServeMevps = 0; ///< serve-tenants open-loop rate, Mev/s aggregate
  std::string ToolDir; ///< directory holding velodrome-check/-run/-serve
  std::string WorkDir; ///< scratch directory for inputs, sockets, spans
};

/// Parses "--workload NAME --seed N --seconds S --trace 0|1" (each also as
/// --key=value) plus --tools=DIR, --work=DIR and --serve-mevps=RATE.
/// Returns false with Err set on anything missing or malformed.
bool parseOptions(int Argc, char **Argv, Options &O, std::string &Err);

/// Seconds on the monotonic clock.
double now();

/// Median of V (0 when empty).
double median(std::vector<double> V);

/// Quantile Q in [0,1] of V by linear interpolation between closest ranks
/// (0 when empty).
double quantile(std::vector<double> V, double Q);

/// The result document: the last line of stdout, one JSON object with
/// exactly correct/attempted/failed/metrics.
class ResultDoc {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  /// Print the document. A metric that is not finite makes the run
  /// incorrect (its value is printed as 0).
  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
};

/// One finished child process.
struct ChildRun {
  bool Exited = false; ///< exited normally (else killed by Signal)
  int ExitCode = -1;
  int Signal = 0;
  std::string Stdout;
  double WallSec = 0;     ///< fork to reap, stdout drained in between
  long MaxRssKb = 0;      ///< ru_maxrss of the child (wait4)
};

/// Run Argv[0] (a path) with Argv, stdout captured, stderr appended to
/// StderrPath. PinCpu >= 0 pins the child to that CPU before exec.
/// Returns false (Err set) only when the child could not be started.
bool runChild(const std::vector<std::string> &Argv,
              const std::string &StderrPath, int PinCpu, ChildRun &Out,
              std::string &Err);

/// The first CPU this process may run on (for pinning children).
int firstAllowedCpu();

/// A background child (the serve daemon). The destructor stops it.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::vector<std::string> &Argv, const std::string &LogPath,
             std::string &Err);
  /// VmHWM of the running daemon in kB (0 when unreadable).
  long peakRssKb() const;
  /// SIGTERM, wait up to 5 s, then SIGKILL; always reaps. Returns true when
  /// the SIGTERM ended the daemon cleanly (no SIGKILL, no crash).
  bool stop();

private:
  pid_t Pid = -1;
};

/// Whole-file read; false when the file cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

/// Create Dir (one level) if missing and remove regular files inside it.
bool resetDir(const std::string &Dir, std::string &Err);

/// Remove Dir's regular files and the directory itself (best effort).
void removeDir(const std::string &Dir);

} // namespace velobench

#endif // VELOBENCH_HARNESS_H
