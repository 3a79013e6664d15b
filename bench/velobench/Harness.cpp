//===- bench/velobench/Harness.cpp - Benchmark plumbing -------------------===//

#include "Harness.h"

#include "support/Syscalls.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace velobench {

namespace sys = velo::sys;

namespace {

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S[0] == '-' || S[0] == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno != 0 || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

bool parseOptions(int Argc, char **Argv, Options &O, std::string &Err) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I], Value;
    size_t Eq = Key.find('=');
    if (Eq != std::string::npos) {
      Value = Key.substr(Eq + 1);
      Key.resize(Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      Err = "missing value for " + Key;
      return false;
    }
    uint64_t N = 0;
    if (Key == "--workload") {
      O.Workload = Value;
    } else if (Key == "--seed") {
      if (!parseU64(Value, O.Seed)) {
        Err = "bad --seed '" + Value + "'";
        return false;
      }
      HaveSeed = true;
    } else if (Key == "--seconds") {
      if (!parseU64(Value, N) || N == 0 || N > 3600) {
        Err = "bad --seconds '" + Value + "'";
        return false;
      }
      O.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Key == "--trace") {
      if (Value != "0" && Value != "1") {
        Err = "bad --trace '" + Value + "' (0 or 1)";
        return false;
      }
      O.Trace = Value == "1";
      HaveTrace = true;
    } else if (Key == "--serve-mevps") {
      char *End = nullptr;
      O.ServeMevps = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End != '\0' || !(O.ServeMevps > 0)) {
        Err = "bad --serve-mevps '" + Value + "'";
        return false;
      }
    } else if (Key == "--tools") {
      O.ToolDir = Value;
    } else if (Key == "--work") {
      O.WorkDir = Value;
    } else {
      Err = "unknown option " + Key;
      return false;
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace ||
      O.ToolDir.empty() || O.WorkDir.empty()) {
    Err = "usage: velobench --workload NAME --seed N --seconds S --trace 0|1 "
          "--tools DIR --work DIR [--serve-mevps RATE]";
    return false;
  }
  return true;
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

void ResultDoc::add(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void ResultDoc::print(bool Correct, uint64_t Attempted,
                      uint64_t Failed) const {
  std::string Body;
  char Buf[64];
  for (const Metric &M : Metrics) {
    double V = M.Value;
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "velobench: metric %s is not finite\n",
                   M.Name.c_str());
      Correct = false;
      V = 0;
    }
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + M.Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
            M.Unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Body.c_str());
  std::fflush(stdout);
}

int firstAllowedCpu() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return -1;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      return C;
  return -1;
}

namespace {

/// Fork and exec Argv with stdout on OutFd (or /dev/null when < 0) and
/// stderr appended to ErrPath. Returns the pid, or -1 with Err set.
pid_t spawn(const std::vector<std::string> &Argv, int OutFd,
            const std::string &ErrPath, int PinCpu, std::string &Err) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  int ErrFd =
      ::open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (ErrFd < 0) {
    Err = "cannot open " + ErrPath + ": " + std::strerror(errno);
    return -1;
  }
  std::fflush(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    sys::closeQuiet(ErrFd);
    return -1;
  }
  if (Pid == 0) {
    if (PinCpu >= 0) {
      cpu_set_t Set;
      CPU_ZERO(&Set);
      CPU_SET(PinCpu, &Set);
      (void)sched_setaffinity(0, sizeof(Set), &Set);
    }
    int Null = ::open("/dev/null", O_RDWR | O_CLOEXEC);
    ::dup2(Null, 0);
    ::dup2(OutFd >= 0 ? OutFd : Null, 1);
    ::dup2(ErrFd, 2);
    ::execv(Args[0], Args.data());
    std::fprintf(stderr, "velobench: exec %s: %s\n", Args[0],
                 std::strerror(errno));
    std::_Exit(127);
  }
  sys::closeQuiet(ErrFd);
  return Pid;
}

} // namespace

bool runChild(const std::vector<std::string> &Argv,
              const std::string &StderrPath, int PinCpu, ChildRun &Out,
              std::string &Err) {
  Out = ChildRun();
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  double Start = now();
  pid_t Pid = spawn(Argv, Pipe[1], StderrPath, PinCpu, Err);
  sys::closeQuiet(Pipe[1]);
  if (Pid < 0) {
    sys::closeQuiet(Pipe[0]);
    return false;
  }
  char Buf[65536];
  for (;;) {
    ssize_t N = sys::readRetry(Pipe[0], Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Out.Stdout.append(Buf, static_cast<size_t>(N));
  }
  sys::closeQuiet(Pipe[0]);
  int Status = 0;
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  pid_t R;
  do
    R = ::wait4(Pid, &Status, 0, &Usage);
  while (R < 0 && errno == EINTR);
  Out.WallSec = now() - Start;
  if (R != Pid) {
    Err = std::string("wait4: ") + std::strerror(errno);
    return false;
  }
  Out.MaxRssKb = Usage.ru_maxrss;
  Out.Exited = WIFEXITED(Status);
  Out.ExitCode = Out.Exited ? WEXITSTATUS(Status) : -1;
  Out.Signal = WIFSIGNALED(Status) ? WTERMSIG(Status) : 0;
  return true;
}

bool Daemon::start(const std::vector<std::string> &Argv,
                   const std::string &LogPath, std::string &Err) {
  stop();
  Pid = spawn(Argv, -1, LogPath, -1, Err);
  return Pid > 0;
}

long Daemon::peakRssKb() const {
  if (Pid <= 0)
    return 0;
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtol(Line.c_str() + 6, nullptr, 10);
  return 0;
}

bool Daemon::stop() {
  if (Pid <= 0)
    return false;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  bool Reaped = false;
  for (int Waited = 0; Waited < 5000; Waited += 10) {
    if (sys::waitpidRetry(Pid, &Status, WNOHANG) == Pid) {
      Reaped = true;
      break;
    }
    ::usleep(10 * 1000);
  }
  if (!Reaped) {
    ::kill(Pid, SIGKILL);
    sys::waitpidRetry(Pid, &Status, 0);
  }
  Pid = -1;
  // The daemon exits 128+SIGTERM after a clean signal-driven shutdown; a
  // SIGTERM that lands before it installs its handler ends it by signal.
  if (!Reaped)
    return false;
  if (WIFSIGNALED(Status))
    return WTERMSIG(Status) == SIGTERM;
  return WIFEXITED(Status) &&
         (WEXITSTATUS(Status) == 0 || WEXITSTATUS(Status) == 128 + SIGTERM);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool resetDir(const std::string &Dir, std::string &Err) {
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Err = "cannot create " + Dir + ": " + std::strerror(errno);
    return false;
  }
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *Ent = ::readdir(D)) {
      std::string Name = Ent->d_name;
      if (Name == "." || Name == "..")
        continue;
      std::string Path = Dir + "/" + Name;
      struct stat St;
      if (::lstat(Path.c_str(), &St) == 0 && !S_ISDIR(St.st_mode))
        ::unlink(Path.c_str());
    }
    ::closedir(D);
  }
  return true;
}

void removeDir(const std::string &Dir) {
  std::string Ignored;
  resetDir(Dir, Ignored);
  ::rmdir(Dir.c_str());
}

} // namespace velobench
