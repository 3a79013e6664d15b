//===- bench/BenchUtil.h - Shared benchmark-harness helpers -----*- C++ -*-===//
//
// Helpers shared by the table-reproduction binaries: the command line,
// source line counting (the "Size (lines)" column of Table 1), wall-clock
// repetition, and the classification of warnings against a workload's
// ground truth.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_BENCH_BENCHUTIL_H
#define VELO_BENCH_BENCHUTIL_H

#include "support/Flags.h"
#include "support/Stopwatch.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <utility>

namespace velo {
namespace bench {

/// One optional positional argument of a bench: a decimal of at least
/// Min, stored into Target, whose value on entry is the default.
struct Positional {
  template <typename T>
  Positional(const char *Name, T &Target, uint64_t Min = 1)
      : Name(std::string(Name) + "=" + std::to_string(Target)), Min(Min),
        Store([&Target](uint64_t V) {
          if (!std::in_range<T>(V))
            return false;
          Target = static_cast<T>(V);
          return true;
        }) {}

  std::string Name; ///< "scale=40": the name and the default
  uint64_t Min;
  std::function<bool(uint64_t)> Store;
};

/// Parse a bench's command line through the tools' flag table: no flags
/// but --help, then Args in order. Exits 0 after --help and 2 after a bad
/// argument, with the usage text ("usage: Bench [scale=40] ...") on stderr.
inline void parseArgsOrExit(int Argc, char **Argv, std::string Bench,
                            const std::vector<Positional> &Args = {}) {
  for (const Positional &A : Args)
    Bench += " [" + A.Name + "]";
  const FlagTable Table{Bench, {}, "", 0, Args.size()};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(Argc, Argv, Operands); Rc >= 0)
    std::exit(Rc);
  for (size_t I = 0; I < Operands.size(); ++I) {
    uint64_t V = 0;
    if (!parseU64(Operands[I].c_str(), V) || V < Args[I].Min ||
        !Args[I].Store(V))
      std::exit(Table.usageError("bad operand '" + Operands[I] + "'"));
  }
}

/// Count the lines of a workload's implementing source file (best effort;
/// returns 0 if unreadable — e.g. when running from an installed binary).
inline size_t sourceLines(const Workload &W) {
  std::ifstream In(W.sourceFile());
  if (!In)
    return 0;
  size_t Lines = 0;
  std::string Buf;
  while (std::getline(In, Buf))
    ++Lines;
  return Lines;
}

/// Minimum wall-clock seconds over Reps repetitions of Fn.
inline double minSeconds(int Reps, const std::function<void()> &Fn) {
  double Best = 1e30;
  for (int R = 0; R < Reps; ++R) {
    Stopwatch Timer;
    Fn();
    Best = std::min(Best, Timer.seconds());
  }
  return Best;
}

/// Ground-truth method set of a workload.
inline std::set<std::string> truthSet(const Workload &W) {
  std::set<std::string> Out;
  for (const std::string &M : W.nonAtomicMethods())
    Out.insert(M);
  return Out;
}

} // namespace bench
} // namespace velo

#endif // VELO_BENCH_BENCHUTIL_H
