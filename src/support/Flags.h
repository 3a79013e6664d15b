//===- support/Flags.h - One flag table per tool ----------------*- C++ -*-===//
//
// Every tool declares each flag it takes once, as a row: the spelling, a
// handler and one help line. One parser matches the rows, collects the
// operands, answers --help/-h and turns every usage error into exit 2, and
// the usage text is printed from the same rows, so it cannot drift from
// what the parser accepts.
//
// A spelling with '=' takes a value: "--seed=N" matches "--seed=<value>"
// and shows "N" in the usage text. Any other spelling is a switch and
// matches only itself. There is no "--flag value" form, no abbreviation
// and no negation; a repeated flag runs its handler again, so the last one
// wins.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_FLAGS_H
#define VELO_SUPPORT_FLAGS_H

#include "support/ParseInt.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace velo {

struct Flag {
  std::string Spelling;
  /// Takes the value ("" for a switch); returns false when it is bad.
  std::function<bool(const std::string &Value)> Handle;
  std::string Help;
};

/// A switch that stores Value.
Flag boolFlag(std::string Spelling, bool &Target, std::string Help,
              bool Value = true);
Flag stringFlag(std::string Spelling, std::string &Target, std::string Help);

/// A decimal through parseU64 into an unsigned field, refused outside
/// [Min, Max] and outside the field's range.
template <typename T>
Flag u64Flag(std::string Spelling, T &Target, std::string Help,
             uint64_t Min = 0, uint64_t Max = UINT64_MAX) {
  static_assert(std::is_unsigned_v<T>, "u64Flag needs an unsigned field");
  Max = std::min<uint64_t>(Max, std::numeric_limits<T>::max());
  return {std::move(Spelling),
          [&Target, Min, Max](const std::string &V) {
            uint64_t N = 0;
            if (!parseU64(V.c_str(), N) || N < Min || N > Max)
              return false;
            Target = static_cast<T>(N);
            return true;
          },
          std::move(Help)};
}

struct FlagTable {
  std::string Synopsis; ///< "velodrome-check [options] <trace-file>"
  std::vector<Flag> Rows;
  std::string Footer; ///< printed after the rows: notes, exit statuses
  size_t MinOperands = 0, MaxOperands = 0;

  /// Parse argv[1..]: run each flag's handler, append the operands (the
  /// arguments not starting with '-') in order. Returns -1 to go on, or
  /// the status to exit with: 0 after --help, 2 after a usage error,
  /// whose message and the usage text are already on stderr.
  int parse(int Argc, char **Argv, std::vector<std::string> &Operands) const;
  void printUsage() const;
  /// "error: <Msg>" and the usage text on stderr; returns 2.
  int usageError(const std::string &Msg) const;
};

/// Append Group's rows to Rows.
void addFlags(std::vector<Flag> &Rows, std::vector<Flag> Group);

} // namespace velo

#endif // VELO_SUPPORT_FLAGS_H
