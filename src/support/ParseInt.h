//===- support/ParseInt.h - Strict decimal flag values ----------*- C++ -*-===//
//
// Header-only so the self-contained LD_PRELOAD tracer can use it too.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_PARSEINT_H
#define VELO_SUPPORT_PARSEINT_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace velo {

/// Parse a full decimal uint64 ("--seed=7"). Rejects empty strings,
/// trailing garbage, signs (strtoull would wrap "-1" to 2^64-1), and
/// out-of-range values.
inline bool parseU64(const char *S, uint64_t &Out) {
  if (*S < '0' || *S > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno != 0 || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace velo

#endif // VELO_SUPPORT_PARSEINT_H
