//===- preload/TraceConfig.cpp - VELO_TRACE_* environment parsing ---------===//

#include "preload/TraceConfig.h"
#include "support/ParseInt.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

namespace velo {
namespace preload {

namespace {

bool fail(char *Diag, size_t DiagLen, const char *Var, const char *Value,
          const char *Want) {
  std::snprintf(Diag, DiagLen, "bad %s '%s' (want %s)", Var, Value, Want);
  return false;
}

} // namespace

bool parseTraceConfig(TraceConfig &C, char *Diag, size_t DiagLen) {
  if (DiagLen)
    Diag[0] = '\0';

  const char *Out = std::getenv("VELO_TRACE_OUT");
  if (Out) {
    if (Out[0] == '\0' || std::strlen(Out) >= sizeof(C.OutPath))
      return fail(Diag, DiagLen, "VELO_TRACE_OUT", Out,
                  "a nonempty path under 3072 bytes");
    std::snprintf(C.OutPath, sizeof(C.OutPath), "%s", Out);
  } else {
    std::snprintf(C.OutPath, sizeof(C.OutPath), "velodrome-%ld.vtrc",
                  static_cast<long>(::getpid()));
  }

  if (const char *S = std::getenv("VELO_TRACE_SAMPLE")) {
    uint64_t N = 0;
    if (!parseU64(S, N) || N == 0)
      return fail(Diag, DiagLen, "VELO_TRACE_SAMPLE", S,
                  "a positive integer");
    C.SampleEvery = N;
  }

  if (const char *S = std::getenv("VELO_TRACE_BUFFER_EVENTS")) {
    uint64_t N = 0;
    if (!parseU64(S, N) || N < 64 || N > (1ull << 20))
      return fail(Diag, DiagLen, "VELO_TRACE_BUFFER_EVENTS", S,
                  "an integer in [64, 1048576]");
    C.BufferEvents = static_cast<uint32_t>(N);
  }

  if (const char *S = std::getenv("VELO_TRACE_FLUSH")) {
    if (std::strcmp(S, "sync") == 0)
      C.SyncFlush = true;
    else if (std::strcmp(S, "buffer") == 0)
      C.SyncFlush = false;
    else
      return fail(Diag, DiagLen, "VELO_TRACE_FLUSH", S, "sync or buffer");
  }

  if (const char *S = std::getenv("VELO_TRACE_FORK")) {
    if (std::strcmp(S, "reopen") == 0)
      C.ReopenOnFork = true;
    else if (std::strcmp(S, "off") == 0)
      C.ReopenOnFork = false;
    else
      return fail(Diag, DiagLen, "VELO_TRACE_FORK", S, "reopen or off");
  }

  return true;
}

} // namespace preload
} // namespace velo
