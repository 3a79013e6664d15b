//===- tests/OpenTextSource.h - Trace text as an opened source --*- C++ -*-===//
//
// Test helper for code that consumes a TraceSource (the parallel
// pipeline): the source velodrome-check gets for a text trace. The text is
// written to a temporary file, opened with openTraceSource, and unlinked
// at once; the open descriptor keeps it readable.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_TESTS_OPENTEXTSOURCE_H
#define VELO_TESTS_OPENTEXTSOURCE_H

#include "events/TraceSource.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <unistd.h>

namespace velo {

/// Open Text as a text trace source interning into Syms; null (with a test
/// failure recorded) if the file cannot be written or opened.
inline std::unique_ptr<TraceSource> openTextSource(const std::string &Text,
                                                   SymbolTable &Syms) {
  static std::atomic<unsigned> Serial{0};
  const std::string Path = ::testing::TempDir() + "velo_text_source_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(Serial++) + ".trace";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << Text;
  }
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string Err;
  std::unique_ptr<TraceSource> Src = openTraceSource(Path, Syms, St, Err);
  std::remove(Path.c_str());
  EXPECT_TRUE(Src) << Err;
  return Src;
}

} // namespace velo

#endif // VELO_TESTS_OPENTEXTSOURCE_H
