//===- tests/GoldenTraceTest.cpp - Trace-file corpus ----------------------===//
//
// End-to-end checks through the on-disk trace format: the committed corpus
// under tests/data/ (the paper's worked examples as .trace files) must
// parse, validate, and produce the documented verdicts — the same files a
// user would feed to tools/velodrome-check.
//
//===----------------------------------------------------------------------===//

#include "core/Velodrome.h"
#include "events/TraceText.h"
#include "oracle/SerializabilityOracle.h"

#include <gtest/gtest.h>

#ifndef VELO_TEST_DATA_DIR
#define VELO_TEST_DATA_DIR "tests/data"
#endif

namespace velo {
namespace {

struct GoldenCase {
  const char *File;
  bool Serializable;
  const char *Blame; // expected blamed method, or "" when serializable
};

// gtest's default printer dumps the struct's bytes, pointers included, and
// ctest bakes the printed parameter into the test name; print the file so
// the name is the same in every build.
void PrintTo(const GoldenCase &Case, std::ostream *OS) { *OS << Case.File; }

class GoldenTrace : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTrace, FileVerdictAndBlameMatch) {
  const GoldenCase &Case = GetParam();
  std::string Path = std::string(VELO_TEST_DATA_DIR) + "/" + Case.File;

  Trace T;
  std::string Error;
  ASSERT_TRUE(readTraceFile(Path, T, Error)) << Error;
  std::vector<std::string> Problems;
  ASSERT_TRUE(T.validate(&Problems))
      << (Problems.empty() ? "" : Problems[0]);

  OracleResult Oracle = checkSerializable(T);
  EXPECT_EQ(Oracle.Serializable, Case.Serializable) << Case.File;

  Velodrome V;
  replay(T, V);
  ASSERT_EQ(V.sawViolation(), !Case.Serializable) << Case.File;

  if (!Case.Serializable && Case.Blame[0] != '\0') {
    ASSERT_FALSE(V.violations().empty());
    EXPECT_EQ(T.symbols().labelName(V.violations()[0].Method), Case.Blame)
        << Case.File;
  }

  // Round-trip: print, reparse, identical verdict.
  Trace Reparsed;
  ASSERT_TRUE(parseTrace(printTrace(T), Reparsed, Error)) << Error;
  Velodrome V2;
  replay(Reparsed, V2);
  EXPECT_EQ(V.sawViolation(), V2.sawViolation());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenTrace,
    ::testing::Values(
        GoldenCase{"intro_cycle.trace", false, "A"},
        GoldenCase{"rmw_violation.trace", false, "increment"},
        GoldenCase{"flag_handoff.trace", true, ""},
        GoldenCase{"set_add.trace", false, "Set.add"},
        GoldenCase{"forkjoin_clean.trace", true, ""},
        GoldenCase{"lock_cycle.trace", false, "locked"}),
    [](const ::testing::TestParamInfo<GoldenCase> &Info) {
      std::string Name = Info.param.File;
      return Name.substr(0, Name.find('.'));
    });

} // namespace
} // namespace velo
