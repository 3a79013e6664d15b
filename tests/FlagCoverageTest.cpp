//===- tests/FlagCoverageTest.cpp - Every flag has a test mention ---------===//
//
// A tripwire that keeps one test per flag as flags are added: each row of
// each tool's --help is a flag spelling (up to and including '=' for a
// flag that takes a value), and some other tests/*.cpp file must spell it.
// A mention is textual: it does not prove that a test would fail if the
// flag were ignored, only that nobody added a flag without writing one.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#ifndef VELO_TESTS_DIR
#define VELO_TESTS_DIR "tests"
#endif

namespace {

/// stdout and stderr of `Bin --help`.
std::string helpText(const std::string &Bin) {
  std::string Out;
  FILE *P = popen((Bin + " --help 2>&1").c_str(), "r");
  if (!P)
    return Out;
  char Buf[4096];
  for (size_t N; (N = fread(Buf, 1, sizeof(Buf), P)) > 0;)
    Out.append(Buf, N);
  pclose(P);
  return Out;
}

/// The spellings of the help rows: lines "  -..." up to the first space
/// or comma, cut after '=' when the flag takes a value.
std::vector<std::string> rowSpellings(const std::string &Help) {
  std::vector<std::string> Out;
  std::istringstream In(Help);
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("  -", 0) != 0)
      continue;
    std::string S = Line.substr(2, Line.find_first_of(" ,", 2) - 2);
    if (size_t Eq = S.find('='); Eq != std::string::npos)
      S.resize(Eq + 1);
    Out.push_back(S);
  }
  return Out;
}

/// Every tests/*.cpp but this one, concatenated.
std::string otherTestSources() {
  std::string All;
  namespace fs = std::filesystem;
  for (const fs::directory_entry &E : fs::directory_iterator(VELO_TESTS_DIR)) {
    const fs::path &P = E.path();
    if (P.extension() != ".cpp" || P.filename() == "FlagCoverageTest.cpp")
      continue;
    std::ifstream In(P, std::ios::binary);
    All.append(std::istreambuf_iterator<char>(In), {});
  }
  return All;
}

TEST(FlagCoverage, EveryHelpRowIsSpelledInSomeTest) {
  const std::string Tests = otherTestSources();
  ASSERT_FALSE(Tests.empty()) << "no test sources under " << VELO_TESTS_DIR;
  const std::pair<const char *, const char *> Tools[] = {
      {"velodrome-check", VELO_CHECK_BIN},
      {"velodrome-run", VELO_RUN_BIN},
      {"velodrome-serve", VELO_SERVE_BIN},
      {"velodrome-fuzz", VELO_FUZZ_BIN},
      {"velodrome-convert", VELO_CONVERT_BIN},
      {"velodrome-analyze", VELO_ANALYZE_BIN},
  };
  for (const auto &[Tool, Bin] : Tools) {
    const std::vector<std::string> Rows = rowSpellings(helpText(Bin));
    EXPECT_GE(Rows.size(), 2u) << Tool << " --help printed no flag rows";
    for (const std::string &Spelling : Rows)
      EXPECT_NE(Tests.find(Spelling), std::string::npos)
          << Tool << ": no test mentions " << Spelling;
  }
}

} // namespace
