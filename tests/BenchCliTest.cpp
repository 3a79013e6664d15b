//===- tests/BenchCliTest.cpp - Paper benches parse like the tools --------===//
//
// Every paper bench reads its command line through the tools' flag table
// (support/Flags.h, via bench/BenchUtil.h): --help prints the usage on
// stderr and runs nothing, and a bad argument exits 2 before any trial.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

#ifndef VELO_BENCH_DIR
#define VELO_BENCH_DIR "bench"
#endif

namespace {

/// Run a shell command line, capturing what it writes to stdout. Returns
/// the exit status, or 128+signal when the command died on one.
int run(const std::string &CmdLine, std::string &Out) {
  Out.clear();
  FILE *P = popen(CmdLine.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  for (size_t N; (N = fread(Buf, 1, sizeof(Buf), P)) > 0;)
    Out.append(Buf, N);
  int Status = pclose(P);
  if (Status < 0)
    return -1;
  return WIFSIGNALED(Status) ? 128 + WTERMSIG(Status) : WEXITSTATUS(Status);
}

TEST(BenchCliTest, HelpRunsNothingAndBadArgumentsExitTwo) {
  struct Case {
    const char *Bench;
    const char *Bad; ///< arguments the bench must refuse
  };
  const Case Cases[] = {
      {"table1_slowdowns", "abc"},      {"table1_graph_stats", "4 12x"},
      {"table2_warnings", "-1 x"},      {"injection_study", "abc"},
      {"adversarial_coverage", "0"},    {"scheduling_policies", "abc 1"},
      {"core_sensitivity", "3 2 1"},    {"vc_vs_graph", "--reps=2"},
      {"ablation_gc_merge", "1e5"},     {"paper_examples", "extra"},
      {"exhaustive_micro", "--fast"},
  };
  for (const Case &C : Cases) {
    const std::string Bin = std::string(VELO_BENCH_DIR) + "/" + C.Bench;
    std::string Out, Err;
    EXPECT_EQ(run(Bin + " --help 2>/dev/null", Out), 0) << C.Bench;
    EXPECT_EQ(Out, "") << C.Bench << " --help ran trials";
    EXPECT_EQ(run(Bin + " --help 2>&1 >/dev/null", Err), 0) << C.Bench;
    EXPECT_EQ(Err.rfind("usage: " + std::string(C.Bench), 0), 0u)
        << C.Bench << ": " << Err;
    EXPECT_EQ(run(Bin + " " + C.Bad + " 2>/dev/null", Out), 2)
        << C.Bench << " " << C.Bad;
    EXPECT_EQ(Out, "") << C.Bench << " " << C.Bad << " ran trials";
  }
}

} // namespace
