//===- tests/ToolsCliTest.cpp - CLI end-to-end smoke tests ----------------===//
//
// Drives the installed command-line tools as a user would: velodrome-check
// over the golden trace corpus (verdict exit codes, dot export) and
// velodrome-run over workloads (recording round-trips back through
// velodrome-check). Binary paths are injected by CMake.
//
//===----------------------------------------------------------------------===//

#include "VtrcBuilder.h"

#include "events/TraceGen.h"
#include "events/TraceText.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef VELO_CHECK_BIN
#define VELO_CHECK_BIN "velodrome-check"
#endif
#ifndef VELO_RUN_BIN
#define VELO_RUN_BIN "velodrome-run"
#endif
#ifndef VELO_FUZZ_BIN
#define VELO_FUZZ_BIN "velodrome-fuzz"
#endif
#ifndef VELO_ANALYZE_BIN
#define VELO_ANALYZE_BIN "velodrome-analyze"
#endif
#ifndef VELO_CONVERT_BIN
#define VELO_CONVERT_BIN "velodrome-convert"
#endif
#ifndef VELO_TEST_DATA_DIR
#define VELO_TEST_DATA_DIR "tests/data"
#endif

namespace {

/// Run a command, returning its exit status (-1 on system() failure).
int runCmd(const std::string &Cmd) {
  int Status = std::system((Cmd + " > /dev/null 2>&1").c_str());
  if (Status < 0)
    return -1;
  return WEXITSTATUS(Status);
}

/// popen a fully redirected command line and capture what it prints.
/// Returns the exit status, or 128+signal when the command died on one.
int runCmdCapture(const std::string &CmdLine, std::string &Out) {
  Out.clear();
  FILE *P = popen(CmdLine.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  if (Status < 0)
    return -1;
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return WEXITSTATUS(Status);
}

/// Capture stdout only (stderr discarded) — verdict/warning comparisons.
int runCmdStdout(const std::string &Cmd, std::string &Out) {
  return runCmdCapture(Cmd + " 2>/dev/null", Out);
}

/// Capture stdout and stderr merged — diagnostics checks.
int runCmdAll(const std::string &Cmd, std::string &Out) {
  return runCmdCapture(Cmd + " 2>&1", Out);
}

std::string dataFile(const char *Name) {
  return std::string(VELO_TEST_DATA_DIR) + "/" + Name;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

/// Capture stdout and stderr apart; returns the exit status.
int runCmdSplit(const std::string &Cmd, std::string &Out, std::string &Err) {
  const std::string ErrFile = ::testing::TempDir() + "/velo_cli_stderr_" +
                              std::to_string(::getpid()) + ".txt";
  int Code = runCmdCapture(Cmd + " 2>" + ErrFile, Out);
  Err = readFileBytes(ErrFile);
  std::remove(ErrFile.c_str());
  return Code;
}

/// Every golden and fuzz-corpus trace, in a stable order.
std::vector<std::string> corpusTraces() {
  std::vector<std::string> Files;
  for (const std::string &Dir : {dataFile(""), dataFile("fuzz")})
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".trace")
        Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// The 15 workloads, as velodrome-run --list names them.
std::vector<std::string> workloadNames() {
  std::string List;
  runCmdStdout(std::string(VELO_RUN_BIN) + " --list", List);
  std::vector<std::string> Names;
  size_t Pos = List.find('\n'); // past the header row
  while (Pos != std::string::npos && Pos + 1 < List.size()) {
    size_t End = List.find(' ', Pos + 1);
    Names.push_back(List.substr(Pos + 1, End - Pos - 1));
    Pos = List.find('\n', Pos + 1);
  }
  return Names;
}

/// The top-level line of a JSON report that holds Key, unindented ("" when
/// absent).
std::string jsonLine(const std::string &Doc, const std::string &Key) {
  size_t At = Doc.find("\n  \"" + Key + "\": ");
  if (At == std::string::npos)
    return "";
  return Doc.substr(At + 3, Doc.find('\n', At + 1) - At - 3);
}

/// A JSON report without the lines that name the tool and the trace.
std::string withoutToolAndTrace(std::string Doc) {
  for (const char *Key : {"tool", "trace"}) {
    size_t At = Doc.find(std::string("\n  \"") + Key + "\": ");
    if (At != std::string::npos)
      Doc.erase(At, Doc.find('\n', At + 1) - At);
  }
  return Doc;
}

TEST(CheckCliTest, ViolatingTraceExitsOne) {
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " +
                   dataFile("rmw_violation.trace")),
            1);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " +
                   dataFile("intro_cycle.trace")),
            1);
}

TEST(CheckCliTest, SerializableTraceExitsZero) {
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " +
                   dataFile("flag_handoff.trace")),
            0);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --witness " +
                   dataFile("forkjoin_clean.trace")),
            0);
}

TEST(CheckCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN)), 2) << "no trace file";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --bogus-flag x"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " /nonexistent.trace"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --backend=nope " +
                   dataFile("rmw_violation.trace")),
            2);
  // 2^44 MB is 2^64 bytes: the cap must be refused, not wrapped to 0
  // (unlimited) or to a 1 MiB cap.
  for (const char *Mb : {"17592186044416", "17592186044417"})
    EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --max-memory-mb=" + Mb +
                     " " + dataFile("rmw_violation.trace")),
              2)
        << Mb;
}

TEST(CheckCliTest, DotExportWritesAGraph) {
  std::string Dot = "/tmp/velo_cli_test.dot";
  std::remove(Dot.c_str());
  ASSERT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --dot=" + Dot + " " +
                   dataFile("set_add.trace")),
            1);
  std::ifstream In(Dot);
  ASSERT_TRUE(In.good()) << "dot file must exist";
  std::string First;
  std::getline(In, First);
  EXPECT_NE(First.find("digraph"), std::string::npos);
}

TEST(CheckCliTest, FlagsThatWouldDoNothingExitTwo) {
  // --dot and --no-merge act on Velodrome, --stats prints its graph or
  // --reduce's counts: without those, each is refused in one line that
  // names it, and no dot file appears. The machine reports print no
  // witness, no stat line and nothing --quiet trims; --quiet drops the
  // stat lines. A cap needs a governed primary, and a node or memory cap
  // Velodrome's probe.
  const std::string Check = std::string(VELO_CHECK_BIN) + " ";
  const std::string T = dataFile("set_add.trace");
  const std::string Dot = ::testing::TempDir() + "/velo_inert.dot";
  std::remove(Dot.c_str());
  const std::pair<std::string, const char *> Refused[] = {
      {"--backend=aero --dot=" + Dot, "--dot"},
      {"--backend=basic --dot=" + Dot, "--dot"},
      {"--backend=hb --no-merge", "--no-merge"},
      {"--backend=hb --stats", "--stats"},
      {"--backend=aero --stats", "--stats"},
      {"--format=json --witness", "--witness"},
      {"--format=sarif --witness", "--witness"},
      {"--format=json --stats", "--stats"},
      {"--format=sarif --stats", "--stats"},
      {"--format=json --quiet", "--quiet"},
      {"--format=sarif --quiet", "--quiet"},
      {"--quiet --stats", "--stats"},
      {"--backend=hb --max-events=10", "--max-events"},
      {"--backend=atomizer --deadline-ms=10", "--deadline-ms"},
      {"--backend=eraser --max-live-nodes=1", "--max-live-nodes"},
      {"--backend=deadlock --max-memory-mb=1", "--max-memory-mb"},
      {"--backend=aero --max-live-nodes=1", "--max-live-nodes"},
      {"--backend=aero --max-memory-mb=1", "--max-memory-mb"},
      {"--backend=basic --max-live-nodes=1", "--max-live-nodes"}};
  for (const auto &[Flags, Named] : Refused) {
    std::string Out, Err;
    EXPECT_EQ(runCmdSplit(Check + Flags + " " + T, Out, Err), 2) << Flags;
    EXPECT_EQ(Err.rfind(std::string("error: ") + Named + " ", 0), 0u) << Err;
    EXPECT_EQ(Err.find('\n'), Err.size() - 1) << Err;
    EXPECT_TRUE(Out.empty()) << Out;
  }
  EXPECT_FALSE(std::ifstream(Dot).good()) << "a refused run wrote " << Dot;
  // What the flags need is there: each runs to its verdict (hb computes
  // none and exits 0).
  // The defaults, and a zero, set no cap.
  for (const char *Flags : {"--backend=hb --stats --reduce=all",
                            "--backend=hb --max-live-nodes=60000",
                            "--backend=eraser --max-events=0"})
    EXPECT_EQ(runCmd(Check + Flags + " " + T), 0) << Flags;
  for (const char *Flags :
       {"--backend=velodrome --stats", "--backend=velodrome --no-merge",
        "--backend=aero --max-events=100000", "--backend=basic --deadline-ms=0",
        "--format=json", "--quiet --witness", "--max-memory-mb=1024"})
    EXPECT_EQ(runCmd(Check + Flags + " " + T), 1) << Flags;

  // On --resume the snapshot's selector decides, not the command line's.
  const std::string Hb = ::testing::TempDir() + "/velo_inert_hb.snap";
  const std::string Velo = ::testing::TempDir() + "/velo_inert_velo.snap";
  std::string Ignored;
  for (const auto &[Snap, Sel] :
       {std::pair(Hb, "hb"), std::pair(Velo, "velodrome")}) {
    std::remove(Snap.c_str());
    ASSERT_EQ(runCmdStdout(Check + "--backend=" + Sel + " --checkpoint=" +
                               Snap + " --checkpoint-every=1 --crash-at=3 " +
                               T,
                           Ignored),
              128 + SIGKILL)
        << Sel;
  }
  EXPECT_EQ(runCmd(Check + "--stats --resume=" + Hb + " " + T), 2);
  EXPECT_EQ(runCmd(Check + "--backend=aero --dot=" + Dot +
                   " --resume=" + Velo + " " + T),
            1);
  EXPECT_TRUE(std::ifstream(Dot).good()) << "the resumed run's error graph";
  for (const std::string &F : {Dot, Hb, Velo, Hb + ".lastevents",
                               Velo + ".lastevents"})
    std::remove(F.c_str());
}

TEST(CheckCliTest, BackendSelectionWorks) {
  for (const char *Backend : {"velodrome", "basic", "aero", "atomizer",
                              "eraser", "hb", "all"}) {
    int Code = runCmd(std::string(VELO_CHECK_BIN) + " --quiet --backend=" +
                      Backend + " " + dataFile("rmw_violation.trace"));
    // Race-only back-ends report verdict "serializable" (exit 0); the
    // atomicity-capable ones exit 1.
    bool Atomicity = std::string(Backend) == "velodrome" ||
                     std::string(Backend) == "basic" ||
                     std::string(Backend) == "aero" ||
                     std::string(Backend) == "all";
    EXPECT_EQ(Code, Atomicity ? 1 : 0) << Backend;
  }
}

TEST(CheckCliTest, StrictModeRejectsIllFormedTraces) {
  // Default (strict) ingestion: structurally ill-formed traces are input
  // errors (exit 2), never crashes and never verdicts.
  for (const char *F :
       {"fuzz/end_without_begin.trace", "fuzz/unheld_release.trace",
        "fuzz/reentrant_acquire.trace", "fuzz/orphan_fork.trace"}) {
    EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " +
                     dataFile(F)),
              2)
        << F;
    // The buffered --witness path routes through the same sanitizer.
    EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --witness " +
                     dataFile(F)),
              2)
        << F;
  }
}

TEST(CheckCliTest, StrictAfterLenientRejects) {
  // --lenient and --strict set one mode; the last one given wins.
  const std::string T = dataFile("fuzz/end_without_begin.trace");
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --lenient "
                                                 "--strict " + T),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --strict "
                                                 "--lenient " + T),
            0);
}

TEST(CheckCliTest, LenientModeRepairsAndReportsAVerdict) {
  for (const char *F :
       {"fuzz/end_without_begin.trace", "fuzz/unheld_release.trace",
        "fuzz/reentrant_acquire.trace", "fuzz/orphan_fork.trace"})
    EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --lenient " +
                     dataFile(F)),
              0)
        << F << " repairs to a serializable trace";
  // Repair must not mask a genuine violation in a well-formed trace.
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --lenient " +
                   dataFile("rmw_violation.trace")),
            1);
}

TEST(CheckCliTest, SalvageRecoversTruncatedContainerVerdict) {
  // Convert a golden trace to .vtrc, chop the trailer byte a dying writer
  // would have lost: the strict open rejects the file, --salvage keeps
  // every intact events frame and reproduces the intact verdict.
  std::string Bin = ::testing::TempDir() + "/velo_salv_cli.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " +
                   dataFile("rmw_violation.trace") + " " + Bin),
            0);
  std::string Want;
  int WantCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + Bin, Want);
  EXPECT_EQ(WantCode, 1);

  std::string Bytes;
  {
    std::ifstream In(Bin, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 1u);
  {
    std::ofstream Out(Bin, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() - 1));
  }

  std::string Diag;
  EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " " + Bin, Diag), 2);
  EXPECT_NE(Diag.find("truncated"), std::string::npos) << Diag;

  std::string Got;
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + " --salvage " + Bin,
                         Got),
            WantCode);
  EXPECT_EQ(Got, Want) << "salvaged verdict must match the intact one";
  std::string All;
  runCmdAll(std::string(VELO_CHECK_BIN) + " --salvage " + Bin, All);
  EXPECT_NE(All.find("salvage: recovered"), std::string::npos) << All;
  std::remove(Bin.c_str());
}

/// --witness reads the whole trace through the same salvage open: on the
/// truncated container it reports what --witness reports on the intact
/// one, and notes the recovery once.
TEST(CheckCliTest, WitnessSalvageMatchesTheIntactContainer) {
  std::string Bin = ::testing::TempDir() + "/velo_witness_salv.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " +
                   dataFile("rmw_violation.trace") + " " + Bin),
            0);
  std::string Want;
  int WantCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " --witness " + Bin, Want);
  EXPECT_EQ(WantCode, 1);
  std::string Bytes;
  {
    std::ifstream In(Bin, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 1u);
  {
    std::ofstream Out(Bin, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() - 1));
  }
  const std::string Cmd =
      std::string(VELO_CHECK_BIN) + " --witness --salvage " + Bin;
  std::string Got;
  EXPECT_EQ(runCmdStdout(Cmd, Got), WantCode);
  EXPECT_EQ(Got, Want);
  std::string Err;
  runCmdCapture(Cmd + " 2>&1 >/dev/null", Err);
  size_t First = Err.find("salvage: recovered");
  ASSERT_NE(First, std::string::npos) << Err;
  EXPECT_EQ(Err.find("salvage: recovered", First + 1), std::string::npos)
      << "one note per run: " << Err;
  std::remove(Bin.c_str());
}

/// --witness runs the default streaming loop (line numbers, the stop, the
/// notes) and only adds the oracle's note, computed on a sanitized copy of
/// the whole trace. That copy is the raw input, so under --reduce and
/// --parallel the note is the plain run's.
TEST(CheckCliTest, WitnessRunsTheDefaultLoop) {
  // Out without its witness note, and the note.
  auto Split = [](std::string Out) {
    size_t At = Out.find("# serial witness\n"), End = 0;
    if (At != std::string::npos)
      End = Out.find("verdict: ", At);
    else if ((At = Out.find("no witness: ")) != std::string::npos)
      End = Out.find('\n', At) + 1;
    std::string Note;
    if (At != std::string::npos) {
      Note = Out.substr(At, End - At);
      Out.erase(At, End - At);
    }
    return std::make_pair(Out, Note);
  };
  for (const std::string &F : corpusTraces())
    for (const char *Mode : {"", " --lenient", " --lenient --max-events=3",
                             " --backend=all --max-live-nodes=1"}) {
      std::string PlainNote;
      for (const std::string With : {"", "--reduce=all ", "--parallel ",
                                     "--parallel=2 --batch-events=3 "}) {
        const std::string Cmd = std::string(VELO_CHECK_BIN) + Mode + " " + With;
        std::string WantOut, WantErr, GotOut, GotErr;
        int Want = runCmdSplit(Cmd + F, WantOut, WantErr);
        int Got = runCmdSplit(Cmd + "--witness " + F, GotOut, GotErr);
        const std::string What = F + Mode + " " + With;
        EXPECT_EQ(Got, Want) << What;
        EXPECT_EQ(GotErr, WantErr) << What;
        const auto [Rest, Note] = Split(GotOut);
        EXPECT_EQ(Rest, WantOut) << What;
        if (With.empty())
          PlainNote = Note;
        EXPECT_EQ(Note, PlainNote) << What << ": the oracle reads raw input";
      }
    }
  // The oracle still sees the whole trace past a stop, from a pipe too.
  std::string Out;
  EXPECT_EQ(runCmdStdout("cat " + dataFile("forkjoin_clean.trace") + " | " +
                             VELO_CHECK_BIN +
                             " --witness --max-events=2 /dev/stdin",
                         Out),
            3);
  EXPECT_NE(Out.find("# serial witness\n"), std::string::npos) << Out;
  std::string Whole;
  runCmdStdout(std::string(VELO_CHECK_BIN) + " --witness " +
                   dataFile("forkjoin_clean.trace"),
               Whole);
  const size_t W = Whole.find("# serial witness\n");
  ASSERT_NE(W, std::string::npos) << Whole;
  EXPECT_NE(Out.find(Whole.substr(W, Whole.find("verdict: ", W) - W)),
            std::string::npos)
      << "capped witness must be the whole trace's: " << Out;
}

TEST(CheckCliTest, SalvageRefusesTextInput) {
  std::string Out;
  EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " --salvage " +
                          dataFile("rmw_violation.trace"),
                      Out),
            2);
  EXPECT_NE(Out.find("requires a VELOTRC binary container"),
            std::string::npos)
      << Out;
}

/// A container cut inside its first frame has nothing to salvage: the
/// refusal is exit 2 with an error, and no "salvage:" note claims a
/// recovery, in every mode that opens the trace.
TEST(CheckCliTest, RefusedSalvagePrintsNoRecoveryNote) {
  std::string Bin = ::testing::TempDir() + "/velo_salv_none.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " +
                   dataFile("rmw_violation.trace") + " " + Bin),
            0);
  std::string Bytes;
  {
    std::ifstream In(Bin, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 20u);
  {
    std::ofstream Out(Bin, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), 20); // the 16-byte header and 4 frame bytes
  }
  for (const char *Mode : {"", " --reduce=all", " --witness"}) {
    std::string Err;
    EXPECT_EQ(runCmdCapture(std::string(VELO_CHECK_BIN) + " --salvage" +
                                Mode + " " + Bin + " 2>&1 >/dev/null",
                            Err),
              2)
        << Mode;
    EXPECT_NE(Err.find("no intact frames to salvage"), std::string::npos)
        << Mode << ": " << Err;
    EXPECT_EQ(Err.find("salvage:"), std::string::npos) << Mode << ": " << Err;
  }
  std::remove(Bin.c_str());
}

TEST(CheckCliTest, GovernorDegradationKeepsTheVerdict) {
  // A 1-node cap forces immediate degradation from the graph checker to
  // the vector-clock fallback; the verdict must be unchanged.
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=all --max-live-nodes=1 " +
                   dataFile("rmw_violation.trace")),
            1);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=all --max-live-nodes=1 " +
                   dataFile("flag_handoff.trace")),
            0);
}

/// Run Argv with stdout to OutPath and stderr discarded. Returns the exit
/// status (128+signal when killed) and the child's own peak resident set
/// size in KiB, as wait4 reports it. Outside sanitizer builds (whose shadow
/// memory reserves terabytes of address space) the child's address space
/// is capped at 1 GiB, so a regression fails fast instead of taking
/// gigabytes of the machine's memory.
int runForPeakRss(const std::vector<std::string> &Argv,
                  const std::string &OutPath, long &MaxRssKb) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    struct rlimit Cap = {1ul << 30, 1ul << 30};
    ::setrlimit(RLIMIT_AS, &Cap);
#endif
    int Out = ::open(OutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Null = ::open("/dev/null", O_WRONLY);
    ::dup2(Out, 1);
    ::dup2(Null, 2);
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    ::execv(Args[0], Args.data());
    ::_exit(127);
  }
  int Status = 0;
  struct rusage Usage {};
  if (Pid < 0 || ::wait4(Pid, &Status, 0, &Usage) != Pid)
    return -1;
  MaxRssKb = Usage.ru_maxrss;
  return WIFSIGNALED(Status) ? 128 + WTERMSIG(Status) : WEXITSTATUS(Status);
}

/// The report lines that must not depend on which tids a trace uses: the
/// verdict and the per-backend warning counts.
std::string verdictLines(const std::string &Path) {
  std::ifstream In(Path);
  std::string Line, Out;
  while (std::getline(In, Line))
    if (Line.rfind("verdict:", 0) == 0 || Line.rfind("[", 0) == 0)
      Out += Line + "\n";
  return Out;
}

TEST(CheckCliTest, SparseTidsCostWhatDenseTidsCost) {
  // Every checker and the sanitizer keep per-thread state by first use,
  // and the vector-clock checkers index their clocks by that slot, so a
  // trace run by the largest legal tid costs what the same trace run by T1
  // costs. State indexed by raw tid would take gigabytes on the 3.3 KB
  // 200-read trace below. The header's thread count (largest tid + 1)
  // differs; the verdict, the warning counts and the exit status must not,
  // and the peak RSS stays within 1 MiB of the dense run's. The 128 MB
  // bound leaves room for a sanitizer build's shadow memory.
  std::string Dir = ::testing::TempDir();
  struct Shape {
    const char *Name;
    std::string (*Text)(const std::string &A, const std::string &B);
  };
  const Shape Shapes[] = {
      {"reads",
       [](const std::string &A, const std::string &) {
         std::string T;
         for (int I = 0; I < 200; ++I)
           T += A + " rd x" + std::to_string(I) + "\n";
         return T;
       }},
      {"rmw", // Section 2's interleaved read-modify-write
       [](const std::string &A, const std::string &B) {
         return A + " begin increment\n" + A + " rd x\n" + B + " wr x\n" +
                A + " wr x\n" + A + " end\n";
       }},
  };
  for (const Shape &S : Shapes) {
    std::string Sparse = Dir + "/velo_sparse_" + S.Name + ".trace";
    std::string Dense = Dir + "/velo_dense_" + S.Name + ".trace";
    std::ofstream(Sparse) << S.Text("T1048575", "T524288");
    std::ofstream(Dense) << S.Text("T1", "T0");
    for (std::string Sel : {"velodrome", "basic", "aero", "hb", "atomizer",
                            "eraser", "deadlock", "all"}) {
      SCOPED_TRACE(std::string(S.Name) + " --backend=" + Sel);
      long SparseRss = 0, DenseRss = 0;
      int SparseExit = runForPeakRss(
          {VELO_CHECK_BIN, "--backend=" + Sel, Sparse}, Sparse + ".out",
          SparseRss);
      int DenseExit = runForPeakRss({VELO_CHECK_BIN, "--backend=" + Sel, Dense},
                                    Dense + ".out", DenseRss);
      // Only the atomicity checkers turn a violation into exit 1.
      bool Atomicity = Sel == "velodrome" || Sel == "basic" ||
                       Sel == "aero" || Sel == "all";
      EXPECT_EQ(DenseExit, std::string(S.Name) == "rmw" && Atomicity ? 1 : 0);
      EXPECT_EQ(SparseExit, DenseExit);
      EXPECT_LE(SparseRss, 128 * 1024) << "peak RSS in KiB";
      EXPECT_LE(SparseRss, DenseRss + 1024)
          << "peak RSS in KiB: within 1 MiB of the dense run";
      EXPECT_EQ(verdictLines(Sparse + ".out"), verdictLines(Dense + ".out"));
    }
    for (const std::string &F : {Sparse, Dense}) {
      std::remove(F.c_str());
      std::remove((F + ".out").c_str());
    }
  }
}

TEST(CheckCliTest, ResourceExhaustionExitsThree) {
  // No fallback configured: breaching a cap mid-trace leaves the verdict
  // unknown — reported as exit 3, never an abort.
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=velodrome --max-events=2 " +
                   dataFile("flag_handoff.trace")),
            3);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=velodrome --max-live-nodes=1 " +
                   dataFile("fuzz/interleaved_clean.trace")),
            3);
  // A violation found before the cap survives truncation.
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=velodrome --max-events=6 " +
                   dataFile("rmw_violation.trace")),
            1);
}

//===----------------------------------------------------------------------===//
// Crash resilience: checkpoint/resume, supervision, crash diagnostics
//===----------------------------------------------------------------------===//

TEST(CrashCliTest, CheckpointFlagValidationExitsTwo) {
  std::string T = dataFile("rmw_violation.trace");
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --supervise " + T), 2)
      << "--supervise requires --checkpoint";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --witness --checkpoint=/tmp/velo_cli_bad.snap " + T),
            2)
      << "--witness buffers the trace; checkpointing is a contradiction";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --witness --resume=/tmp/velo_cli_bad.snap " + T),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --checkpoint=/tmp/velo_cli_bad.snap "
                   "--checkpoint-every=0 " +
                   T),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --resume=/nonexistent.snap " + T),
            2)
      << "a missing snapshot is an input error, not a crash";
}

/// Kill-resume determinism for every golden trace: a run SIGKILLed at an
/// arbitrary point and resumed from its last checkpoint must produce the
/// byte-identical report and verdict of an uninterrupted run.
TEST(CrashCliTest, KillResumeMatchesStraightRunOnEveryGoldenTrace) {
  for (const char *F :
       {"flag_handoff.trace", "forkjoin_clean.trace", "intro_cycle.trace",
        "lock_cycle.trace", "rmw_violation.trace", "set_add.trace"}) {
    std::string T = dataFile(F);
    std::string Straight;
    int StraightCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T,
                                    Straight);
    ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << F;

    std::string Ckpt = ::testing::TempDir() + "/velo_cli_kill_" + F +
                       ".snap";
    std::remove(Ckpt.c_str());
    std::string Ignored;
    int CrashCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --checkpoint=" + Ckpt +
            " --checkpoint-every=1 --crash-at=3 " + T,
        Ignored);
    ASSERT_EQ(CrashCode, 128 + SIGKILL) << F << ": worker must die on KILL";

    std::string Resumed;
    int ResumedCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt + " " + T,
        Resumed);
    EXPECT_EQ(ResumedCode, StraightCode) << F;
    EXPECT_EQ(Resumed, Straight)
        << F << ": resumed report must be byte-identical";
    std::remove(Ckpt.c_str());
  }
}

TEST(CrashCliTest, ResumeAfterReferenceStopMatchesStraightRun) {
  // A 3-node cap makes the governor stop the reference checker early; a
  // run killed after that and resumed prints the straight run's report and
  // notes, the reference checker's stop note included.
  const std::string T = ::testing::TempDir() + "/velo_cli_refstop.trace";
  const std::string Ckpt = T + ".snap";
  ASSERT_EQ(runCmd(std::string(VELO_RUN_BIN) + " multiset --seed=3 --record=" +
                   T),
            1);
  const std::string Check =
      std::string(VELO_CHECK_BIN) + " --backend=all --max-live-nodes=3 ";
  std::string Straight, StraightErr, Resumed, ResumedErr, Ignored;
  const int Want = runCmdCapture(Check + T + " 2>" + T + ".err", Straight);
  StraightErr = readFileBytes(T + ".err");
  ASSERT_NE(StraightErr.find("stopped the reference checker"),
            std::string::npos)
      << StraightErr;
  std::remove(Ckpt.c_str());
  ASSERT_EQ(runCmdStdout(Check + "--checkpoint=" + Ckpt +
                             " --checkpoint-every=100 --crash-at=700 " + T,
                         Ignored),
            128 + SIGKILL);
  EXPECT_EQ(runCmdCapture(Check + "--resume=" + Ckpt + " " + T + " 2>" + T +
                              ".err",
                          Resumed),
            Want);
  ResumedErr = readFileBytes(T + ".err");
  EXPECT_EQ(Resumed, Straight);
  EXPECT_EQ(ResumedErr, StraightErr);
  for (const std::string &F : {T, Ckpt, T + ".err"})
    std::remove(F.c_str());
}

/// --max-warnings is analysis configuration, so it rides in the snapshot
/// for every checker that caps warnings: a resume given another cap keeps
/// the snapshot's, as Velodrome always did.
TEST(CrashCliTest, ResumeKeepsTheSnapshotWarningCap) {
  std::string T = dataFile("deadlock_three.trace");
  std::string Flags = " --backend=deadlock --max-warnings=1 ";
  std::string Straight;
  ASSERT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + Flags + T, Straight),
            0);
  ASSERT_NE(Straight.find("[Deadlock] 1 warning(s)"), std::string::npos)
      << Straight;

  std::string Ckpt = ::testing::TempDir() + "/velo_cli_cap.snap";
  std::remove(Ckpt.c_str());
  std::string Ignored;
  ASSERT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + Flags +
                             "--checkpoint=" + Ckpt +
                             " --checkpoint-every=1 --crash-at=12 " + T,
                         Ignored),
            128 + SIGKILL);
  std::string Resumed;
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt +
                             " --max-warnings=0 " + T,
                         Resumed),
            0);
  EXPECT_EQ(Resumed, Straight);
  std::remove(Ckpt.c_str());
}

TEST(CrashCliTest, SupervisedRunRecoversFromRepeatedCrashes) {
  // Record a trace big enough for several checkpoint windows.
  std::string T = ::testing::TempDir() + "/velo_cli_sup.trace";
  int RunCode = runCmd(std::string(VELO_RUN_BIN) +
                       " multiset --seed=3 --record=" + T);
  ASSERT_TRUE(RunCode == 0 || RunCode == 1);

  std::string Straight;
  int StraightCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T, Straight);

  // The worker dies every 400 events but each incarnation passes its last
  // checkpoint, so the supervisor keeps restarting it to completion.
  std::string Ckpt = ::testing::TempDir() + "/velo_cli_sup.snap";
  std::remove(Ckpt.c_str());
  std::string Supervised;
  int SupCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " --supervise " +
                                 "--checkpoint=" + Ckpt +
                                 " --checkpoint-every=100 --crash-at=400 " +
                                 T,
                             Supervised);
  EXPECT_EQ(SupCode, StraightCode);
  EXPECT_EQ(Supervised, Straight)
      << "supervised recovery must not change the report";
  std::remove(Ckpt.c_str());
  std::remove(T.c_str());
}

TEST(CrashCliTest, SupervisedGivesUpWithCrashBundleExitFour) {
  std::string T = dataFile("set_add.trace");
  std::string Ckpt = ::testing::TempDir() + "/velo_cli_bundle.snap";
  std::string Bundle = Ckpt + ".crash";
  std::remove(Ckpt.c_str());
  std::filesystem::remove_all(Bundle);

  // The checkpoint interval is past the crash point, so no checkpoint is
  // ever written and every restart dies in the same event window.
  std::string Out;
  int Code = runCmdAll(std::string(VELO_CHECK_BIN) + " --supervise " +
                           "--checkpoint=" + Ckpt +
                           " --checkpoint-every=100000 --crash-at=3 " +
                           "--max-crashes=3 " + T,
                       Out);
  EXPECT_EQ(Code, 4) << Out;
  EXPECT_NE(Out.find("crashed: see bundle"), std::string::npos) << Out;
  EXPECT_TRUE(std::filesystem::exists(Bundle + "/info.txt"));
  EXPECT_TRUE(std::filesystem::exists(Bundle + "/window.trace"));
  std::ifstream Info(Bundle + "/info.txt");
  std::string InfoText((std::istreambuf_iterator<char>(Info)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(InfoText.find("signal: 9"), std::string::npos) << InfoText;
  EXPECT_NE(InfoText.find("consecutive-crashes: 3"), std::string::npos);
  std::filesystem::remove_all(Bundle);
  std::remove(Ckpt.c_str());
}

TEST(CrashCliTest, FatalSignalDumpsLastEventContext) {
  // Non-supervised run dying on a catchable signal: the in-process handler
  // prints the last-events ring to stderr and still dies with the real
  // signal.
  std::string Out;
  int Code = runCmdAll(std::string(VELO_CHECK_BIN) +
                           " --crash-at=4 --crash-signal=6 " +
                           dataFile("set_add.trace"),
                       Out);
  EXPECT_EQ(Code, 128 + SIGABRT);
  EXPECT_NE(Out.find("fatal signal 6"), std::string::npos) << Out;
  EXPECT_NE(Out.find("delivered events"), std::string::npos) << Out;
  EXPECT_NE(Out.find("event 4"), std::string::npos)
      << "the ring must contain the event at the crash point: " << Out;
}

TEST(RunCliTest, GovernorFlagsGateTheLivePath) {
  // Exhausting the event budget mid-run leaves the verdict unknown.
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --seed=3 --max-events=50"),
            3);
  // Degradation to the vector-clock spare keeps the violation verdict,
  // and says so in velodrome-check's words.
  std::string Out;
  EXPECT_EQ(runCmdAll(std::string(VELO_RUN_BIN) +
                          " multiset --seed=3 --max-live-nodes=2",
                      Out),
            1);
  EXPECT_NE(Out.find("governor: live graph nodes 3 exceed cap 2; fell back "
                     "to the vector-clock checker (blame and error graphs "
                     "unavailable)\n"),
            std::string::npos)
      << Out;
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --max-events=abc"),
            2);
  for (const char *Mb : {"17592186044416", "17592186044417"})
    EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " multiset --max-memory-mb=" +
                     Mb),
              2)
        << Mb;
}

TEST(FuzzCliTest, BoundedSmokeRunPasses) {
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --corpus=" +
                   dataFile("fuzz") + " --seed=1 --iters=100 --save=" +
                   ::testing::TempDir()),
            0);
}

TEST(FuzzCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --bogus"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --iters=abc"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --seed="), 2);
  // strtoull would wrap these to 2^64-1 and 2^64-3.
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --iters=-1"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --seed=-3"), 2);
}

TEST(FuzzCliTest, VerboseReportsProgress) {
  const std::string Cmd = std::string(VELO_FUZZ_BIN) + " --corpus=" +
                          dataFile("fuzz") + " --seed=1 --iters=120 --save=" +
                          ::testing::TempDir();
  std::string Quiet, Verbose;
  ASSERT_EQ(runCmdStdout(Cmd, Quiet), 0);
  ASSERT_EQ(runCmdStdout(Cmd + " --verbose", Verbose), 0);
  EXPECT_EQ(Quiet.find("  iter "), std::string::npos) << Quiet;
  EXPECT_NE(Verbose.find("  iter 0...\n"), std::string::npos) << Verbose;
  EXPECT_NE(Verbose.find("  iter 100...\n"), std::string::npos) << Verbose;
}

TEST(RunCliTest, ExcludeKnownSkipsTheKnownNonAtomicMethods) {
  std::string Plain, Excluded;
  EXPECT_EQ(runCmdStdout(std::string(VELO_RUN_BIN) + " multiset --seed=3",
                         Plain),
            1);
  EXPECT_EQ(runCmdStdout(std::string(VELO_RUN_BIN) +
                             " multiset --seed=3 --exclude-known",
                         Excluded),
            0);
  EXPECT_NE(Excluded.find("[Velodrome] 0 violation(s)"), std::string::npos)
      << Excluded;
}

TEST(RunCliTest, ListAndUnknownWorkload) {
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " --list"), 0);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " no-such-workload"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN)), 2);
}

TEST(RunCliTest, RecordedRunRoundTripsThroughCheck) {
  std::string TraceFile = "/tmp/velo_cli_run.trace";
  std::remove(TraceFile.c_str());
  int RunCode = runCmd(std::string(VELO_RUN_BIN) +
                       " multiset --seed=3 --record=" + TraceFile);
  // multiset has planted bugs; on most seeds the run observes one.
  EXPECT_TRUE(RunCode == 0 || RunCode == 1);
  int CheckCode =
      runCmd(std::string(VELO_CHECK_BIN) + " --quiet " + TraceFile);
  EXPECT_EQ(CheckCode, RunCode)
      << "offline verdict must match the online one on the same trace";
}

/// velodrome-run's report counts what velodrome-check counts on the trace
/// the same run records, whether or not the run records it.
TEST(RunCliTest, ReportCountsWhatCheckCountsOnTheRecording) {
  const std::string Rec = ::testing::TempDir() + "/velo_cli_counts.trace";
  for (const std::string &W : workloadNames()) {
    const std::string Base =
        std::string(VELO_RUN_BIN) + " " + W + " --seed=3";
    std::string Run, Check;
    runCmdStdout(Base + " --record=" + Rec, Check);
    runCmdStdout(Base + " --format=json", Run);
    runCmdStdout(std::string(VELO_CHECK_BIN) +
                     " --backend=velodrome --format=json " + Rec,
                 Check);
    EXPECT_NE(jsonLine(Run, "threads"), "\"threads\": 0,") << W;
    EXPECT_EQ(jsonLine(Run, "threads"), jsonLine(Check, "threads")) << W;
    EXPECT_EQ(jsonLine(Run, "events"), jsonLine(Check, "events")) << W;
  }
  std::remove(Rec.c_str());
}

/// After a governor stop the plan delivers nothing more, so the live run
/// reports the counts and findings velodrome-check reports on its
/// recording (which stops at the same event).
TEST(RunCliTest, StoppedRunReportsWhatCheckReports) {
  const std::string Rec = ::testing::TempDir() + "/velo_cli_stopped.trace";
  const std::string Caps = " --backend=all --max-events=500 --format=json ";
  std::string Run, Check;
  int RunCode = runCmdStdout(std::string(VELO_RUN_BIN) +
                                 " multiset --seed=3" + Caps + "--record=" +
                                 Rec,
                             Run);
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + Caps + Rec, Check),
            RunCode);
  EXPECT_EQ(jsonLine(Run, "events"), "\"events\": 501,") << Run;
  EXPECT_EQ(withoutToolAndTrace(Run), withoutToolAndTrace(Check));
  std::remove(Rec.c_str());
}

TEST(RunCliTest, CleanWorkloadExitsZero) {
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " raja --seed=5"), 0);
}

TEST(RunCliTest, MalformedScaleExitsTwo) {
  for (const char *Bad : {"--scale=0", "--scale=-3", "--scale=abc",
                          "--scale=", "--scale=2x", "--scale=+4",
                          "--scale=99999999999999999999"})
    EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " " + Bad + " philo"), 2)
        << Bad;
}

TEST(RunCliTest, MalformedSeedExitsTwo) {
  for (const char *Bad : {"--seed=", "--seed=-1", "--seed=12junk",
                          "--seed=+7", "--seed=0x10",
                          "--seed=99999999999999999999999999"})
    EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " " + Bad + " philo"), 2)
        << Bad;
}

TEST(RunCliTest, ValidScaleAndSeedStillRun) {
  int Code = runCmd(std::string(VELO_RUN_BIN) +
                    " philo --scale=2 --seed=7");
  EXPECT_TRUE(Code == 0 || Code == 1) << "verdict exit, not a usage error";
}

TEST(RunCliTest, BackendSelectionWorks) {
  // velodrome-check's vocabulary, all eight selectors.
  for (const char *Backend : {"velodrome", "basic", "aero", "atomizer",
                              "eraser", "hb", "deadlock", "all"}) {
    int Code = runCmd(std::string(VELO_RUN_BIN) + " multiset --seed=3" +
                      " --backend=" + Backend);
    EXPECT_TRUE(Code == 0 || Code == 1) << Backend;
  }
  for (const char *Bad : {"bogus", "both"})
    EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                     " multiset --backend=" + Bad),
              2)
        << Bad;
}

//===----------------------------------------------------------------------===//
// Static reduction: --reduce on check/run, the velodrome-analyze report
//===----------------------------------------------------------------------===//

/// Everything after the first line — the header's delivered-event count
/// legitimately differs under reduction, the verdict and warnings must not.
std::string withoutHeader(const std::string &Out) {
  size_t NL = Out.find('\n');
  return NL == std::string::npos ? std::string() : Out.substr(NL + 1);
}

TEST(ReduceCliTest, CheckReportMatchesPlainOnEveryGoldenTrace) {
  for (const char *F :
       {"flag_handoff.trace", "forkjoin_clean.trace", "intro_cycle.trace",
        "lock_cycle.trace", "rmw_violation.trace", "set_add.trace"}) {
    std::string T = dataFile(F);
    std::string Plain, Reduced;
    int PlainCode =
        runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T, Plain);
    int ReducedCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --reduce=all " + T, Reduced);
    EXPECT_EQ(ReducedCode, PlainCode) << F;
    EXPECT_EQ(withoutHeader(Reduced), withoutHeader(Plain))
        << F << ": reduced report must be byte-identical below the header";
  }
}

TEST(ReduceCliTest, CheckFlagValidationExitsTwo) {
  std::string T = dataFile("rmw_violation.trace");
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --reduce=bogus " + T), 2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --reduce=all --no-merge " +
                   T),
            2)
      << "per-op unary nodes make collapsed repeats observable";
}

TEST(ReduceCliTest, StatsReportPerPassCounters) {
  std::string Out;
  int Code = runCmdStdout(std::string(VELO_CHECK_BIN) +
                              " --stats --reduce=all " +
                              dataFile("set_add.trace"),
                          Out);
  EXPECT_EQ(Code, 1);
  EXPECT_NE(Out.find("[reduce]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("escape="), std::string::npos) << Out;
  EXPECT_NE(Out.find("dropped="), std::string::npos) << Out;
}

TEST(ReduceCliTest, KillResumeUnderReductionMatchesStraightRun) {
  for (const char *F : {"rmw_violation.trace", "flag_handoff.trace"}) {
    std::string T = dataFile(F);
    std::string Straight;
    int StraightCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --reduce=all " + T, Straight);
    ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << F;

    std::string Ckpt = ::testing::TempDir() + "/velo_cli_reduce_" + F +
                       ".snap";
    std::remove(Ckpt.c_str());
    std::string Ignored;
    int CrashCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --reduce=all --checkpoint=" + Ckpt +
            " --checkpoint-every=1 --crash-at=3 " + T,
        Ignored);
    ASSERT_EQ(CrashCode, 128 + SIGKILL) << F;

    // The snapshot carries the reduce spec and filter state; the resumed
    // run must not need (and must not redo) the classification sweep.
    std::string Resumed;
    int ResumedCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt + " " + T,
        Resumed);
    EXPECT_EQ(ResumedCode, StraightCode) << F;
    EXPECT_EQ(Resumed, Straight) << F;
    std::remove(Ckpt.c_str());
  }
}

TEST(ReduceCliTest, RunDeferredModeKeepsTheVerdict) {
  int Plain = runCmd(std::string(VELO_RUN_BIN) + " multiset --seed=3");
  ASSERT_TRUE(Plain == 0 || Plain == 1);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --seed=3 --reduce=all"),
            Plain);
  // The deferred replay runs through the plan: the report counts the
  // sanitized stream and locates findings by sanitized ordinal, as the
  // live run does.
  const std::vector<std::string> Workloads = workloadNames();
  ASSERT_EQ(Workloads.size(), 15u);
  for (const std::string &W : Workloads) {
    const std::string Run =
        std::string(VELO_RUN_BIN) + " " + W + " --seed=3 --format=json";
    std::string Live, Deferred;
    int LiveCode = runCmdStdout(Run, Live);
    EXPECT_EQ(runCmdStdout(Run + " --reduce=all", Deferred), LiveCode) << W;
    EXPECT_EQ(Deferred, Live) << W;
  }
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --seed=3 --reduce=all --adversarial"),
            2)
      << "the adversarial scheduler needs the live Atomizer feed";
}

TEST(AnalyzeCliTest, ReportsLintAndReduction) {
  std::string Out;
  int Code = runCmdStdout(std::string(VELO_ANALYZE_BIN) + " " +
                              dataFile("set_add.trace"),
                          Out);
  EXPECT_EQ(Code, 0) << "set_add has no lint findings";
  EXPECT_NE(Out.find("lock-discipline lint:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("passes: all"), std::string::npos) << Out;
  EXPECT_NE(Out.find("reduction:"), std::string::npos) << Out;

  std::string NoLint;
  runCmdStdout(std::string(VELO_ANALYZE_BIN) + " --no-lint " +
                   dataFile("set_add.trace"),
               NoLint);
  EXPECT_EQ(NoLint.find("lock-discipline lint:"), std::string::npos);
}

TEST(AnalyzeCliTest, WrittenReducedTraceKeepsTheCheckVerdict) {
  std::string Reduced = ::testing::TempDir() + "/velo_cli_reduced.trace";
  std::remove(Reduced.c_str());
  for (const char *F : {"rmw_violation.trace", "flag_handoff.trace"}) {
    std::string T = dataFile(F);
    int Plain = runCmd(std::string(VELO_CHECK_BIN) + " --quiet " + T);
    ASSERT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) +
                     " --lint-ok --write-reduced=" + Reduced + " " + T),
              0)
        << F;
    EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " + Reduced),
              Plain)
        << F << ": the reduced trace must check to the same verdict";
  }
  std::remove(Reduced.c_str());
}

TEST(AnalyzeCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN)), 2) << "no trace file";
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) + " --reduce=bogus " +
                   dataFile("set_add.trace")),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) + " /nonexistent.trace"),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) + " --bogus " +
                   dataFile("set_add.trace")),
            2);
}

TEST(AnalyzeCliTest, StrictAfterLenientRejects) {
  const std::string T = dataFile("fuzz/end_without_begin.trace");
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) + " --lenient --strict " +
                   T),
            2);
  // Repaired, the trace reaches the lint, which finds the race.
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) + " --strict --lenient " +
                   T),
            1);
}

//===----------------------------------------------------------------------===//
// --parallel: the hard invariant is byte-identity with the sequential
// loop — stdout, stderr, and exit code — on every golden trace and under
// every flag combination the mode composes with.
//===----------------------------------------------------------------------===//

TEST(ParallelCliTest, ByteIdenticalOnEveryGoldenTrace) {
  for (const char *F :
       {"flag_handoff.trace", "forkjoin_clean.trace", "intro_cycle.trace",
        "lock_cycle.trace", "rmw_violation.trace", "set_add.trace"}) {
    std::string T = dataFile(F);
    for (const char *Extra :
         {"", " --reduce=all", " --stats", " --reduce=all --stats",
          " --lenient", " --quiet"}) {
      std::string Seq, Par;
      int SeqCode = runCmdAll(std::string(VELO_CHECK_BIN) + Extra + " " + T,
                              Seq);
      // Tiny batches force many hand-offs; the output must not notice.
      int ParCode = runCmdAll(std::string(VELO_CHECK_BIN) +
                                  " --parallel --batch-events=7" + Extra +
                                  " " + T,
                              Par);
      EXPECT_EQ(SeqCode, ParCode) << F << Extra;
      EXPECT_EQ(Seq, Par) << F << Extra << ": parallel output diverged";
    }
  }
}

TEST(ParallelCliTest, CompositionRefusalsExitTwo) {
  const std::string Check = std::string(VELO_CHECK_BIN) + " ";
  std::string T = dataFile("set_add.trace");
  // Explicit caps compose with --parallel: an event budget puts every
  // back-end on the governor's worker, so the stop event ends delivery
  // for all of them, and a node cap on `all` degrades instead of
  // stopping. Either way the parallel run prints the sequential bytes.
  for (const char *Caps :
       {"--max-events=10", "--max-live-nodes=64", "--max-live-nodes=1"}) {
    std::string Want, Got;
    const int WantCode = runCmdAll(Check + Caps + " " + T, Want);
    EXPECT_EQ(runCmdAll(Check + "--parallel " + Caps + " " + T, Got),
              WantCode)
        << Caps;
    EXPECT_EQ(Got, Want) << Caps;
  }
  EXPECT_EQ(runCmd(Check + "--parallel --batch-events=0 " + T), 2);
  EXPECT_EQ(runCmd(Check + "--batch-events=16 " + T), 2)
      << "--batch-events only means something under --parallel";

  // The caps travel in the snapshot: a resume of a capped sequential
  // run's snapshot, parallel or not, prints that run's bytes.
  std::string Ckpt = ::testing::TempDir() + "/velo_cli_capped.snap";
  std::remove(Ckpt.c_str());
  std::string Ignored;
  int CrashCode = runCmdStdout(Check + "--checkpoint=" + Ckpt +
                                   " --checkpoint-every=1 --crash-at=3 "
                                   "--max-events=10 " +
                                   T,
                               Ignored);
  ASSERT_EQ(CrashCode, 128 + SIGKILL);
  std::string Want;
  const int WantCode = runCmdAll(Check + "--max-events=10 " + T, Want);
  for (const char *Mode : {"", "--parallel "}) {
    std::string Got;
    EXPECT_EQ(runCmdAll(Check + Mode + "--resume=" + Ckpt + " " + T, Got),
              WantCode)
        << Mode;
    EXPECT_EQ(Got, Want) << Mode;
  }
  std::remove(Ckpt.c_str());
  std::remove((Ckpt + ".lastevents").c_str());
}

/// Caps that spell out the defaults are no caps: --parallel takes them.
TEST(ParallelCliTest, DefaultCapsComposeWithParallel) {
  std::string T = dataFile("set_add.trace");
  std::string Want;
  int WantCode =
      runCmdAll(std::string(VELO_CHECK_BIN) + " --parallel " + T, Want);
  ASSERT_TRUE(WantCode == 0 || WantCode == 1) << Want;
  for (const char *Caps : {"--max-live-nodes=60000", "--max-events=0",
                           "--max-memory-mb=0 --deadline-ms=0"}) {
    std::string Got;
    EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " --parallel " + Caps +
                            " " + T,
                        Got),
              WantCode)
        << Caps;
    EXPECT_EQ(Got, Want) << Caps;
  }
}

TEST(ParallelCliTest, KillResumeRoundTripsAcrossModes) {
  std::string T = dataFile("set_add.trace");
  std::string Straight;
  int StraightCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T, Straight);
  ASSERT_TRUE(StraightCode == 0 || StraightCode == 1);

  // Parallel checkpoint, then resume in both modes.
  std::string Ckpt = ::testing::TempDir() + "/velo_cli_parkill.snap";
  std::remove(Ckpt.c_str());
  std::string Ignored;
  int CrashCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                   " --parallel --batch-events=2 "
                                   "--checkpoint=" + Ckpt +
                                   " --checkpoint-every=1 --crash-at=3 " + T,
                               Ignored);
  ASSERT_EQ(CrashCode, 128 + SIGKILL);

  std::string Out;
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) +
                             " --parallel --resume=" + Ckpt + " " + T,
                         Out),
            StraightCode);
  EXPECT_EQ(Out, Straight) << "parallel -> parallel resume";
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt +
                             " " + T,
                         Out),
            StraightCode);
  EXPECT_EQ(Out, Straight) << "parallel -> sequential resume";
  std::remove(Ckpt.c_str());

  // Sequential checkpoint, parallel resume.
  CrashCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " --checkpoint=" +
                               Ckpt +
                               " --checkpoint-every=1 --crash-at=3 " + T,
                           Ignored);
  ASSERT_EQ(CrashCode, 128 + SIGKILL);
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) +
                             " --parallel --resume=" + Ckpt + " " + T,
                         Out),
            StraightCode);
  EXPECT_EQ(Out, Straight) << "sequential -> parallel resume";
  std::remove(Ckpt.c_str());
}

TEST(ParallelCliTest, StoppedRunCountsWhatTheSequentialRunCounts) {
  // 60,010 transactions open at once trip the default 60,000-node cap on
  // --backend=velodrome, which has no fallback, so the run stops mid-trace
  // (exit 3). Every engine must report the counters as of the stop event,
  // and a parallel checkpoint must not land past it.
  const std::string T = ::testing::TempDir() + "/velo_cli_wide.trace";
  {
    std::ofstream Out(T);
    for (int I = 1; I <= 60010; ++I)
      Out << "T" << I << " begin m\nT" << I << " rd x\n";
    for (int I = 1; I <= 60010; ++I)
      Out << "T" << I << " end\n";
  }
  const std::string Check = std::string(VELO_CHECK_BIN) +
                            " --backend=velodrome ";
  const std::string Ckpt = T + ".snap";
  std::remove(Ckpt.c_str());
  std::string Ignored;
  ASSERT_EQ(runCmdStdout(Check + "--parallel --checkpoint=" + Ckpt +
                             " --checkpoint-every=1000 " + T,
                         Ignored),
            3);
  const std::pair<const char *, const char *> Formats[] = {
      {"--format=text ", "120001 events, 60002 threads"},
      {"--format=json ", "\"events\": 120001,\n  \"threads\": 60002"}};
  for (const auto &[Format, Counts] : Formats) {
    std::string Want;
    ASSERT_EQ(runCmdStdout(Check + Format + T, Want), 3) << Format;
    EXPECT_NE(Want.find(Counts), std::string::npos) << Want;
    for (const std::string &Mode :
         {std::string("--parallel "), std::string("--parallel --reduce=all "),
          "--parallel --resume=" + Ckpt + " "}) {
      std::string Got;
      EXPECT_EQ(runCmdStdout(Check + Format + Mode + T, Got), 3)
          << Format << Mode;
      EXPECT_EQ(Got, Want) << Format << Mode;
    }
  }
  // The filter's per-pass counters count as of the stop event too.
  const std::string ReduceCkpt = T + ".reduce.snap";
  std::remove(ReduceCkpt.c_str());
  ASSERT_EQ(runCmdStdout(Check + "--parallel --reduce=all --checkpoint=" +
                             ReduceCkpt + " --checkpoint-every=1000 " + T,
                         Ignored),
            3);
  const std::string Stats = Check + "--stats --reduce=all ";
  std::string Want;
  ASSERT_EQ(runCmdStdout(Stats + T, Want), 3);
  EXPECT_NE(Want.find("[reduce] escape=0 readonly=0 redundant=0 "
                      "dropped=0/120001\n"),
            std::string::npos)
      << Want;
  const std::string Resume = "--parallel --resume=" + ReduceCkpt + " ";
  for (const std::string &Mode : {std::string("--parallel "), Resume}) {
    std::string Got;
    EXPECT_EQ(runCmdStdout(Stats + Mode + T, Got), 3) << Mode;
    EXPECT_EQ(Got, Want) << Mode;
  }
  std::remove(ReduceCkpt.c_str());
  std::remove(Ckpt.c_str());
  std::remove(T.c_str());
}

TEST(ParallelCliTest, SupervisedParallelRecovers) {
  std::string T = ::testing::TempDir() + "/velo_cli_parsup.trace";
  int RunCode = runCmd(std::string(VELO_RUN_BIN) +
                       " multiset --seed=3 --record=" + T);
  ASSERT_TRUE(RunCode == 0 || RunCode == 1);

  std::string Straight;
  int StraightCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                      " --parallel " + T,
                                  Straight);

  std::string Ckpt = ::testing::TempDir() + "/velo_cli_parsup.snap";
  std::remove(Ckpt.c_str());
  std::string Supervised;
  int SupCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                 " --parallel --supervise --checkpoint=" +
                                 Ckpt +
                                 " --checkpoint-every=100 --crash-at=400 " +
                                 T,
                             Supervised);
  EXPECT_EQ(SupCode, StraightCode);
  EXPECT_EQ(Supervised, Straight)
      << "supervised parallel recovery must not change the report";
  std::remove(Ckpt.c_str());
  std::remove(T.c_str());
}

TEST(ParallelCliTest, StallEnvHookKeepsOutputIdentical) {
  std::string T = dataFile("rmw_violation.trace");
  std::string Seq;
  int SeqCode = runCmdAll(std::string(VELO_CHECK_BIN) + " " + T, Seq);
  for (const char *Stall :
       {"reader:200", "sanitizer:200", "worker:200", "worker0:200"}) {
    std::string Par;
    int ParCode = runCmdAll(std::string("VELO_PIPELINE_STALL=") + Stall +
                                " " + VELO_CHECK_BIN +
                                " --parallel --batch-events=2 " + T,
                            Par);
    EXPECT_EQ(SeqCode, ParCode) << Stall;
    EXPECT_EQ(Seq, Par) << Stall;
  }
  // A malformed spec warns on stderr but does not change the run.
  std::string Out;
  int Code = runCmdAll(std::string("VELO_PIPELINE_STALL=bogus ") +
                           VELO_CHECK_BIN + " --parallel " + T,
                       Out);
  EXPECT_EQ(Code, SeqCode);
  EXPECT_NE(Out.find("VELO_PIPELINE_STALL"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// velodrome-convert: the VELOTRC binary wire format (docs/INGESTION.md)
//===----------------------------------------------------------------------===//

void replaceAll(std::string &S, const std::string &From,
                const std::string &To) {
  for (size_t P = 0; (P = S.find(From, P)) != std::string::npos;
       P += To.size())
    S.replace(P, From.size(), To);
}

std::vector<std::string> goldenTraces() {
  std::vector<std::string> Out;
  for (const auto &E :
       std::filesystem::directory_iterator(VELO_TEST_DATA_DIR))
    if (E.path().extension() == ".trace")
      Out.push_back(E.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(ConvertCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN)), 2) << "missing operands";
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " a.trace"), 2)
      << "missing output";
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --to=xml a b"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --frame-events=0 a b"),
            2);
  // Text output has no frames: the flag would do nothing.
  const std::string Out = ::testing::TempDir() + "/velo_conv_frames.trace";
  std::remove(Out.c_str());
  std::string Err;
  EXPECT_EQ(runCmdAll(std::string(VELO_CONVERT_BIN) + " --frame-events=2 " +
                          dataFile("set_add.trace") + " " + Out,
                      Err),
            2);
  EXPECT_EQ(Err.rfind("error: --frame-events ", 0), 0u) << Err;
  EXPECT_FALSE(std::ifstream(Out).good()) << "a refused run wrote " << Out;
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) +
                   " --frame-events=2 --to=text " + dataFile("set_add.trace") +
                   " " + Out + ".vtrc"),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) +
                   " /nonexistent.trace /tmp/velo_conv_out.vtrc"),
            2);
}

TEST(ConvertCliTest, BinaryTextBinaryIsAFixpointOnEveryGoldenTrace) {
  std::string Tmp = ::testing::TempDir();
  for (const std::string &T : goldenTraces()) {
    std::string A = Tmp + "/velo_fix_a.vtrc", B = Tmp + "/velo_fix_b.trace",
                C = Tmp + "/velo_fix_c.vtrc", D = Tmp + "/velo_fix_d.trace";
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + T + " " + A), 0)
        << T;
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + A + " " + B), 0)
        << T;
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + B + " " + C), 0)
        << T;
    EXPECT_EQ(readFileBytes(A), readFileBytes(C))
        << T << ": binary -> text -> binary must be byte-identical";
    // The canonical text rendering is itself a fixpoint.
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --to=text " + B +
                     " " + D),
              0)
        << T;
    EXPECT_EQ(readFileBytes(B), readFileBytes(D)) << T;
    for (const std::string &F : {A, B, C, D})
      std::remove(F.c_str());
  }
}

TEST(ConvertCliTest, VerdictsByteIdenticalTextVsBinaryAcrossModes) {
  // The tentpole invariant: a trace and its binary conversion produce
  // byte-identical reports and exit codes for every backend, sequential
  // and parallel, with and without static reduction.
  std::string Tmp = ::testing::TempDir();
  for (const std::string &T : goldenTraces()) {
    std::string Bin = Tmp + "/velo_verd.vtrc";
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + T + " " + Bin),
              0)
        << T;
    for (const char *Mode :
         {"", " --parallel", " --reduce=all", " --parallel --reduce=all"}) {
      std::string TextOut, BinOut;
      int TextCode = runCmdStdout(
          std::string(VELO_CHECK_BIN) + Mode + " " + T, TextOut);
      int BinCode = runCmdStdout(
          std::string(VELO_CHECK_BIN) + Mode + " " + Bin, BinOut);
      EXPECT_EQ(TextCode, BinCode) << T << Mode;
      replaceAll(TextOut, T, "TRACE");
      replaceAll(BinOut, Bin, "TRACE");
      EXPECT_EQ(TextOut, BinOut) << T << Mode;
    }
    std::remove(Bin.c_str());
  }
}

TEST(ConvertCliTest, CorruptedContainersExitTwoWithDiagnostic) {
  std::string Tmp = ::testing::TempDir();
  std::string Bin = Tmp + "/velo_corrupt.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " +
                   dataFile("rmw_violation.trace") + " " + Bin),
            0);
  std::string Bytes = readFileBytes(Bin);
  ASSERT_GT(Bytes.size(), 40u);

  std::string Cut = Tmp + "/velo_corrupt_cut.vtrc";
  {
    std::ofstream Out(Cut, std::ios::binary);
    Out.write(Bytes.data(), static_cast<long>(Bytes.size() / 2));
  }
  std::string Diag;
  EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " " + Cut, Diag), 2);
  EXPECT_NE(Diag.find(Cut), std::string::npos) << Diag;

  std::string Flip = Tmp + "/velo_corrupt_flip.vtrc";
  {
    std::string Mut = Bytes;
    Mut[Mut.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(Mut[Mut.size() / 2]) ^ 0x40);
    std::ofstream Out(Flip, std::ios::binary);
    Out.write(Mut.data(), static_cast<long>(Mut.size()));
  }
  EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " " + Flip, Diag), 2);
  EXPECT_NE(Diag.find(Flip), std::string::npos) << Diag;

  // velodrome-convert reports the same class of failure the same way.
  EXPECT_EQ(runCmdAll(std::string(VELO_CONVERT_BIN) + " " + Flip + " " +
                          Tmp + "/velo_corrupt_out.trace",
                      Diag),
            2);
  EXPECT_NE(Diag.find("error:"), std::string::npos) << Diag;
  for (const char *F : {"velo_corrupt.vtrc", "velo_corrupt_cut.vtrc",
                        "velo_corrupt_flip.vtrc"})
    std::remove((Tmp + "/" + F).c_str());
}

TEST(CheckCliTest, RepeatedSymbolNameInContainerExitsTwo) {
  // Three frames, ten events; the first frame defines x twice. Ids in a
  // container are symbol-table ids, which a resumed run rebuilds from the
  // names alone, so the repeat is a parse error at the first event whether
  // the reader runs sequentially or in the pipeline.
  using velo::Op;
  using velo::test::PayloadBuilder;
  PayloadBuilder F1, F2, F3;
  F1.block(0, {"x", "x"}).block(0, {"m"}).block(0, {}).count(4);
  F1.event(Op::Acquire, 0, 0)
      .event(Op::Read, 0, 0)
      .event(Op::Write, 0, 1)
      .event(Op::Release, 0, 0);
  F2.block(2, {"y"}).block(1, {}).block(0, {}).count(3);
  F2.event(Op::Read, 0, 2).event(Op::Write, 0, 2).event(Op::Read, 0, 0);
  F3.block(3, {}).block(1, {}).block(0, {}).count(3);
  F3.event(Op::Write, 0, 0).event(Op::Write, 0, 1).event(Op::Read, 0, 2);
  const std::string Path = ::testing::TempDir() + "/velo_dup_names.vtrc";
  {
    const std::string Bytes = velo::test::containerOf({F1, F2, F3});
    std::ofstream Out(Path, std::ios::binary);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  for (const char *Mode : {"", " --parallel"}) {
    std::string Diag;
    EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + Mode +
                            " --backend=velodrome " + Path,
                        Diag),
              2)
        << Mode;
    EXPECT_NE(Diag.find(Path + ":1: duplicate variable name in symbol block"),
              std::string::npos)
        << Mode << ": " << Diag;
  }
  std::remove(Path.c_str());
}

TEST(ConvertCliTest, RecordedVtrcIsNativeBinaryAndVerdictPreserving) {
  // velodrome-run --record picks the container by extension: recording
  // straight to .vtrc is native binary emission from the runtime.
  std::string Tmp = ::testing::TempDir();
  std::string Bin = Tmp + "/velo_rec.vtrc";
  int RunCode = runCmd(std::string(VELO_RUN_BIN) +
                       " multiset --seed=3 --record=" + Bin);
  ASSERT_TRUE(RunCode == 0 || RunCode == 1);
  EXPECT_EQ(readFileBytes(Bin).compare(0, 8, "VELOTRC\n"), 0)
      << "recorded file must be a VELOTRC container";

  std::string Text = Tmp + "/velo_rec.trace";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + Bin + " " + Text),
            0);
  std::string BinOut, TextOut;
  int BinCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " " + Bin,
                             BinOut);
  int TextCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " " + Text,
                              TextOut);
  EXPECT_EQ(BinCode, TextCode);
  replaceAll(BinOut, Bin, "TRACE");
  replaceAll(TextOut, Text, "TRACE");
  EXPECT_EQ(BinOut, TextOut);
  std::remove(Bin.c_str());
  std::remove(Text.c_str());
}

TEST(ConvertCliTest, KillResumeOnBinaryMatchesStraightRun) {
  // Binary checkpoints land on frame boundaries; convert with tiny frames
  // so --checkpoint-every=1 has boundaries to bind to.
  std::string Tmp = ::testing::TempDir();
  for (const char *F : {"rmw_violation.trace", "set_add.trace"}) {
    std::string Bin = Tmp + "/velo_bres_" + std::string(F) + ".vtrc";
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --frame-events=2 " +
                     dataFile(F) + " " + Bin),
              0)
        << F;
    std::string Straight;
    int StraightCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " " + Bin, Straight);
    ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << F;

    std::string Ckpt = Tmp + "/velo_bres_" + std::string(F) + ".snap";
    std::remove(Ckpt.c_str());
    std::string Ignored;
    int CrashCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --checkpoint=" + Ckpt +
            " --checkpoint-every=1 --crash-at=3 " + Bin,
        Ignored);
    ASSERT_EQ(CrashCode, 128 + SIGKILL) << F;

    std::string Resumed;
    int ResumedCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt + " " + Bin,
        Resumed);
    EXPECT_EQ(ResumedCode, StraightCode) << F;
    EXPECT_EQ(Resumed, Straight)
        << F << ": binary resume must be byte-identical to a straight run";
    std::remove(Ckpt.c_str());
    std::remove(Bin.c_str());
  }
}

TEST(ConvertCliTest, AnalyzeWritesReducedBinaryByExtension) {
  std::string Red = ::testing::TempDir() + "/velo_reduced.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) +
                   " --lint-ok --write-reduced=" + Red + " " +
                   dataFile("flag_handoff.trace")),
            0);
  EXPECT_EQ(readFileBytes(Red).compare(0, 8, "VELOTRC\n"), 0);
  int Code = runCmd(std::string(VELO_CHECK_BIN) + " " + Red);
  EXPECT_TRUE(Code == 0 || Code == 1);
  std::remove(Red.c_str());
}

// Graceful shutdown under --supervise: SIGTERM arrives while the worker is
// checkpointing at a deliberately absurd cadence, so the signal lands in or
// next to a snapshot-write window. The supervisor must forward the signal,
// the worker must drain at a record boundary and land one final checkpoint
// (rename-atomic, so never torn), and the whole thing must report
// 128+SIGTERM with a snapshot that resumes to a byte-identical report.
TEST(CheckCliTest, SupervisedSigtermLandsAResumableCheckpoint) {
  velo::TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Vars = 32;
  Opts.Locks = 4;
  Opts.Steps = 40000;
  Opts.GuardedAccessPct = 60;
  velo::Trace T = velo::generateRandomTrace(29, Opts);
  std::string Stem =
      "/tmp/velo_cli_graceful_" + std::to_string(::getpid());
  std::string TracePath = Stem + ".trace";
  std::string Ckpt = Stem + ".snap";
  {
    std::ofstream Out(TracePath);
    Out << velo::printTrace(T);
    ASSERT_TRUE(Out.good());
  }
  std::remove(Ckpt.c_str());

  std::string Straight;
  int StraightCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + TracePath, Straight);
  ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << Straight;

  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Quiet child: the supervisor narrates the shutdown on stderr.
    (void)std::freopen("/dev/null", "w", stdout);
    (void)std::freopen("/dev/null", "w", stderr);
    ::execl(VELO_CHECK_BIN, VELO_CHECK_BIN, "--supervise",
            ("--checkpoint=" + Ckpt).c_str(), "--checkpoint-every=8",
            TracePath.c_str(), static_cast<char *>(nullptr));
    std::_Exit(127);
  }

  // Every-8-events checkpointing means the run's wall clock is almost all
  // snapshot writes — wait for the first one, give the worker a moment to
  // get deep into the trace, then pull the trigger.
  bool Seen = false;
  for (int I = 0; I < 2500 && !Seen; ++I) {
    struct stat St;
    Seen = ::stat(Ckpt.c_str(), &St) == 0;
    if (!Seen)
      ::usleep(2 * 1000);
  }
  ASSERT_TRUE(Seen) << "no checkpoint ever appeared";
  ::usleep(30 * 1000);
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status))
      << "supervisor must exit, not die on the forwarded signal";
  EXPECT_EQ(WEXITSTATUS(Status), 128 + SIGTERM)
      << "supervisor must report the forwarded signal";

  // A graceful drain finishes its rename — no half-written snapshot left.
  struct stat St;
  EXPECT_NE(::stat((Ckpt + ".tmp").c_str(), &St), 0)
      << "graceful shutdown left a torn snapshot temp file";
  ASSERT_EQ(::stat(Ckpt.c_str(), &St), 0);

  std::string Resumed;
  int ResumedCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                     " --resume=" + Ckpt + " " + TracePath,
                                 Resumed);
  EXPECT_EQ(ResumedCode, StraightCode);
  EXPECT_EQ(Resumed, Straight)
      << "resume after graceful shutdown must be byte-identical";

  std::remove(TracePath.c_str());
  std::remove(Ckpt.c_str());
}

/// --grace-ms=0 gives the worker no time to drain: the supervisor
/// escalates to SIGKILL at once and says so. Checkpoints are rename-atomic,
/// so the last one still resumes to the uninterrupted report.
TEST(CheckCliTest, SupervisedSigtermWithoutGraceEscalates) {
  velo::TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Vars = 32;
  Opts.Locks = 4;
  Opts.Steps = 40000;
  Opts.GuardedAccessPct = 60;
  velo::Trace T = velo::generateRandomTrace(31, Opts);
  std::string Stem = "/tmp/velo_cli_nograce_" + std::to_string(::getpid());
  std::string TracePath = Stem + ".trace", Ckpt = Stem + ".snap",
              ErrPath = Stem + ".err";
  {
    std::ofstream Out(TracePath);
    Out << velo::printTrace(T);
    ASSERT_TRUE(Out.good());
  }
  std::remove(Ckpt.c_str());

  std::string Straight;
  int StraightCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + TracePath, Straight);
  ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << Straight;

  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    (void)std::freopen("/dev/null", "w", stdout);
    (void)std::freopen(ErrPath.c_str(), "w", stderr);
    ::execl(VELO_CHECK_BIN, VELO_CHECK_BIN, "--supervise", "--grace-ms=0",
            ("--checkpoint=" + Ckpt).c_str(), "--checkpoint-every=8",
            TracePath.c_str(), static_cast<char *>(nullptr));
    std::_Exit(127);
  }
  bool Seen = false;
  for (int I = 0; I < 2500 && !Seen; ++I) {
    struct stat St;
    Seen = ::stat(Ckpt.c_str(), &St) == 0;
    if (!Seen)
      ::usleep(2 * 1000);
  }
  ASSERT_TRUE(Seen) << "no checkpoint ever appeared";
  ::usleep(30 * 1000);
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 128 + SIGTERM);
  std::string Err;
  {
    std::ifstream In(ErrPath);
    Err.assign(std::istreambuf_iterator<char>(In),
               std::istreambuf_iterator<char>());
  }
  EXPECT_NE(Err.find("supervisor: worker did not stop within 0 ms; "
                     "escalating to SIGKILL\n"),
            std::string::npos)
      << Err;

  std::string Resumed;
  int ResumedCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                     " --resume=" + Ckpt + " " + TracePath,
                                 Resumed);
  EXPECT_EQ(ResumedCode, StraightCode);
  EXPECT_EQ(Resumed, Straight);
  for (const std::string &F : {TracePath, Ckpt, Ckpt + ".tmp", ErrPath})
    std::remove(F.c_str());
}

/// What velodrome-check refuses as inert, velodrome-run refuses too, in
/// one line naming the flag: a stall policy without adversarial
/// scheduling (every policy records the same trace), and a cap nothing
/// would enforce.
TEST(RunCliTest, FlagsThatWouldDoNothingExitTwo) {
  const std::string Run = std::string(VELO_RUN_BIN) + " tsp --seed=3 ";
  const std::pair<const char *, const char *> Refused[] = {
      {"--policy=writes", "--policy"},
      {"--policy=all", "--policy"},
      {"--backend=hb --max-events=10", "--max-events"},
      {"--backend=aero --max-live-nodes=1", "--max-live-nodes"},
      {"--backend=basic --max-memory-mb=1", "--max-memory-mb"}};
  for (const auto &[Flags, Named] : Refused) {
    std::string Out, Err;
    EXPECT_EQ(runCmdSplit(Run + Flags, Out, Err), 2) << Flags;
    EXPECT_EQ(Err.rfind(std::string("error: ") + Named + " ", 0), 0u) << Err;
    EXPECT_EQ(Err.find('\n'), Err.size() - 1) << Err;
    EXPECT_TRUE(Out.empty()) << Out;
  }
  for (const char *Flags :
       {"--adversarial --policy=writes", "--backend=aero --max-events=10"}) {
    const int Code = runCmd(Run + Flags);
    EXPECT_TRUE(Code == 0 || Code == 1 || Code == 3) << Flags;
  }
}

TEST(RunCliTest, PolicyAndCorruptionFlagsParse) {
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " raja --adversarial --policy=reads --seed=2"),
            0);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " raja --policy=bogus"), 2);
  // Corrupting raja's lone guard makes its commit method racy; with
  // enough seeds a violation appears, but any single seed may be clean —
  // accept both verdict exits.
  int Code = runCmd(std::string(VELO_RUN_BIN) +
                    " raja --disable=image.mu --seed=9 --scale=2");
  EXPECT_TRUE(Code == 0 || Code == 1);
}

//===----------------------------------------------------------------------===//
// Inputs that are not regular files. Text streams from a pipe, a FIFO or
// /dev/stdin exactly as from the file; a directory is a read error; what
// must come back to the trace (--reduce, --checkpoint, --resume, a mmap'd
// VELOTRC container) refuses a pipe with one line and exit 2.
//===----------------------------------------------------------------------===//

/// A strictly well-formed generated trace of at least MinEvents events.
std::string writeBigTrace(const std::string &Name, uint64_t MinEvents) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream Out(Path);
  velo::TraceGenOptions Opts;
  Opts.Threads = 6;
  Opts.Vars = 24;
  Opts.Locks = 4;
  Opts.Steps = 5000;
  Opts.GuardedAccessPct = 50;
  uint64_t Written = 0;
  for (uint64_t Chunk = 0; Written < MinEvents; ++Chunk) {
    velo::Trace T = velo::generateClosedChunk(11, Chunk, Opts);
    Out << velo::printTrace(T);
    Written += T.size();
  }
  return Path;
}

/// Run Cmd with Input piped into /dev/stdin as its last argument; the
/// merged output names the input as the file run would.
int runOnPipe(const std::string &Cmd, const std::string &Input,
              std::string &Out) {
  int Code = runCmdAll("cat " + Input + " | " + Cmd + " /dev/stdin", Out);
  replaceAll(Out, "/dev/stdin", Input);
  return Code;
}

TEST(PipeCliTest, CheckReadsAPipeLikeTheFile) {
  const std::string Big = writeBigTrace("velo_pipe_big.trace", 120000);
  struct Case {
    std::string Trace, Flags;
  };
  const Case Cases[] = {
      {dataFile("intro_cycle.trace"), ""},
      {dataFile("intro_cycle.trace"), "--parallel"},
      {dataFile("fuzz/end_without_begin.trace"), "--lenient"},
      {dataFile("fuzz/end_without_begin.trace"), ""},
      {dataFile("fuzz/crlf_line_endings.trace"), "--witness"},
      {Big, "--backend=aero"},
      {Big, "--backend=velodrome --parallel"},
  };
  for (const Case &C : Cases) {
    const std::string Cmd = std::string(VELO_CHECK_BIN) + " " + C.Flags;
    std::string FromFile, FromPipe;
    int FileCode = runCmdAll(Cmd + " " + C.Trace, FromFile);
    int PipeCode = runOnPipe(Cmd, C.Trace, FromPipe);
    EXPECT_EQ(PipeCode, FileCode) << C.Trace << " " << C.Flags;
    EXPECT_EQ(FromPipe, FromFile) << C.Trace << " " << C.Flags;
  }
  // A FIFO, written by a concurrent process.
  const std::string Fifo = ::testing::TempDir() + "velo_pipe_fifo";
  std::remove(Fifo.c_str());
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  std::string FromFifo, FromFile;
  int FifoCode = runCmdAll("cat " + Big + " > " + Fifo + " & " +
                               VELO_CHECK_BIN + " --backend=aero " + Fifo,
                           FromFifo);
  replaceAll(FromFifo, Fifo, Big);
  int FileCode =
      runCmdAll(std::string(VELO_CHECK_BIN) + " --backend=aero " + Big,
                FromFile);
  EXPECT_EQ(FifoCode, FileCode);
  EXPECT_EQ(FromFifo, FromFile);
  std::remove(Fifo.c_str());
  std::remove(Big.c_str());
}

TEST(PipeCliTest, ConvertAndAnalyzeReadAPipeLikeTheFile) {
  const std::string Big = writeBigTrace("velo_pipe_conv.trace", 100000);
  const std::string Dir = ::testing::TempDir();
  for (const std::string &Trace : {dataFile("intro_cycle.trace"), Big}) {
    for (const char *Ext : {".vtrc", ".trace"}) {
      const std::string FileOut = Dir + "velo_pipe_from_file" + Ext;
      const std::string PipeOut = Dir + "velo_pipe_from_pipe" + Ext;
      std::string FromFile, FromPipe;
      int FileCode = runCmdAll(std::string(VELO_CONVERT_BIN) + " " + Trace +
                                   " " + FileOut,
                               FromFile);
      int PipeCode = runCmdAll("cat " + Trace + " | " + VELO_CONVERT_BIN +
                                   " /dev/stdin " + PipeOut,
                               FromPipe);
      replaceAll(FromPipe, "/dev/stdin", Trace);
      replaceAll(FromPipe, PipeOut, FileOut);
      EXPECT_EQ(FileCode, 0) << FromFile;
      EXPECT_EQ(PipeCode, 0) << FromPipe;
      EXPECT_EQ(FromPipe, FromFile);
      EXPECT_EQ(readFileBytes(PipeOut), readFileBytes(FileOut)) << Ext;
      std::remove(FileOut.c_str());
      std::remove(PipeOut.c_str());
    }
    std::string FromFile, FromPipe;
    const std::string Cmd = VELO_ANALYZE_BIN;
    int FileCode = runCmdAll(Cmd + " " + Trace, FromFile);
    int PipeCode = runOnPipe(Cmd, Trace, FromPipe);
    EXPECT_EQ(PipeCode, FileCode);
    EXPECT_EQ(FromPipe, FromFile);
  }
  std::remove(Big.c_str());
}

TEST(PipeCliTest, DirectoryInputExitsTwo) {
  const std::string Dir = VELO_TEST_DATA_DIR;
  const std::string Want = "error: read error on " + Dir + ": Is a directory\n";
  const std::string Cmds[] = {
      std::string(VELO_CHECK_BIN) + " " + Dir,
      std::string(VELO_CHECK_BIN) + " --parallel " + Dir,
      std::string(VELO_ANALYZE_BIN) + " " + Dir,
      std::string(VELO_CONVERT_BIN) + " " + Dir + " " +
          ::testing::TempDir() + "velo_dir_out.vtrc",
  };
  for (const std::string &Cmd : Cmds) {
    std::string Out;
    EXPECT_EQ(runCmdAll(Cmd, Out), 2) << Cmd;
    EXPECT_EQ(Out, Want) << Cmd;
  }
}

TEST(PipeCliTest, WhatNeedsARegularFileRefusesAPipe) {
  const std::string Trace = dataFile("intro_cycle.trace");
  const std::string Ckpt = ::testing::TempDir() + "velo_pipe.ckpt";
  std::remove(Ckpt.c_str());
  ASSERT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --checkpoint=" + Ckpt +
                   " --checkpoint-every=1 " + Trace),
            1);
  struct Refusal {
    std::string Flags, Says;
  };
  const Refusal Refusals[] = {
      {"--reduce=all", "--reduce reads the trace twice"},
      {"--reduce=all --parallel", "--reduce reads the trace twice"},
      {"--checkpoint=" + Ckpt + ".new",
       "--checkpoint records trace offsets to resume from"},
      {"--resume=" + Ckpt, "--resume seeks in the trace"},
  };
  for (const Refusal &R : Refusals) {
    std::string Out;
    EXPECT_EQ(runCmdAll("cat " + Trace + " | " + VELO_CHECK_BIN + " " +
                            R.Flags + " /dev/stdin",
                        Out),
              2)
        << R.Flags;
    EXPECT_EQ(Out, "error: " + R.Says +
                       ", so it needs a regular file, and /dev/stdin is not "
                       "one\n")
        << R.Flags;
  }
  struct stat St;
  EXPECT_NE(::stat((Ckpt + ".new").c_str(), &St), 0);
  std::remove(Ckpt.c_str());

  // A VELOTRC container is mmap'd, so it too must be a regular file.
  const std::string Bin = ::testing::TempDir() + "velo_pipe.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + Trace + " " + Bin),
            0);
  const std::string Cmds[] = {
      std::string(VELO_CHECK_BIN) + " /dev/stdin",
      std::string(VELO_ANALYZE_BIN) + " /dev/stdin",
      std::string(VELO_CONVERT_BIN) + " /dev/stdin " + ::testing::TempDir() +
          "velo_pipe_out.trace",
  };
  for (const std::string &Cmd : Cmds) {
    std::string Out;
    EXPECT_EQ(runCmdAll("cat " + Bin + " | " + Cmd, Out), 2) << Cmd;
    EXPECT_EQ(Out, "error: /dev/stdin holds a VELOTRC container, which must "
                   "be read from a regular file (it is memory-mapped), not a "
                   "pipe or device\n")
        << Cmd;
  }
  std::remove(Bin.c_str());
}

} // namespace
