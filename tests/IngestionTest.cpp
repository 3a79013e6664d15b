//===- tests/IngestionTest.cpp - Streaming reader & file I/O tests --------===//
//
// TraceStream must agree event-for-event with the batch parser (they share
// parseTraceLine, but the loop logic differs), report precise line numbers,
// and stop cleanly on malformed input — over a string and over a pipe whose
// short reads split lines anywhere. readTraceFileStatus must distinguish
// missing files from unreadable files from malformed contents, and carry the
// path in every diagnostic.
//
//===----------------------------------------------------------------------===//

#include "events/BinaryWriter.h"
#include "events/TraceGen.h"
#include "events/TraceSource.h"
#include "events/TraceStream.h"
#include "events/TraceText.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

namespace velo {
namespace {

/// Drives a TraceStream over a string and keeps the stream alive for
/// post-run inspection (failed / error / lineNo).
struct StreamRun {
  std::string Text;
  SymbolTable Syms;
  TraceStream TS;
  std::vector<Event> Events;

  explicit StreamRun(const std::string &Input) : Text(Input), TS(Text, Syms) {
    Event E;
    while (TS.next(E))
      Events.push_back(E);
  }
};

TEST(TraceStreamTest, MatchesBatchParserOnGeneratedTraces) {
  TraceGenOptions Opts;
  Opts.Threads = 3;
  Opts.Steps = 80;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    Opts.UseForkJoin = Seed % 2 == 0;
    std::string Text = printTrace(generateRandomTrace(Seed, Opts));

    Trace Batch;
    std::string Error;
    ASSERT_TRUE(parseTrace(Text, Batch, Error)) << Error;

    StreamRun Run(Text);
    ASSERT_FALSE(Run.TS.failed()) << Run.TS.error();
    ASSERT_EQ(Run.Events.size(), Batch.size()) << "seed " << Seed;
    for (size_t I = 0; I < Run.Events.size(); ++I)
      EXPECT_TRUE(Run.Events[I] == Batch[I])
          << "seed " << Seed << " event " << I;
    EXPECT_EQ(Run.TS.eventCount(), Batch.size());
  }
}

TEST(TraceStreamTest, SkipsBlankLinesAndComments) {
  StreamRun Run("# header comment\n"
                "\n"
                "T0 wr x\n"
                "   \n"
                "  # indented comment\n"
                "T1 rd x\n");
  ASSERT_FALSE(Run.TS.failed()) << Run.TS.error();
  ASSERT_EQ(Run.Events.size(), 2u);
  EXPECT_EQ(Run.Events[0].Kind, Op::Write);
  EXPECT_EQ(Run.Events[1].Kind, Op::Read);
  EXPECT_EQ(Run.TS.lineNo(), 6u) << "line number of the last event";
}

TEST(TraceStreamTest, ReportsLineNumberOfMalformedLine) {
  StreamRun Run("T0 wr x\n"
                "# fine\n"
                "T0 frobnicate x\n"
                "T0 rd x\n");
  EXPECT_EQ(Run.Events.size(), 1u) << "stops at the malformed line";
  ASSERT_TRUE(Run.TS.failed());
  EXPECT_EQ(Run.TS.error(), "line 3: unknown operation 'frobnicate'");
  EXPECT_EQ(Run.TS.lineNo(), 3u);
}

TEST(TraceStreamTest, LineDiagnosticsMatchBatchParser) {
  // The batch parser is a loop over the same per-line grammar; malformed
  // input must produce byte-identical diagnostics on both paths.
  const char *Bad[] = {
      "T0 wr x\nnonsense\n",     "T0\n",          "T0 rd\n",
      "T0 rd x trailing\n",      "X0 wr x\n",     "T wr x\n",
      "T0 end extra\n",          "T0 fork x\n",   "T99999999999 wr x\n",
  };
  for (const char *Text : Bad) {
    Trace Batch;
    std::string BatchError;
    ASSERT_FALSE(parseTrace(Text, Batch, BatchError)) << Text;

    StreamRun Run(Text);
    ASSERT_TRUE(Run.TS.failed()) << Text;
    EXPECT_EQ(Run.TS.error(), BatchError) << Text;
  }
}

TEST(ParseTraceLineTest, ClassifiesLines) {
  SymbolTable Syms;
  Event E;
  std::string Error;
  EXPECT_EQ(parseTraceLine("", Syms, E, Error), LineParse::Blank);
  EXPECT_EQ(parseTraceLine("  # comment", Syms, E, Error), LineParse::Blank);
  EXPECT_EQ(parseTraceLine("T3 acq mylock", Syms, E, Error),
            LineParse::Event);
  EXPECT_TRUE(E == Event::acquire(3, Syms.Locks.intern("mylock")));
  EXPECT_EQ(parseTraceLine("T0 junk", Syms, E, Error), LineParse::Error);
  EXPECT_EQ(Error, "unknown operation 'junk'");
  EXPECT_EQ(parseTraceLine("T0 rd x y", Syms, E, Error), LineParse::Error);
  EXPECT_EQ(Error, "trailing token 'y'");
}

TEST(ReadTraceFileTest, MissingFileIsNotFoundWithStrerror) {
  Trace Out;
  std::string Error;
  EXPECT_EQ(readTraceFileStatus("/nonexistent/velo.trace", Out, Error),
            TraceReadStatus::NotFound);
  EXPECT_NE(Error.find("/nonexistent/velo.trace"), std::string::npos)
      << Error;
  EXPECT_NE(Error.find("No such file or directory"), std::string::npos)
      << Error;
  EXPECT_FALSE(readTraceFile("/nonexistent/velo.trace", Out, Error));
}

TEST(ReadTraceFileTest, MalformedFileIsParseErrorWithPathAndLine) {
  std::string Path = ::testing::TempDir() + "velo_ingest_bad.trace";
  {
    std::ofstream OutFile(Path);
    OutFile << "T0 wr x\nbogus\n";
  }
  Trace Out;
  std::string Error;
  EXPECT_EQ(readTraceFileStatus(Path, Out, Error),
            TraceReadStatus::ParseError);
  EXPECT_EQ(Error.find(Path + ":2: "), 0u) << Error;
  std::remove(Path.c_str());
}

TEST(TraceStreamTest, StripsTrailingCarriageReturns) {
  // Windows-authored traces (CRLF line endings) must parse identically to
  // Unix ones: the \r left on each line is token whitespace.
  StreamRun Run("T0 fork T1\r\n"
                "T0 wr x\r\n"
                "# comment line\r\n"
                "T1 rd x\r\n"
                "T0 join T1\r\n");
  ASSERT_FALSE(Run.TS.failed()) << Run.TS.error();
  ASSERT_EQ(Run.Events.size(), 4u);
  EXPECT_TRUE(Run.Events[1] == Event::write(0, Run.Syms.Vars.intern("x")));

  // An interior \r is ordinary token whitespace (isspace), so doubled
  // carriage returns are harmless and can never leak into a symbol name.
  StreamRun Interior("T0 wr x\r\r\n");
  ASSERT_FALSE(Interior.TS.failed()) << Interior.TS.error();
  ASSERT_EQ(Interior.Events.size(), 1u);
  EXPECT_TRUE(Interior.Events[0] ==
              Event::write(0, Interior.Syms.Vars.intern("x")));
}

TEST(SymbolEscapingTest, EscapeUnescapeRoundTripsHostileNames) {
  const std::string Names[] = {
      "plain",      "",           "with space", "tab\tinside",
      "new\nline",  "back\\slash", "hash#mark", std::string("\x01\x1f\x7f", 3),
      "caf\xc3\xa9" /* bytes >= 0x80 pass through raw */};
  for (const std::string &N : Names) {
    std::string Esc = escapeSymbol(N);
    for (char C : Esc)
      EXPECT_FALSE(static_cast<unsigned char>(C) <= 0x20 || C == 0x7f)
          << "escaped form of '" << N << "' still has whitespace/control";
    std::string Back, Err;
    ASSERT_TRUE(unescapeSymbol(Esc, Back, Err)) << Err;
    EXPECT_EQ(Back, N);
  }
}

TEST(SymbolEscapingTest, PrintedHostileNamesReparseToSameTrace) {
  // The writer/parser symmetry satellite: printTrace of a trace whose
  // symbols contain whitespace, '#', or control bytes must re-parse to
  // the identical event stream and names.
  Trace T;
  uint32_t V = T.symbols().Vars.intern("spaced out\tname");
  uint32_t L = T.symbols().Locks.intern("lock#1\n");
  uint32_t B = T.symbols().Labels.intern("");
  T.push(Event::begin(0, B));
  T.push(Event::acquire(0, L));
  T.push(Event::write(0, V));
  T.push(Event::release(0, L));
  T.push(Event::end(0));

  std::string Text = printTrace(T);
  Trace Back;
  std::string Error;
  ASSERT_TRUE(parseTrace(Text, Back, Error)) << Error << "\n" << Text;
  EXPECT_EQ(printTrace(Back), Text);
  ASSERT_EQ(Back.size(), T.size());
  EXPECT_EQ(Back.symbols().varName(Back[2].var()), "spaced out\tname");
  EXPECT_EQ(Back.symbols().lockName(Back[1].lock()), "lock#1\n");
  EXPECT_EQ(Back.symbols().labelName(Back[0].label()), "");
}

TEST(SymbolEscapingTest, RejectsRawControlCharsAndBadEscapes) {
  SymbolTable Syms;
  Event E;
  std::string Error;
  EXPECT_EQ(parseTraceLine(std::string("T0 wr a\x01z"), Syms, E, Error),
            LineParse::Error);
  EXPECT_NE(Error.find("control character"), std::string::npos) << Error;
  EXPECT_EQ(parseTraceLine("T0 wr a\\qz", Syms, E, Error), LineParse::Error);
  EXPECT_NE(Error.find("bad escape"), std::string::npos) << Error;
  EXPECT_EQ(parseTraceLine("T0 wr a\\x1", Syms, E, Error), LineParse::Error);
  EXPECT_NE(Error.find("bad escape"), std::string::npos) << Error;
}

TEST(SymbolCapTest, TextParserSurfacesCapAsParseError) {
  ::setenv("VELO_MAX_SYMBOLS", "4", 1);
  std::string Text;
  for (int I = 0; I < 6; ++I)
    Text += "T0 wr v" + std::to_string(I) + "\n";
  StreamRun Run(Text);
  ::unsetenv("VELO_MAX_SYMBOLS");
  ASSERT_TRUE(Run.TS.failed());
  EXPECT_EQ(Run.TS.error(),
            "line 5: too many distinct variable names (cap 4)");
  EXPECT_EQ(Run.Events.size(), 4u) << "events before the cap still parse";
}

TEST(SymbolCapTest, ReusedNamesDoNotCountAgainstTheCap) {
  ::setenv("VELO_MAX_SYMBOLS", "2", 1);
  std::string Text;
  for (int I = 0; I < 50; ++I)
    Text += std::string("T0 wr ") + (I % 2 ? "a" : "b") + "\n" +
            "T0 acq m\nT0 rel m\n";
  StreamRun Run(Text);
  ::unsetenv("VELO_MAX_SYMBOLS");
  ASSERT_FALSE(Run.TS.failed()) << Run.TS.error();
  EXPECT_EQ(Run.Events.size(), 150u);
}

TEST(ReadTraceFileTest, WellFormedFileRoundTrips) {
  std::string Path = ::testing::TempDir() + "velo_ingest_ok.trace";
  TraceGenOptions Opts;
  Trace T = generateRandomTrace(7, Opts);
  ASSERT_TRUE(writeTraceFile(T, Path));
  Trace Out;
  std::string Error;
  EXPECT_EQ(readTraceFileStatus(Path, Out, Error), TraceReadStatus::Ok)
      << Error;
  EXPECT_EQ(printTrace(Out), printTrace(T));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The block scanner over a descriptor: a pipe's short reads split lines at
// arbitrary bytes, and nothing about the result may change.
//===----------------------------------------------------------------------===//

/// Everything a TraceStream run exposes.
struct Drained {
  std::vector<Event> Events;
  std::vector<size_t> Lines; ///< lineNo() after each event
  std::vector<std::string> Vars;
  bool Failed = false;
  std::string Error;
  size_t LastLine = 0;
};

Drained drain(TraceStream &TS, const SymbolTable &Syms) {
  Drained D;
  Event E;
  while (TS.next(E)) {
    D.Events.push_back(E);
    D.Lines.push_back(TS.lineNo());
  }
  for (uint32_t I = 0; I < Syms.Vars.size(); ++I)
    D.Vars.push_back(Syms.Vars.name(I));
  D.Failed = TS.failed();
  D.Error = TS.error();
  D.LastLine = TS.lineNo();
  return D;
}

/// Scan Text through a pipe whose writer sends it in 1-37-byte write()s.
Drained drainThroughPipe(const std::string &Text, uint64_t Seed) {
  int Fds[2];
  EXPECT_EQ(::pipe(Fds), 0);
  std::thread Writer([&Text, Seed, WriteFd = Fds[1]] {
    Rng R(Seed);
    for (size_t Off = 0; Off < Text.size();) {
      size_t Len = std::min<size_t>(1 + R.below(37), Text.size() - Off);
      ssize_t N = ::write(WriteFd, Text.data() + Off, Len);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(WriteFd);
  });
  SymbolTable Syms;
  Drained D;
  {
    TraceStream TS(Fds[0], "pipe", Syms);
    D = drain(TS, Syms);
  }
  // Let a writer that the stream stopped reading (malformed line) finish.
  char Sink[4096];
  while (::read(Fds[0], Sink, sizeof(Sink)) > 0) {
  }
  Writer.join();
  ::close(Fds[0]);
  return D;
}

TEST(TraceStreamTest, PipeShortReadsMatchParseTrace) {
  TraceGenOptions Opts;
  Opts.Threads = 5;
  Opts.Steps = 30000; // ~300 KB: several 64 KiB blocks
  Opts.UseForkJoin = true;
  const std::string LongName(100000, 'v'); // longer than one block
  const std::string Inputs[] = {
      printTrace(generateRandomTrace(3, Opts)),
      "# header\r\nT0 fork T1\r\n\r\nT0 wr x\r\nT1 rd x  # tail\r\n",
      "T0 wr x\nT1 rd x",                          // no final newline
      "T0 wr x\n\nT1 rd x\n\n",                    // trailing blank line
      "T0 wr a\\x20b\nT0 acq \\e\nT0 rel \\e\n",   // escapes
      "T0 wr x\v\f\t\r\nT1 rd x\n",                // C-locale whitespace
      "T0 wr x\nT1 wr y\x01z\nT0 rd x\n",          // control byte
      std::string("T0 wr x\nT\0 rd x\n", 16),      // NUL in the thread id
      std::string("T0 wr a\0b\n", 10),             // NUL in a name
      "T0 wr x\nT1 rd x\nbogus line\nT0 wr y\n",   // malformed mid-stream
      "T0 wr " + LongName + "\nT1 rd " + LongName + "\n# " + LongName,
      "",
  };
  uint64_t Seed = 0;
  for (const std::string &Text : Inputs) {
    SCOPED_TRACE("input " + std::to_string(Seed));
    SymbolTable Syms;
    TraceStream InMemory(Text, Syms);
    Drained Want = drain(InMemory, Syms);
    Trace Batch;
    std::string BatchError;
    bool BatchOk = parseTrace(Text, Batch, BatchError);
    ASSERT_EQ(BatchOk, !Want.Failed);
    EXPECT_EQ(Want.Error, BatchOk ? "" : BatchError);
    ASSERT_EQ(Want.Events.size(), Batch.size());
    for (size_t I = 0; I < Batch.size(); ++I)
      EXPECT_TRUE(Want.Events[I] == Batch[I]) << "event " << I;

    for (uint64_t Round = 0; Round < 3; ++Round) {
      Drained Got = drainThroughPipe(Text, ++Seed);
      EXPECT_EQ(Got.Failed, Want.Failed);
      EXPECT_EQ(Got.Error, Want.Error);
      EXPECT_EQ(Got.LastLine, Want.LastLine);
      EXPECT_EQ(Got.Lines, Want.Lines);
      EXPECT_EQ(Got.Vars, Want.Vars);
      ASSERT_EQ(Got.Events.size(), Want.Events.size());
      for (size_t I = 0; I < Got.Events.size(); ++I)
        EXPECT_TRUE(Got.Events[I] == Want.Events[I]) << "event " << I;
    }
  }
}

TEST(TraceStreamTest, ReadErrorIsAFailureNotEndOfInput) {
  // A directory opens fine; read() then fails with EISDIR.
  const std::string Dir = ::testing::TempDir();
  int Fd = ::open(Dir.c_str(), O_RDONLY);
  ASSERT_GE(Fd, 0);
  SymbolTable Syms;
  TraceStream TS(Fd, Dir, Syms);
  Event E;
  EXPECT_FALSE(TS.next(E));
  EXPECT_TRUE(TS.failed());
  EXPECT_TRUE(TS.readFailed());
  EXPECT_EQ(TS.error(), "read error on " + Dir + ": Is a directory");
  ::close(Fd);

  Trace Out;
  std::string Error;
  EXPECT_EQ(readTraceFileStatus(Dir, Out, Error), TraceReadStatus::IoError);
  EXPECT_EQ(Error, "read error on " + Dir + ": Is a directory");
}

TEST(TraceStreamTest, TellStopsAtTheEndOfTheInput) {
  // tell() is the checkpoint position: after each line's newline, and
  // unavailable once a read has met the end of the input.
  SymbolTable Syms;
  const std::string Text = "T0 wr x\n# c\nT1 rd x";
  TraceStream TS(Text, Syms);
  Event E;
  uint64_t Pos = 0;
  ASSERT_TRUE(TS.next(E));
  ASSERT_TRUE(TS.tell(Pos));
  EXPECT_EQ(Pos, 8u);
  ASSERT_TRUE(TS.next(E));
  EXPECT_FALSE(TS.tell(Pos)) << "last line has no newline";

  const std::string Closed = "T0 wr x\n\n";
  TraceStream TC(Closed, Syms);
  ASSERT_TRUE(TC.next(E));
  ASSERT_TRUE(TC.tell(Pos));
  EXPECT_EQ(Pos, 8u);
  EXPECT_FALSE(TC.next(E));
  EXPECT_FALSE(TC.tell(Pos)) << "next() ran out of lines";
}

//===----------------------------------------------------------------------===//
// openTraceSource reads a pipe once: the format sniff costs it no bytes,
// and a VELOTRC container (which is mmap'd) is refused.
//===----------------------------------------------------------------------===//

/// A pipe already holding Bytes (which fit its buffer), write end closed;
/// returns the read end's /dev/fd path and sets FdOut to close afterwards.
std::string pipeHolding(const std::string &Bytes, int &FdOut) {
  int Fds[2];
  EXPECT_EQ(::pipe(Fds), 0);
  EXPECT_EQ(::write(Fds[1], Bytes.data(), Bytes.size()),
            static_cast<ssize_t>(Bytes.size()));
  ::close(Fds[1]);
  FdOut = Fds[0];
  return "/dev/fd/" + std::to_string(Fds[0]);
}

TEST(OpenTraceSourceTest, TextFromAPipeLosesNothingToTheSniff) {
  TraceGenOptions Opts;
  Opts.Steps = 400;
  const std::string Text = printTrace(generateRandomTrace(5, Opts));
  ASSERT_LT(Text.size(), 60000u) << "must fit the pipe buffer";
  int Fd = -1;
  const std::string Path = pipeHolding(Text, Fd);
  SymbolTable Syms;
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string Err;
  auto Src = openTraceSource(Path, Syms, St, Err);
  ASSERT_TRUE(Src) << Err;
  Trace Want;
  ASSERT_TRUE(parseTrace(Text, Want, Err)) << Err;
  std::vector<Event> Got;
  Event E;
  while (Src->next(E))
    Got.push_back(E);
  EXPECT_FALSE(Src->failed()) << Src->error();
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_TRUE(Got[I] == Want[I]) << "event " << I;
  ::close(Fd);
}

TEST(OpenTraceSourceTest, BinaryContainerMustBeARegularFile) {
  Trace T;
  std::string Err;
  ASSERT_TRUE(parseTrace("T0 wr x\nT1 rd x\n", T, Err)) << Err;
  const std::string Bin = printBinaryTrace(T);
  int Fd = -1;
  const std::string Path = pipeHolding(Bin, Fd);
  SymbolTable Syms;
  TraceReadStatus St = TraceReadStatus::Ok;
  EXPECT_FALSE(openTraceSource(Path, Syms, St, Err));
  EXPECT_EQ(St, TraceReadStatus::IoError);
  EXPECT_NE(Err.find("must be read from a regular file"), std::string::npos)
      << Err;
  ::close(Fd);
}

} // namespace
} // namespace velo
