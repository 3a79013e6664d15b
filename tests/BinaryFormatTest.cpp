//===- tests/BinaryFormatTest.cpp - VELOTRC container tests ---------------===//
//
// Round-trip, frame-boundary, seek/resume, and corruption-robustness
// tests for the binary trace wire format (events/BinaryFormat.h). The
// corruption tests assert the strongest property the format is designed
// for: EVERY strict prefix and EVERY single-byte flip of a valid
// container is rejected with a clean "line N:" parse error.
//
//===----------------------------------------------------------------------===//

#include "VtrcBuilder.h"

#include "events/BinaryFormat.h"
#include "events/BinaryReader.h"
#include "events/BinaryWriter.h"
#include "events/TraceSource.h"
#include "events/TraceStream.h"
#include "events/TraceText.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

using namespace velo;
using velo::test::oneEvent;
using velo::test::PayloadBuilder;

namespace {

Trace parseOrDie(const std::string &Text) {
  Trace T;
  std::string Err;
  EXPECT_TRUE(parseTrace(Text, T, Err)) << Err;
  return T;
}

const char *SmallTrace = "T0 fork T1\n"
                         "T0 begin outer\n"
                         "T0 acq m\n"
                         "T0 wr x\n"
                         "T0 rel m\n"
                         "T0 end\n"
                         "T1 acq m\n"
                         "T1 rd x\n"
                         "T1 wr y\n"
                         "T1 rel m\n"
                         "T0 join T1\n";

/// Drain a reader; returns events delivered. Failure state is left on R.
std::vector<Event> drain(BinaryTraceReader &R) {
  std::vector<Event> Out;
  Event E;
  while (R.next(E))
    Out.push_back(E);
  return Out;
}

TEST(BinaryFormat, VarintRoundTrip) {
  const uint64_t Cases[] = {0,    1,          127,        128,
                            300,  0xffffffff, 1ull << 40, ~0ull};
  for (uint64_t V : Cases) {
    std::string Buf;
    binfmt::appendVarint(Buf, V);
    size_t Pos = 0;
    uint64_t Back = 0;
    ASSERT_TRUE(binfmt::readVarint(
        reinterpret_cast<const uint8_t *>(Buf.data()), Buf.size(), Pos, Back));
    EXPECT_EQ(Back, V);
    EXPECT_EQ(Pos, Buf.size());
  }
}

TEST(BinaryFormat, RoundTripSmallTrace) {
  Trace T = parseOrDie(SmallTrace);
  std::string Bin = printBinaryTrace(T);

  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bin)) << R.error();
  EXPECT_EQ(R.totalEvents(), T.size());
  std::vector<Event> Events = drain(R);
  ASSERT_FALSE(R.failed()) << R.error();
  ASSERT_EQ(Events.size(), T.size());
  for (size_t I = 0; I < Events.size(); ++I)
    EXPECT_EQ(Events[I], T[I]) << "event " << I;
  // Names survive, not just ids.
  EXPECT_EQ(Syms.varName(Events[3].var()), "x");
  EXPECT_EQ(Syms.lockName(Events[2].lock()), "m");
  EXPECT_EQ(Syms.labelName(Events[1].label()), "outer");
  EXPECT_EQ(R.eventCount(), T.size());
  EXPECT_EQ(R.lineNo(), T.size());
}

TEST(BinaryFormat, RoundTripEmptyTrace) {
  Trace T;
  std::string Bin = printBinaryTrace(T);
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bin)) << R.error();
  EXPECT_TRUE(drain(R).empty());
  EXPECT_FALSE(R.failed());
}

TEST(BinaryFormat, RoundTripHostileNames) {
  // Names with spaces, '#', '\', control bytes, and the empty string all
  // survive binary (raw bytes) and text (escaped) round trips.
  Trace T;
  VarId A = T.symbols().Vars.intern("a b");
  VarId B = T.symbols().Vars.intern("x#y\\z");
  VarId C = T.symbols().Vars.intern(std::string("c\x01\x7f\r\nd", 6));
  VarId D = T.symbols().Vars.intern("");
  for (VarId V : {A, B, C, D})
    T.push(Event::write(0, V));

  std::string Bin = printBinaryTrace(T);
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bin)) << R.error();
  std::vector<Event> Events = drain(R);
  ASSERT_FALSE(R.failed()) << R.error();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Syms.Vars.name(Events[0].var()), "a b");
  EXPECT_EQ(Syms.Vars.name(Events[1].var()), "x#y\\z");
  EXPECT_EQ(Syms.Vars.name(Events[2].var()), std::string("c\x01\x7f\r\nd", 6));
  EXPECT_EQ(Syms.Vars.name(Events[3].var()), "");

  // Text round trip of the same names via the escaping rule.
  Trace Back = parseOrDie(printTrace(T));
  ASSERT_EQ(Back.size(), T.size());
  for (size_t I = 0; I < T.size(); ++I) {
    EXPECT_EQ(Back[I], T[I]);
    EXPECT_EQ(Back.symbols().Vars.name(Back[I].var()),
              T.symbols().Vars.name(T[I].var()));
  }
}

TEST(BinaryFormat, FrameBoundariesAndTell) {
  Trace T = parseOrDie(SmallTrace); // 11 events
  std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);

  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bin)) << R.error();
  uint64_t Pos = 0;
  EXPECT_TRUE(R.tell(Pos)); // before the first frame
  EXPECT_EQ(Pos, binfmt::HeaderSize);

  Event E;
  std::vector<size_t> Boundaries;
  for (size_t I = 0; I < T.size(); ++I) {
    ASSERT_TRUE(R.next(E));
    if (R.endOfFrame())
      Boundaries.push_back(I + 1);
    // tell() succeeds exactly at frame boundaries.
    EXPECT_EQ(R.tell(Pos), R.endOfFrame());
  }
  EXPECT_FALSE(R.next(E));
  EXPECT_FALSE(R.failed());
  EXPECT_EQ(Boundaries, (std::vector<size_t>{4, 8, 11}));
}

TEST(BinaryFormat, SeekResumeMatchesStraightRead) {
  Trace T = parseOrDie(SmallTrace);
  std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);

  // Straight read for reference.
  SymbolTable FullSyms;
  BinaryTraceReader Full(FullSyms);
  ASSERT_TRUE(Full.openBuffer(Bin));
  std::vector<Event> All = drain(Full);
  ASSERT_EQ(All.size(), T.size());

  // Read one frame, note the boundary, then resume a fresh reader there
  // with the symbols accumulated so far (what a snapshot restore does).
  SymbolTable Syms1;
  BinaryTraceReader R1(Syms1);
  ASSERT_TRUE(R1.openBuffer(Bin));
  Event E;
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(R1.next(E));
  ASSERT_TRUE(R1.endOfFrame());
  uint64_t Pos = 0;
  ASSERT_TRUE(R1.tell(Pos));

  SymbolTable Syms2 = Syms1;
  BinaryTraceReader R2(Syms2);
  ASSERT_TRUE(R2.openBuffer(Bin));
  std::string Err;
  ASSERT_TRUE(R2.seekTo(Pos, R1.lineNo(), R1.eventCount(), Err)) << Err;
  std::vector<Event> Tail = drain(R2);
  ASSERT_FALSE(R2.failed()) << R2.error();
  ASSERT_EQ(Tail.size(), All.size() - 4);
  for (size_t I = 0; I < Tail.size(); ++I)
    EXPECT_EQ(Tail[I], All[4 + I]);
  EXPECT_EQ(R2.eventCount(), All.size());

  // A position between frame boundaries is rejected.
  SymbolTable Syms3;
  BinaryTraceReader R3(Syms3);
  ASSERT_TRUE(R3.openBuffer(Bin));
  EXPECT_FALSE(R3.seekTo(Pos + 1, 4, 4, Err));
  EXPECT_NE(Err.find("frame boundary"), std::string::npos);
}

TEST(BinaryFormat, EveryStrictPrefixIsRejected) {
  Trace T = parseOrDie(SmallTrace);
  std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);
  for (size_t Len = 0; Len < Bin.size(); ++Len) {
    std::string Cut = Bin.substr(0, Len);
    SymbolTable Syms;
    BinaryTraceReader R(Syms);
    bool Ok = R.openBuffer(Cut);
    if (Ok)
      drain(R);
    ASSERT_TRUE(R.failed()) << "prefix of " << Len << " bytes accepted";
    ASSERT_EQ(R.error().rfind("line ", 0), 0u) << R.error();
  }
}

TEST(BinaryFormat, EverySingleByteFlipIsRejected) {
  Trace T = parseOrDie(SmallTrace);
  std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);
  for (size_t I = 0; I < Bin.size(); ++I) {
    std::string Bad = Bin;
    Bad[I] = static_cast<char>(Bad[I] ^ 0xff);
    SymbolTable Syms;
    BinaryTraceReader R(Syms);
    bool Ok = R.openBuffer(Bad);
    if (Ok)
      drain(R);
    ASSERT_TRUE(R.failed()) << "flip at byte " << I << " accepted";
    ASSERT_EQ(R.error().rfind("line ", 0), 0u) << R.error();
  }
}

TEST(BinaryFormat, HostileIndexOffsetIsRejected) {
  // A trailer offset near 2^64 used to slip past an additive bounds
  // check by wrapping (IdxOff + FrameHeaderSize + TrailerSize <= 28) and
  // sent the reader off to dereference Data + IdxOff. A single byte flip
  // cannot produce such an offset from a valid file, so the exhaustive
  // flip test misses it; forge the offsets directly.
  Trace T = parseOrDie(SmallTrace);
  std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);
  const uint64_t Hostile[] = {~0ull,      // additive check wraps to 12
                              ~0ull - 27, // wraps to 1, smallest valid Size
                              1ull << 63, Bin.size(), Bin.size() - 1};
  for (uint64_t Off : Hostile) {
    std::string Bad = Bin.substr(0, Bin.size() - binfmt::TrailerSize);
    binfmt::putTrailer(binfmt::StringSink{Bad}, Off);
    SymbolTable Syms;
    BinaryTraceReader R(Syms);
    ASSERT_FALSE(R.openBuffer(Bad)) << "offset " << Off << " accepted";
    EXPECT_NE(R.error().find("index offset out of range"), std::string::npos)
        << R.error();
  }
}

TEST(BinaryFormat, OversizedFramePayloadFailsTheWriter) {
  // With the writer-side payload cap tightened, a frame whose symbol
  // block cannot fit must fail finish() with a clear error instead of
  // emitting a container the reader would reject (or, past 4 GiB,
  // silently truncating the length field).
  ASSERT_EQ(setenv("VELO_MAX_FRAME_PAYLOAD", "16", 1), 0);
  Trace T;
  VarId V = T.symbols().Vars.intern("a_name_longer_than_the_tiny_cap");
  T.push(Event::write(0, V));
  std::ostringstream Out;
  BinaryTraceWriter W(Out, T.symbols());
  for (const Event &E : T)
    W.add(E);
  EXPECT_FALSE(W.finish());
  EXPECT_TRUE(W.failed());
  EXPECT_NE(W.error().find("exceeds the format limit"), std::string::npos)
      << W.error();
  // Repeated finish() keeps reporting failure.
  EXPECT_FALSE(W.finish());

  // The file-writing wrapper surfaces the same error.
  std::string Path = ::testing::TempDir() + "/velo_oversize.vtrc";
  std::string Err;
  EXPECT_FALSE(writeBinaryTraceFile(T, Path, Err));
  EXPECT_NE(Err.find("exceeds the format limit"), std::string::npos) << Err;
  std::remove(Path.c_str());
  unsetenv("VELO_MAX_FRAME_PAYLOAD");

  // At the real cap the same trace writes and reads back fine.
  std::string Bin = printBinaryTrace(T);
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bin)) << R.error();
  EXPECT_EQ(drain(R).size(), 1u);
  EXPECT_FALSE(R.failed());
}

// The containers below hold payloads the writer would never produce
// (undefined ids, bad op codes, ...).

TEST(BinaryFormat, UndefinedSymbolIdIsRejected) {
  // One read of var id 7 with no symbol definitions at all.
  // Keep the container alive past openBuffer: the reader borrows the bytes.
  const std::string Bytes = test::containerOf({oneEvent(Op::Read, 0, 7)});
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bytes));
  drain(R);
  ASSERT_TRUE(R.failed());
  EXPECT_NE(R.error().find("undefined variable id 7"), std::string::npos)
      << R.error();
  EXPECT_EQ(R.error().rfind("line 1:", 0), 0u) << R.error();
}

TEST(BinaryFormat, RepeatedSymbolNameIsRejected) {
  // A block defining x twice would give two file ids one name; ids must
  // be symbol-table ids, so the repeat is a parse error on the first frame.
  PayloadBuilder P;
  P.block(0, {"x", "x"}).block(0, {}).block(0, {}).count(2);
  P.event(Op::Write, 0, 0).event(Op::Write, 0, 1);
  const std::string Bytes = test::containerOf({P});
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bytes)) << R.error();
  EXPECT_TRUE(drain(R).empty());
  ASSERT_TRUE(R.failed());
  EXPECT_EQ(R.error(), "line 1: duplicate variable name in symbol block");
}

TEST(BinaryFormat, BadOpCodeIsRejected) {
  // 0x40 is not an op. Keep the container alive past openBuffer: the
  // reader borrows the bytes.
  const std::string Bytes = test::containerOf({oneEvent(0x40, 0, 0)});
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bytes));
  drain(R);
  ASSERT_TRUE(R.failed());
  EXPECT_NE(R.error().find("unknown operation"), std::string::npos)
      << R.error();
}

TEST(BinaryFormat, OversizedThreadIdIsRejected) {
  // Keep the container alive past openBuffer: the reader borrows the bytes.
  const std::string Bytes =
      test::containerOf({oneEvent(Op::End, MaxTraceThreads, 0)});
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bytes));
  drain(R);
  ASSERT_TRUE(R.failed());
  EXPECT_NE(R.error().find("out of range"), std::string::npos) << R.error();
}

TEST(BinaryFormat, SymbolCapAppliesToBinary) {
  // Lower the cap via the test hook and present a frame defining one
  // variable too many.
  ASSERT_EQ(setenv("VELO_MAX_SYMBOLS", "2", 1), 0);
  PayloadBuilder P;
  P.block(0, {"a", "b", "c"}).block(0, {}).block(0, {}).count(1);
  P.event(Op::Read, 0, 0);
  // Keep the container alive past openBuffer: the reader borrows the bytes.
  const std::string Bytes = test::containerOf({P});
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBuffer(Bytes));
  drain(R);
  unsetenv("VELO_MAX_SYMBOLS");
  ASSERT_TRUE(R.failed());
  EXPECT_NE(R.error().find("too many distinct variable names (cap 2)"),
            std::string::npos)
      << R.error();
}

/// End offsets of the events frames in Bin, in file order. The per-frame
/// event counts for SmallTrace at FrameEvents=4 are 4, 4, 3 (cumulative
/// 4, 8, 11), which the salvage tests below rely on.
std::vector<size_t> eventsFrameEnds(const std::string &Bin) {
  std::vector<size_t> Ends;
  const auto *D = reinterpret_cast<const uint8_t *>(Bin.data());
  size_t Off = binfmt::HeaderSize;
  while (Off + binfmt::FrameHeaderSize <= Bin.size() &&
         D[Off] == binfmt::EventsFrame) {
    Off += binfmt::FrameHeaderSize + binfmt::readU32le(D + Off + 1);
    Ends.push_back(Off);
  }
  return Ends;
}

TEST(BinaryFormat, SalvageAcceptsCompleteContainerUnchanged) {
  // Salvage mode is a strict superset of a normal open: an intact
  // container streams identically and reports no recovery.
  Trace T = parseOrDie(SmallTrace);
  const std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBufferSalvage(Bin)) << R.error();
  EXPECT_FALSE(R.salvage().Used);
  std::vector<Event> Events = drain(R);
  EXPECT_FALSE(R.failed()) << R.error();
  ASSERT_EQ(Events.size(), T.size());
  for (size_t I = 0; I < Events.size(); ++I)
    EXPECT_EQ(Events[I], T[I]) << "event " << I;
}

TEST(BinaryFormat, SalvageEveryTruncationKeepsWholeFramePrefix) {
  // The salvage dual of EveryStrictPrefixIsRejected: for EVERY truncation
  // length, salvage recovers exactly the complete events frames that fit,
  // streams them without a mid-stream failure, and accounts for the rest
  // as dropped bytes. Cuts shorter than the first frame are the only ones
  // that fail (nothing intact to keep).
  Trace T = parseOrDie(SmallTrace);
  const std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);
  const std::vector<size_t> Ends = eventsFrameEnds(Bin);
  ASSERT_EQ(Ends.size(), 3u);
  const size_t Cumulative[] = {4, 8, 11};

  for (size_t Len = 0; Len < Bin.size(); ++Len) {
    const std::string Cut = Bin.substr(0, Len);
    size_t ExpectEvents = 0, ExpectEnd = 0;
    for (size_t F = 0; F < Ends.size(); ++F)
      if (Ends[F] <= Len) {
        ExpectEvents = Cumulative[F];
        ExpectEnd = Ends[F];
      }

    SymbolTable Syms;
    BinaryTraceReader R(Syms);
    bool Ok = R.openBufferSalvage(Cut);
    ASSERT_EQ(Ok, ExpectEvents > 0) << "cut at " << Len;
    if (!Ok)
      continue;
    const SalvageSummary &S = R.salvage();
    EXPECT_TRUE(S.Used) << "cut at " << Len;
    EXPECT_EQ(S.EventsKept, ExpectEvents) << "cut at " << Len;
    EXPECT_EQ(S.BytesDropped, Len - ExpectEnd) << "cut at " << Len;
    std::vector<Event> Events = drain(R);
    ASSERT_FALSE(R.failed()) << "cut at " << Len << ": " << R.error();
    ASSERT_EQ(Events.size(), ExpectEvents) << "cut at " << Len;
    for (size_t I = 0; I < Events.size(); ++I)
      EXPECT_EQ(Events[I], T[I]) << "cut at " << Len << " event " << I;
  }
}

TEST(BinaryFormat, SalvageDropsTornTailFrame) {
  // A byte flip inside the last events frame passes the strict open (frame
  // bodies are only checksummed as they stream) but fails mid-stream;
  // salvage verifies bodies up front and keeps the two frames before it.
  Trace T = parseOrDie(SmallTrace);
  std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);
  const std::vector<size_t> Ends = eventsFrameEnds(Bin);
  ASSERT_EQ(Ends.size(), 3u);
  Bin[Ends[1] + binfmt::FrameHeaderSize + 2] ^= 0x20;

  SymbolTable StrictSyms;
  BinaryTraceReader Strict(StrictSyms);
  ASSERT_TRUE(Strict.openBuffer(Bin)) << Strict.error();
  drain(Strict);
  EXPECT_TRUE(Strict.failed());

  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  ASSERT_TRUE(R.openBufferSalvage(Bin)) << R.error();
  const SalvageSummary &S = R.salvage();
  EXPECT_TRUE(S.Used);
  EXPECT_EQ(S.FramesKept, 2u);
  EXPECT_EQ(S.EventsKept, 8u);
  EXPECT_EQ(S.BytesDropped, Bin.size() - Ends[1]);
  std::vector<Event> Events = drain(R);
  ASSERT_FALSE(R.failed()) << R.error();
  ASSERT_EQ(Events.size(), 8u);
  for (size_t I = 0; I < Events.size(); ++I)
    EXPECT_EQ(Events[I], T[I]) << "event " << I;
}

TEST(BinaryFormat, SalvageOptionPlumbedThroughFactory) {
  // What velodrome-check --salvage does: openTraceSource with the salvage
  // option on a truncated .vtrc file, summary delivered via SalvageOut.
  Trace T = parseOrDie(SmallTrace);
  const std::string Bin = printBinaryTrace(T, /*FrameEvents=*/4);
  const std::vector<size_t> Ends = eventsFrameEnds(Bin);
  ASSERT_EQ(Ends.size(), 3u);
  std::string Path = ::testing::TempDir() + "/velo_salvage_test.vtrc";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(Bin.data(), static_cast<std::streamsize>(Ends[1] + 3));
  }

  SymbolTable Syms;
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string Err;
  SalvageSummary S;
  TraceOpenOptions Opts;
  Opts.Salvage = true;
  Opts.SalvageOut = &S;
  auto Src = openTraceSource(Path, Syms, St, Err, Opts);
  ASSERT_TRUE(Src) << Err;
  ASSERT_EQ(St, TraceReadStatus::Ok) << Err;
  EXPECT_TRUE(S.Used);
  EXPECT_EQ(S.EventsKept, 8u);
  Event E;
  size_t N = 0;
  while (Src->next(E))
    ++N;
  EXPECT_FALSE(Src->failed()) << Src->error();
  EXPECT_EQ(N, 8u);

  // The same file without the option is rejected the normal way.
  auto StrictSrc = openTraceSource(Path, Syms, St, Err);
  bool StrictOk = StrictSrc != nullptr;
  if (StrictOk) {
    while (StrictSrc->next(E))
      ;
    StrictOk = !StrictSrc->failed();
  }
  EXPECT_FALSE(StrictOk);
  std::remove(Path.c_str());
}

TEST(BinaryFormat, FactoryDetectsBothFormats) {
  Trace T = parseOrDie(SmallTrace);
  std::string Dir = ::testing::TempDir();
  std::string TextPath = Dir + "/velo_fmt_test.trace";
  std::string BinPath = Dir + "/velo_fmt_test.vtrc";
  ASSERT_TRUE(writeTraceFile(T, TextPath));
  ASSERT_TRUE(writeTraceFile(T, BinPath)); // .vtrc extension -> binary

  for (const std::string &Path : {TextPath, BinPath}) {
    SymbolTable Syms;
    TraceReadStatus St = TraceReadStatus::Ok;
    std::string Err;
    auto Src = openTraceSource(Path, Syms, St, Err);
    ASSERT_TRUE(Src) << Err;
    ASSERT_EQ(St, TraceReadStatus::Ok);
    EXPECT_EQ(dynamic_cast<BinaryTraceReader *>(Src.get()) != nullptr,
              Path == BinPath)
        << Path;
    Event E;
    std::vector<Event> Events;
    while (Src->next(E))
      Events.push_back(E);
    ASSERT_FALSE(Src->failed()) << Src->error();
    ASSERT_EQ(Events.size(), T.size()) << Path;
    for (size_t I = 0; I < Events.size(); ++I)
      EXPECT_EQ(Events[I], T[I]);
  }

  // readTraceFileStatus auto-detects too (the --witness path).
  Trace FromBin;
  std::string Err;
  ASSERT_EQ(readTraceFileStatus(BinPath, FromBin, Err), TraceReadStatus::Ok)
      << Err;
  EXPECT_EQ(printTrace(FromBin), printTrace(T));

  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(BinaryFormat, MissingFileStatus) {
  SymbolTable Syms;
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string Err;
  auto Src = openTraceSource("/nonexistent/velo.vtrc", Syms, St, Err);
  EXPECT_EQ(Src, nullptr);
  EXPECT_EQ(St, TraceReadStatus::NotFound);
  EXPECT_NE(Err.find("cannot open"), std::string::npos);
}

} // namespace
