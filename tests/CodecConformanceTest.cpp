//===- tests/CodecConformanceTest.cpp - One codec, three readers ----------===//
//
// The serve wire (serve::decodeEventsPayload), the strict container reader
// and the salvage open all run the one events-frame decoder
// (events/BinaryFormat.h). A table of hand-built payloads holds them to
// it: the wire and the strict reader accept and refuse alike, with the
// same message once the reader's "line N: " prefix is dropped, and a
// salvage open keeps exactly the frames they accept before the first one
// they refuse, then never fails mid-stream. Every readable trace under
// tests/data also checks that a container's events frames are wire
// payloads.
//
// The LD_PRELOAD tracer encodes through the same productions, but into a
// fixed buffer, with names read out of fixed-size arrays. It is not built
// under the sanitizers, so a second table runs that path here, in every
// build: both sinks must write the same bytes, and a buffer too short for
// a frame must be refused without a byte written past its end.
//
//===----------------------------------------------------------------------===//

#include "VtrcBuilder.h"

#include "events/BinaryReader.h"
#include "events/BinaryWriter.h"
#include "events/TraceStream.h"
#include "events/TraceText.h"
#include "serve/Wire.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#ifndef VELO_TEST_DATA_DIR
#define VELO_TEST_DATA_DIR "tests/data"
#endif

using namespace velo;
using velo::test::oneEvent;
using velo::test::PayloadBuilder;

namespace {

/// What one reader made of a stream of frames.
struct Outcome {
  bool Opened = true;
  bool Ok = true;
  std::string Msg;            ///< the refusal, without any "line N: "
  size_t FramesOk = 0;        ///< frames accepted before the refusal
  std::vector<Event> Events;  ///< the accepted frames' events
  std::vector<std::string> Names; ///< every name, kind by kind, in id order
};

std::vector<std::string> namesOf(const SymbolTable &Syms) {
  std::vector<std::string> Out;
  for (const StringInterner *I : {&Syms.Vars, &Syms.Locks, &Syms.Labels}) {
    for (uint32_t Id = 0; Id < I->size(); ++Id)
      Out.push_back(I->name(Id));
    Out.push_back("|");
  }
  return Out;
}

Outcome viaWire(const std::vector<PayloadBuilder> &Frames) {
  Outcome O;
  SymbolTable Syms;
  for (const PayloadBuilder &F : Frames) {
    std::vector<Event> Events;
    if (!serve::decodeEventsPayload(
            reinterpret_cast<const uint8_t *>(F.Bytes.data()), F.Bytes.size(),
            Syms, Events, O.Msg)) {
      O.Ok = false;
      return O;
    }
    O.Events.insert(O.Events.end(), Events.begin(), Events.end());
    ++O.FramesOk;
  }
  O.Names = namesOf(Syms);
  return O;
}

/// A one-frame-per-payload container through the strict or salvage open.
Outcome viaReader(const std::vector<PayloadBuilder> &Frames, bool Salvage) {
  const std::string Bytes = test::containerOf(Frames);
  Outcome O;
  SymbolTable Syms;
  BinaryTraceReader R(Syms);
  O.Opened = Salvage ? R.openBufferSalvage(Bytes) : R.openBuffer(Bytes);
  if (O.Opened)
    for (Event E; R.next(E);)
      O.Events.push_back(E);
  O.Ok = !R.failed();
  O.Msg = R.error();
  if (O.Msg.rfind("line ", 0) == 0)
    O.Msg.erase(0, O.Msg.find(": ") + 2);
  O.FramesOk = R.salvage().Used ? R.salvage().FramesKept : Frames.size();
  O.Names = namesOf(Syms);
  return O;
}

struct Case {
  std::string Name;
  std::vector<PayloadBuilder> Frames;
  bool Accept = false;
  std::string Want; ///< the refusal; empty checks only that there is one
  const char *SymbolCap = nullptr; ///< VELO_MAX_SYMBOLS for this case
};

/// vars {x, y}, locks {m}, labels {L}: every op, both begin forms.
PayloadBuilder validPayload() {
  PayloadBuilder P;
  P.block(0, {"x", "y"}).block(0, {"m"}).block(0, {"L"}).count(10);
  P.event(Op::Fork, 0, 1)
      .event(Op::Begin, 0, 0)
      .event(Op::Acquire, 0, 0)
      .event(Op::Write, 0, 0)
      .event(Op::Release, 0, 0)
      .event(Op::End, 0)
      .event(Op::Begin, 1, NoLabel)
      .event(Op::Read, 1, 1)
      .event(Op::End, 1)
      .event(Op::Join, 0, 1);
  return P;
}

std::vector<Case> conformanceTable() {
  std::vector<Case> Cases;
  auto Add = [&Cases](std::string Name, std::vector<PayloadBuilder> Frames,
                      std::string Want) {
    Cases.push_back({std::move(Name), std::move(Frames), Want.empty(), Want});
  };
  const PayloadBuilder Valid = validPayload();
  PayloadBuilder P;

  Add("valid payload", {Valid}, "");
  P = {};
  P.block(0, {}).block(0, {}).block(0, {}).count(2);
  P.event(Op::Begin, 0, NoLabel).event(Op::End, 0);
  Add("begin with NoLabel", {P}, "");

  P = {};
  P.block(0, {"x", "x"}).block(0, {}).block(0, {}).count(0);
  Add("repeated variable name", {P}, "duplicate variable name in symbol block");
  P = {};
  P.block(0, {}).block(0, {"m", "n", "m"}).block(0, {}).count(0);
  Add("repeated lock name", {P}, "duplicate lock name in symbol block");
  P = {};
  P.block(0, {}).block(0, {}).block(0, {"L", "L"}).count(0);
  Add("repeated label name", {P}, "duplicate label name in symbol block");
  P = {};
  P.block(0, {"x"}).block(0, {}).block(0, {}).count(0);
  PayloadBuilder Again;
  Again.block(1, {"x"}).block(0, {}).block(0, {}).count(0);
  Add("name repeated across frames", {P, Again},
      "duplicate variable name in symbol block");

  P = {};
  P.block(1, {"x"}).block(0, {}).block(0, {}).count(0);
  Add("first-frame base ahead", {P}, "symbol block not contiguous");
  PayloadBuilder Behind;
  Behind.block(2, {}).block(1, {}).block(0, {"K"}).count(0);
  Add("second-frame base behind", {Valid, Behind},
      "symbol block not contiguous");
  PayloadBuilder Ahead;
  Ahead.block(3, {"z"}).block(1, {}).block(1, {}).count(0);
  Add("second-frame base ahead", {Valid, Ahead},
      "symbol block not contiguous");

  P = {};
  P.block(0, {"x"}).block(0, {}).block(0, {}).count(1).event(Op::Read, 0, 1);
  Add("undefined variable id", {P}, "undefined variable id 1");
  Add("undefined lock id", {oneEvent(Op::Release, 0, 0)},
      "undefined lock id 0");
  Add("undefined label id", {oneEvent(Op::Begin, 0, 0)},
      "undefined label id 0");
  PayloadBuilder Later;
  Later.block(2, {}).block(1, {}).block(1, {}).count(1).event(Op::Write, 0, 2);
  Add("undefined id in a second frame", {Valid, Later},
      "undefined variable id 2");

  Add("op byte 8", {oneEvent(8, 0, 0)}, "unknown operation code 8");
  Add("tid 2^20", {oneEvent(Op::End, MaxTraceThreads, 0)},
      "thread id 1048576 out of range");
  Add("fork child 2^20", {oneEvent(Op::Fork, 0, MaxTraceThreads)},
      "thread id 1048576 out of range");

  P = {};
  P.block(0, {"a", "b", "c"}).block(0, {}).block(0, {}).count(0);
  Add("three names under a cap of two", {P},
      "too many distinct variable names (cap 2)");
  Cases.back().SymbolCap = "2";

  P = Valid;
  P.Bytes += '\0';
  Add("one trailing byte", {P}, "trailing bytes after events");
  P = {};
  P.block(0, {}).block(0, {}).block(0, {}).count(100).event(Op::End, 0);
  Add("event count the bytes cannot hold", {P}, "impossible event count");

  for (size_t Len = 0; Len < Valid.Bytes.size(); ++Len) {
    P = Valid;
    P.Bytes.resize(Len);
    Cases.push_back(
        {"prefix of " + std::to_string(Len) + " bytes", {P}, false, ""});
  }
  return Cases;
}

TEST(CodecConformance, WireStrictAndSalvageAgreeOnEveryCase) {
  for (const Case &C : conformanceTable()) {
    SCOPED_TRACE(C.Name);
    if (C.SymbolCap) {
      ASSERT_EQ(setenv("VELO_MAX_SYMBOLS", C.SymbolCap, 1), 0);
    }
    const Outcome Wire = viaWire(C.Frames);
    const Outcome Strict = viaReader(C.Frames, /*Salvage=*/false);
    const Outcome Salvage = viaReader(C.Frames, /*Salvage=*/true);
    if (C.SymbolCap)
      unsetenv("VELO_MAX_SYMBOLS");

    EXPECT_EQ(Wire.Ok, C.Accept) << Wire.Msg;
    if (!C.Want.empty()) {
      EXPECT_EQ(Wire.Msg, C.Want);
    }
    EXPECT_TRUE(Strict.Opened) << Strict.Msg;
    EXPECT_EQ(Strict.Ok, Wire.Ok) << Strict.Msg;
    EXPECT_EQ(Strict.Msg, Wire.Msg);
    if (Wire.Ok) {
      EXPECT_EQ(Strict.Events, Wire.Events);
      EXPECT_EQ(Strict.Names, Wire.Names);
    }

    // Salvage keeps the frames accepted before the first refusal, so it
    // refuses at open exactly when the first frame is refused, and what it
    // opens streams to the end.
    EXPECT_EQ(Salvage.Opened, Wire.FramesOk > 0 || Wire.Ok) << Salvage.Msg;
    if (!Salvage.Opened)
      continue;
    EXPECT_TRUE(Salvage.Ok) << "salvage failed mid-stream: " << Salvage.Msg;
    EXPECT_EQ(Salvage.FramesOk, Wire.Ok ? C.Frames.size() : Wire.FramesOk);
    EXPECT_EQ(Salvage.Events, Wire.Events);
  }
}

TEST(CodecConformance, ContainerFramesAreWirePayloads) {
  // Every readable trace under tests/data: the events frames of its
  // container decode in order through the wire to its events and names.
  size_t Traces = 0;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(VELO_TEST_DATA_DIR)) {
    Trace T;
    std::string Err;
    if (!Entry.is_regular_file() ||
        readTraceFileStatus(Entry.path().string(), T, Err) !=
            TraceReadStatus::Ok)
      continue;
    SCOPED_TRACE(Entry.path().string());
    ++Traces;
    const std::string Bin = printBinaryTrace(T, 7);
    const auto *Data = reinterpret_cast<const uint8_t *>(Bin.data());
    SymbolTable Syms;
    std::vector<Event> Events;
    size_t Off = binfmt::HeaderSize;
    binfmt::FrameView F;
    while (binfmt::checkFrame(Data + Off, Bin.size() - Off,
                              binfmt::MaxFramePayload,
                              F) == binfmt::FrameCheck::Ok &&
           F.Kind == binfmt::EventsFrame) {
      ASSERT_TRUE(serve::decodeEventsPayload(
          reinterpret_cast<const uint8_t *>(F.Payload.data()),
          F.Payload.size(), Syms, Events, Err))
          << Err;
      Off += binfmt::FrameHeaderSize + F.Payload.size();
    }
    EXPECT_EQ(F.Kind, binfmt::IndexFrame) << "frame chain ended early";
    EXPECT_EQ(Events, std::vector<Event>(T.begin(), T.end()));
    EXPECT_EQ(namesOf(Syms), namesOf(T.symbols()));
  }
  EXPECT_GE(Traces, 20u);
}

/// A frame as the tracer holds one: for each kind of name a registry of
/// fixed-size slots indexed by id, of which the first Emitted went out in
/// earlier frames, and a buffer of event records.
struct TracerFrame {
  struct Registry {
    char Names[8][64] = {};
    uint8_t Lens[8] = {};
    uint32_t Emitted = 0, Count = 0;

    Registry(uint32_t Emitted, std::initializer_list<std::string_view> All)
        : Emitted(Emitted), Count(static_cast<uint32_t>(All.size())) {
      uint32_t Id = 0;
      for (std::string_view N : All) {
        std::memcpy(Names[Id], N.data(), N.size());
        Lens[Id++] = static_cast<uint8_t>(N.size());
      }
    }
  };
  struct Rec {
    uint8_t Op;
    uint32_t Tid;
    uint32_t Target;
  };

  std::string Name;
  Registry Regs[3]; ///< vars, locks, labels
  std::vector<Rec> Events;
};

/// The payload as preload/TraceRuntime.cpp's flushLocked encodes it.
template <class Sink>
void encodeTracerPayload(Sink &&S, const TracerFrame &F) {
  for (const TracerFrame::Registry &R : F.Regs)
    binfmt::putSymbolBlock(S, R.Emitted, R.Count - R.Emitted,
                           [&R](uint64_t Id) {
                             return std::string_view(R.Names[Id], R.Lens[Id]);
                           });
  binfmt::putVarint(S, F.Events.size());
  for (const TracerFrame::Rec &E : F.Events)
    binfmt::putEvent(S, E.Op, E.Tid, E.Target);
}

/// The frame through a BufferSink over Buf[0..Size): header, then payload,
/// as the tracer writes it. Returns the frame's length, or 0 when refused.
size_t encodeTracerFrame(char *Buf, size_t Size, const TracerFrame &F) {
  if (Size < binfmt::FrameHeaderSize)
    return 0;
  char *Payload = Buf + binfmt::FrameHeaderSize;
  binfmt::BufferSink P{Payload, Buf + Size};
  encodeTracerPayload(P, F);
  if (!P.Ok)
    return 0;
  const size_t Len = static_cast<size_t>(P.P - Payload);
  binfmt::BufferSink H{Buf, Payload};
  binfmt::putFrameHeader(H, binfmt::EventsFrame, Len,
                         binfmt::fnv1a64(std::string_view(Payload, Len)));
  return H.Ok ? binfmt::FrameHeaderSize + Len : 0;
}

std::vector<TracerFrame> tracerTable() {
  using R = TracerFrame::Rec;
  auto Op8 = [](Op K) { return static_cast<uint8_t>(K); };
  std::vector<TracerFrame> Cases;
  Cases.push_back({"empty frame", {{0, {}}, {0, {}}, {0, {}}}, {}});
  Cases.push_back(
      {"every op",
       {{0, {"v@0x1000", "v@0x1008"}}, {0, {"m@0x2000"}}, {0, {"deposit"}}},
       {R{Op8(Op::Fork), 0, 1}, R{Op8(Op::Begin), 1, 0},
        R{Op8(Op::Acquire), 1, 0}, R{Op8(Op::Read), 1, 0},
        R{Op8(Op::Write), 1, 1}, R{Op8(Op::Release), 1, 0},
        R{Op8(Op::End), 1, 0}, R{Op8(Op::Begin), 0, NoLabel},
        R{Op8(Op::End), 0, 0}, R{Op8(Op::Join), 0, 1}}});
  // The tracer's name caps: "m@0x" and 16 hex digits, a 63-byte label.
  const std::string Label(63, 'L');
  Cases.push_back({"names at the slot caps",
                   {{0, {"v@0xffffffffffffffff"}},
                    {0, {"m@0xfffffffffffffff0"}},
                    {0, {Label}}},
                   {R{Op8(Op::Begin), 0, 0}, R{Op8(Op::Write), 0, 0},
                    R{Op8(Op::End), 0, 0}}});
  // A later frame: blocks start past the names earlier frames emitted,
  // and a registry may hold names no event of this frame uses.
  Cases.push_back({"later frame",
                   {{2, {"v@0x10", "v@0x18", "v@0x20", "v@0x28"}},
                    {1, {"m@0x30"}},
                    {1, {"a", "b", "c"}}},
                   {R{Op8(Op::Read), 3, 3}, R{Op8(Op::Read), 3, 0}}});
  // Multi-byte varints: a count past 127, the largest tid, a large target.
  TracerFrame Many{"varint widths", {{0, {"x"}}, {0, {}}, {0, {}}}, {}};
  for (uint32_t I = 0; I < 300; ++I)
    Many.Events.push_back(
        R{Op8(I % 2 ? Op::Read : Op::Write),
          static_cast<uint32_t>(MaxTraceThreads - 1 - I), 0});
  Many.Events.push_back(R{Op8(Op::Fork), 0, 1u << 19});
  Cases.push_back(std::move(Many));
  return Cases;
}

TEST(CodecConformance, TracerPathWritesTheStringPathsBytes) {
  for (const TracerFrame &F : tracerTable()) {
    SCOPED_TRACE(F.Name);
    std::string Payload;
    encodeTracerPayload(binfmt::StringSink{Payload}, F);
    std::string Want;
    binfmt::appendFrame(Want, binfmt::EventsFrame, Payload);

    std::vector<char> Buf(Want.size());
    ASSERT_EQ(encodeTracerFrame(Buf.data(), Buf.size(), F), Want.size());
    EXPECT_EQ(std::string(Buf.begin(), Buf.end()), Want);

    // The payload decodes to the records, with every registry name after
    // the ones emitted before.
    SymbolTable Syms;
    StringInterner *Tables[3] = {&Syms.Vars, &Syms.Locks, &Syms.Labels};
    for (int K = 0; K < 3; ++K)
      for (uint32_t Id = 0; Id < F.Regs[K].Emitted; ++Id)
        Tables[K]->intern(std::string_view(F.Regs[K].Names[Id],
                                           F.Regs[K].Lens[Id]));
    std::vector<Event> Events;
    std::string Err;
    ASSERT_TRUE(serve::decodeEventsPayload(
        reinterpret_cast<const uint8_t *>(Payload.data()), Payload.size(),
        Syms, Events, Err))
        << Err;
    ASSERT_EQ(Events.size(), F.Events.size());
    for (size_t I = 0; I < Events.size(); ++I) {
      EXPECT_EQ(static_cast<uint8_t>(Events[I].Kind), F.Events[I].Op);
      EXPECT_EQ(Events[I].Thread, F.Events[I].Tid);
      if (Events[I].Kind != Op::End) {
        EXPECT_EQ(Events[I].Target, F.Events[I].Target);
      }
    }
    for (int K = 0; K < 3; ++K) {
      ASSERT_EQ(Tables[K]->size(), F.Regs[K].Count);
      for (uint32_t Id = 0; Id < F.Regs[K].Count; ++Id)
        EXPECT_EQ(Tables[K]->name(Id),
                  std::string_view(F.Regs[K].Names[Id], F.Regs[K].Lens[Id]));
    }
  }
}

TEST(CodecConformance, TracerPathRefusesAShortBuffer) {
  // Every buffer shorter than the frame is refused, and the canary byte
  // just past its end is never written.
  for (const TracerFrame &F : tracerTable()) {
    SCOPED_TRACE(F.Name);
    std::vector<char> Whole(1 << 12);
    const size_t Size = encodeTracerFrame(Whole.data(), Whole.size(), F);
    ASSERT_NE(Size, 0u);
    for (size_t Short = 0; Short < Size; ++Short) {
      std::vector<char> Buf(Short + 1, '\x5a');
      EXPECT_EQ(encodeTracerFrame(Buf.data(), Short, F), 0u) << Short;
      EXPECT_EQ(Buf[Short], '\x5a') << "wrote past a buffer of " << Short;
    }
  }
}

TEST(CodecConformance, HashingPassSizesWhatTheWritingPassWrites) {
  // The tracer's index frame: a HashSink pass gives the header's length
  // and checksum, then the same production streams the payload.
  std::vector<binfmt::IndexEntry> Index;
  for (uint64_t I = 0; I < 500; ++I)
    Index.push_back({binfmt::HeaderSize + 97 * I, 3 * I, 3});
  binfmt::HashSink Sized;
  binfmt::putIndexPayload(Sized, Index, 1500);
  std::string Payload;
  binfmt::putIndexPayload(binfmt::StringSink{Payload}, Index, 1500);
  EXPECT_EQ(Sized.Len, Payload.size());
  EXPECT_EQ(Sized.Sum.Value, binfmt::fnv1a64(Payload));
}

} // namespace
