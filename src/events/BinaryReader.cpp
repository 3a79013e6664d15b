//===- events/BinaryReader.cpp - VELOTRC ingestion ------------------------===//

#include "events/BinaryReader.h"

#include "events/BinaryFormat.h"

#include <cerrno>
#include <cstring>

#include <sys/mman.h>
#include <sys/stat.h>

namespace velo {

using namespace binfmt;

BinaryTraceReader::~BinaryTraceReader() {
  if (MapAddr)
    ::munmap(MapAddr, MapLen);
}

bool BinaryTraceReader::fail(const std::string &Msg) {
  if (!Failed) {
    Failed = true;
    Error = "line " + std::to_string(Ordinal + 1) + ": " + Msg;
  }
  return false;
}

TraceReadStatus BinaryTraceReader::open(int Fd, const std::string &Path,
                                        bool Salvage, std::string &ErrorOut) {
  struct stat St = {};
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ErrorOut = "cannot stat " + Path + ": " + std::strerror(errno);
    return TraceReadStatus::IoError;
  }
  if (!S_ISREG(St.st_mode)) {
    ErrorOut = Path + " holds a VELOTRC container, which must be read from "
                      "a regular file (it is memory-mapped), not a pipe or "
                      "device";
    return TraceReadStatus::IoError;
  }
  Size = static_cast<size_t>(St.st_size);
  if (Size != 0) {
    void *Addr = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
    if (Addr == MAP_FAILED) {
      ErrorOut = "cannot mmap " + Path + ": " + std::strerror(errno);
      return TraceReadStatus::IoError;
    }
    MapAddr = Addr;
    MapLen = Size;
    Data = static_cast<const uint8_t *>(Addr);
  }
  if (!(Salvage ? salvageContainer() : validateContainer())) {
    ErrorOut = Error;
    return TraceReadStatus::ParseError;
  }
  return TraceReadStatus::Ok;
}

bool BinaryTraceReader::openBuffer(std::string_view Buf) {
  Data = reinterpret_cast<const uint8_t *>(Buf.data());
  Size = Buf.size();
  return validateContainer();
}

bool BinaryTraceReader::openBufferSalvage(std::string_view Buf) {
  Data = reinterpret_cast<const uint8_t *>(Buf.data());
  Size = Buf.size();
  return salvageContainer();
}

bool BinaryTraceReader::validateContainer() {
  if (Size < HeaderSize + FrameHeaderSize + TrailerSize)
    return fail("truncated container");
  if (std::memcmp(Data, Magic, sizeof(Magic)) != 0)
    return fail("bad magic (not a VELOTRC file)");
  if (readU32le(Data + 8) != Version)
    return fail("unsupported container version " +
                std::to_string(readU32le(Data + 8)));
  if (readU32le(Data + 12) != 0)
    return fail("corrupt header (reserved bits set)");
  if (std::memcmp(Data + Size - 8, TrailerMagic, sizeof(TrailerMagic)) != 0)
    return fail("truncated container (missing trailer)");
  // IdxOff comes off the wire, so every bound on it is written in
  // subtraction form: the additive form `IdxOff + c > Size` wraps for
  // IdxOff near 2^64 and lets a hostile offset through. The RHS cannot
  // underflow: Size >= HeaderSize + FrameHeaderSize + TrailerSize was
  // checked above.
  IdxOff = readU64le(Data + Size - 16);
  if (IdxOff < HeaderSize || IdxOff > Size - TrailerSize - FrameHeaderSize)
    return fail("corrupt trailer (index offset out of range)");

  // Index frame: must span exactly from its offset to the trailer.
  const uint8_t *FH = Data + IdxOff;
  if (FH[0] != IndexFrame)
    return fail("corrupt index frame (bad kind)");
  uint64_t Len = readU32le(FH + 1);
  if (Len > MaxFramePayload ||
      Len != Size - TrailerSize - FrameHeaderSize - IdxOff)
    return fail("corrupt index frame (bad length)");
  const uint8_t *IdxPayload = FH + FrameHeaderSize;
  std::string_view IdxView(reinterpret_cast<const char *>(IdxPayload),
                           static_cast<size_t>(Len));
  if (fnv1a64(IdxView) != readU64le(FH + 5))
    return fail("corrupt index frame (checksum mismatch)");

  size_t P = 0;
  auto PSize = static_cast<size_t>(Len);
  uint64_t NumFrames = 0;
  if (!readVarint(IdxPayload, PSize, P, NumFrames))
    return fail("corrupt index frame (truncated frame count)");
  // Every events frame occupies at least a header, so an index claiming
  // more frames than could fit is lying — reject before allocating.
  if (NumFrames > Size / FrameHeaderSize)
    return fail("corrupt index frame (impossible frame count)");
  Frames.reserve(static_cast<size_t>(NumFrames));
  uint64_t ExpectOrdinal = 0;
  uint64_t PrevEnd = HeaderSize;
  for (uint64_t I = 0; I < NumFrames; ++I) {
    FrameInfo F = {};
    if (!readVarint(IdxPayload, PSize, P, F.Offset) ||
        !readVarint(IdxPayload, PSize, P, F.FirstOrdinal) ||
        !readVarint(IdxPayload, PSize, P, F.Count))
      return fail("corrupt index frame (truncated entry)");
    // Same subtraction-form rule as the trailer check: F.Offset is wire
    // data, and IdxOff >= HeaderSize > FrameHeaderSize so the RHS is safe.
    if (F.Offset != PrevEnd || F.Offset > IdxOff - FrameHeaderSize)
      return fail("corrupt index frame (frame offset out of place)");
    if (F.FirstOrdinal != ExpectOrdinal)
      return fail("corrupt index frame (ordinal gap)");
    ExpectOrdinal += F.Count;
    // The next frame must start exactly where this one's payload ends;
    // the length is validated again (against the checksum) at load time.
    uint64_t FLen = readU32le(Data + F.Offset + 1);
    if (FLen > MaxFramePayload ||
        FLen > IdxOff - FrameHeaderSize - F.Offset)
      return fail("corrupt frame (bad length)");
    PrevEnd = F.Offset + FrameHeaderSize + FLen;
    Frames.push_back(F);
  }
  if (PrevEnd != IdxOff)
    return fail("corrupt container (gap between frames and index)");
  if (!readVarint(IdxPayload, PSize, P, TotalEvents))
    return fail("corrupt index frame (truncated total)");
  if (P != PSize)
    return fail("corrupt index frame (trailing bytes)");
  if (TotalEvents != ExpectOrdinal)
    return fail("corrupt index frame (total does not match entries)");
  return true;
}

bool BinaryTraceReader::salvageContainer() {
  // A complete container needs no recovery: accept it through the strict
  // validator first, so salvage mode is a strict superset of a normal
  // open and never changes the verdict on an intact file. The strict
  // validator proves the frame tiling and the index, but frame *bodies*
  // are only checksummed at load time — and a salvage open promises
  // streaming never fails — so verify every body up front and drop to
  // prefix recovery when one is corrupt.
  if (validateContainer()) {
    uint64_t SymsSeen[3] = {0, 0, 0};
    bool BodiesGood = true;
    for (const FrameInfo &F : Frames) {
      const uint8_t *FH = Data + F.Offset;
      auto Len = static_cast<size_t>(readU32le(FH + 1));
      std::string_view View(
          reinterpret_cast<const char *>(FH + FrameHeaderSize), Len);
      uint64_t Count = 0;
      if (FH[0] != EventsFrame || fnv1a64(View) != readU64le(FH + 5) ||
          !scanFrame(FH + FrameHeaderSize, Len, SymsSeen, Count) ||
          Count != F.Count) {
        BodiesGood = false;
        break;
      }
    }
    if (BodiesGood)
      return true;
  }

  // Strict validation failed — reset its state and scan the frame chain
  // forward instead, keeping the longest prefix of intact events frames.
  // The fixed header has no redundancy to recover from, so it must be
  // clean; after that, each frame stands on its own checksum.
  Failed = false;
  Error.clear();
  Frames.clear();
  IdxOff = 0;
  TotalEvents = 0;
  Salvaged.Used = true;

  if (Size < HeaderSize)
    return fail("truncated container (missing header)");
  if (std::memcmp(Data, Magic, sizeof(Magic)) != 0)
    return fail("bad magic (not a VELOTRC file)");
  if (readU32le(Data + 8) != Version)
    return fail("unsupported container version " +
                std::to_string(readU32le(Data + 8)));
  if (readU32le(Data + 12) != 0)
    return fail("corrupt header (reserved bits set)");

  uint64_t Off = HeaderSize;
  uint64_t ExpectOrdinal = 0;
  uint64_t SymsSeen[3] = {0, 0, 0};
  // Off only grows by whole validated frames, so Size - Off never
  // underflows; lengths are bounds-checked in subtraction form exactly
  // like validateContainer (wire data must never reach an addition).
  while (Size - Off >= FrameHeaderSize) {
    const uint8_t *FH = Data + Off;
    if (FH[0] != EventsFrame)
      break; // index frame (or garbage): the events prefix ends here
    uint64_t Len = readU32le(FH + 1);
    if (Len > MaxFramePayload || Len > Size - Off - FrameHeaderSize)
      break; // truncated mid-frame
    std::string_view View(reinterpret_cast<const char *>(FH + FrameHeaderSize),
                          static_cast<size_t>(Len));
    if (fnv1a64(View) != readU64le(FH + 5))
      break; // torn or bit-flipped payload
    uint64_t Count = 0;
    if (!scanFrame(FH + FrameHeaderSize, static_cast<size_t>(Len), SymsSeen,
                   Count))
      break; // checksummed but structurally bogus: refuse to stream it
    Frames.push_back({Off, ExpectOrdinal, Count});
    ExpectOrdinal += Count;
    Off += FrameHeaderSize + Len;
  }
  if (Frames.empty())
    return fail("no intact frames to salvage");
  IdxOff = Off; // end-of-prefix position: tell() at EOF, like a real index
  TotalEvents = ExpectOrdinal;
  Salvaged.FramesKept = Frames.size();
  Salvaged.EventsKept = ExpectOrdinal;
  Salvaged.BytesDropped = Size - Off;
  return true;
}

bool BinaryTraceReader::scanFrame(const uint8_t *P, size_t N,
                                  uint64_t SymsSeen[3], uint64_t &CountOut) {
  size_t Pos = 0;
  for (int B = 0; B < 3; ++B) {
    uint64_t Base = 0, Count = 0;
    if (!readVarint(P, N, Pos, Base) || !readVarint(P, N, Pos, Count))
      return false;
    if (Base != SymsSeen[B] || Count > N - Pos ||
        Base + Count > maxTraceSymbols())
      return false;
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t NameLen = 0;
      if (!readVarint(P, N, Pos, NameLen) || NameLen > N - Pos)
        return false;
      Pos += static_cast<size_t>(NameLen);
    }
    SymsSeen[B] += Count;
  }
  uint64_t Num = 0;
  if (!readVarint(P, N, Pos, Num))
    return false;
  for (uint64_t I = 0; I < Num; ++I) {
    if (Pos >= N)
      return false;
    uint8_t OpByte = P[Pos++];
    if (OpByte > static_cast<uint8_t>(Op::Join))
      return false;
    Op Kind = static_cast<Op>(OpByte);
    uint64_t TidV = 0;
    if (!readVarint(P, N, Pos, TidV) || TidV >= MaxTraceThreads)
      return false;
    if (Kind == Op::End)
      continue;
    uint64_t TgtV = 0;
    if (!readVarint(P, N, Pos, TgtV))
      return false;
    switch (Kind) {
    case Op::Read:
    case Op::Write:
      if (TgtV >= SymsSeen[0])
        return false;
      break;
    case Op::Acquire:
    case Op::Release:
      if (TgtV >= SymsSeen[1])
        return false;
      break;
    case Op::Begin:
      if (TgtV != NoLabel && TgtV >= SymsSeen[2])
        return false;
      break;
    case Op::Fork:
    case Op::Join:
      if (TgtV >= MaxTraceThreads)
        return false;
      break;
    case Op::End:
      break;
    }
  }
  if (Pos != N)
    return false; // trailing bytes after events
  CountOut = Num;
  return true;
}

bool BinaryTraceReader::loadNextFrame() {
  const FrameInfo &F = Frames[FrameIdx];
  const uint8_t *FH = Data + F.Offset;
  if (FH[0] != EventsFrame)
    return fail("corrupt frame (bad kind)");
  auto Len = static_cast<size_t>(readU32le(FH + 1));
  Payload = FH + FrameHeaderSize;
  PayloadSize = Len;
  std::string_view View(reinterpret_cast<const char *>(Payload), Len);
  if (fnv1a64(View) != readU64le(FH + 5))
    return fail("corrupt frame (checksum mismatch)");
  if (F.FirstOrdinal != Ordinal)
    return fail("frame ordinal does not match resume position");
  Pos = 0;

  // Symbol blocks: contiguous with the ids defined so far, capped like
  // the text parser's interning.
  auto ReadBlock = [&](StringInterner &Table, std::vector<uint32_t> &Map,
                       const char *What) {
    uint64_t Base = 0, Count = 0;
    if (!readVarint(Payload, PayloadSize, Pos, Base) ||
        !readVarint(Payload, PayloadSize, Pos, Count))
      return fail("corrupt frame (truncated symbol block)");
    if (Base != Map.size())
      return fail("corrupt frame (symbol block not contiguous)");
    if (Count > PayloadSize - Pos)
      return fail("corrupt frame (impossible symbol count)");
    const uint64_t Cap = maxTraceSymbols();
    if (Base + Count > Cap)
      return fail(std::string("too many distinct ") + What + " names (cap " +
                  std::to_string(Cap) + ")");
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t NameLen = 0;
      if (!readVarint(Payload, PayloadSize, Pos, NameLen) ||
          NameLen > PayloadSize - Pos)
        return fail("corrupt frame (truncated symbol name)");
      std::string_view Name(reinterpret_cast<const char *>(Payload + Pos),
                            static_cast<size_t>(NameLen));
      Pos += static_cast<size_t>(NameLen);
      uint32_t Id = 0;
      if (!internSymbolCapped(Table, Name, Cap, Id))
        return fail(std::string("too many distinct ") + What +
                    " names (cap " + std::to_string(Cap) + ")");
      Map.push_back(Id);
    }
    return true;
  };
  if (!ReadBlock(Syms.Vars, VarMap, "variable") ||
      !ReadBlock(Syms.Locks, LockMap, "lock") ||
      !ReadBlock(Syms.Labels, LabelMap, "label"))
    return false;

  uint64_t NumInFrame = 0;
  if (!readVarint(Payload, PayloadSize, Pos, NumInFrame))
    return fail("corrupt frame (truncated event count)");
  if (NumInFrame != F.Count)
    return fail("corrupt frame (event count disagrees with index)");
  EventsLeftInFrame = NumInFrame;
  ++FrameIdx;
  return true;
}

bool BinaryTraceReader::next(Event &Out) {
  if (Failed)
    return false;
  while (EventsLeftInFrame == 0) {
    if (FrameIdx > 0 && Pos != PayloadSize)
      return fail("corrupt frame (trailing bytes after events)");
    if (FrameIdx >= Frames.size())
      return false; // clean EOF
    if (!loadNextFrame())
      return false;
  }

  if (Pos >= PayloadSize)
    return fail("corrupt frame (truncated event)");
  uint8_t OpByte = Payload[Pos++];
  if (OpByte > static_cast<uint8_t>(Op::Join))
    return fail("unknown operation code " + std::to_string(OpByte));
  Op Kind = static_cast<Op>(OpByte);

  uint64_t TidV = 0;
  if (!readVarint(Payload, PayloadSize, Pos, TidV))
    return fail("corrupt frame (truncated event)");
  if (TidV >= MaxTraceThreads)
    return fail("thread id " + std::to_string(TidV) + " out of range");

  uint32_t Target = 0;
  if (Kind != Op::End) {
    uint64_t TgtV = 0;
    if (!readVarint(Payload, PayloadSize, Pos, TgtV))
      return fail("corrupt frame (truncated event)");
    switch (Kind) {
    case Op::Read:
    case Op::Write:
      if (TgtV >= VarMap.size())
        return fail("undefined variable id " + std::to_string(TgtV));
      Target = VarMap[static_cast<size_t>(TgtV)];
      break;
    case Op::Acquire:
    case Op::Release:
      if (TgtV >= LockMap.size())
        return fail("undefined lock id " + std::to_string(TgtV));
      Target = LockMap[static_cast<size_t>(TgtV)];
      break;
    case Op::Begin:
      if (TgtV == NoLabel) {
        Target = NoLabel;
      } else if (TgtV >= LabelMap.size()) {
        return fail("undefined label id " + std::to_string(TgtV));
      } else {
        Target = LabelMap[static_cast<size_t>(TgtV)];
      }
      break;
    case Op::Fork:
    case Op::Join:
      if (TgtV >= MaxTraceThreads)
        return fail("thread id " + std::to_string(TgtV) + " out of range");
      Target = static_cast<uint32_t>(TgtV);
      break;
    case Op::End:
      break;
    }
  }

  Out = Event{Kind, static_cast<Tid>(TidV), Target};
  --EventsLeftInFrame;
  ++Ordinal;
  ++NumEvents;
  return true;
}

bool BinaryTraceReader::tell(uint64_t &PosOut) {
  if (Failed || EventsLeftInFrame != 0)
    return false;
  PosOut = FrameIdx < Frames.size() ? Frames[FrameIdx].Offset : IdxOff;
  return true;
}

bool BinaryTraceReader::endOfFrame() const {
  return !Failed && FrameIdx > 0 && EventsLeftInFrame == 0;
}

bool BinaryTraceReader::seekTo(uint64_t SeekPos, uint64_t Line,
                               uint64_t Events, std::string &ErrorOut) {
  if (Failed) {
    ErrorOut = Error;
    return false;
  }
  size_t Target = Frames.size();
  if (SeekPos != IdxOff) {
    Target = Frames.size();
    for (size_t I = 0; I < Frames.size(); ++I)
      if (Frames[I].Offset == SeekPos) {
        Target = I;
        break;
      }
    if (Target == Frames.size()) {
      ErrorOut = "checkpoint offset " + std::to_string(SeekPos) +
                 " is not a frame boundary in this trace";
      return false;
    }
  }
  FrameIdx = Target;
  EventsLeftInFrame = 0;
  Pos = 0;
  PayloadSize = 0;
  // The snapshot restored Syms to its state at the cut, which for a
  // binary trace is exactly the file's first-use order up to this frame,
  // so the file-id -> Syms-id maps are identity prefixes.
  auto Identity = [](std::vector<uint32_t> &Map, size_t N) {
    Map.clear();
    Map.reserve(N);
    for (size_t I = 0; I < N; ++I)
      Map.push_back(static_cast<uint32_t>(I));
  };
  Identity(VarMap, Syms.Vars.size());
  Identity(LockMap, Syms.Locks.size());
  Identity(LabelMap, Syms.Labels.size());
  Ordinal = Line;
  NumEvents = Events;
  return true;
}

} // namespace velo
