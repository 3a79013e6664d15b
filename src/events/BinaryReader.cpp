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

bool BinaryTraceReader::checkHeader() {
  if (std::memcmp(Data, Magic, sizeof(Magic)) != 0)
    return fail("bad magic (not a VELOTRC file)");
  if (readU32le(Data + 8) != Version)
    return fail("unsupported container version " +
                std::to_string(readU32le(Data + 8)));
  if (readU32le(Data + 12) != 0)
    return fail("corrupt header (reserved bits set)");
  return true;
}

bool BinaryTraceReader::validateContainer() {
  if (Size < HeaderSize + FrameHeaderSize + TrailerSize)
    return fail("truncated container");
  if (!checkHeader())
    return false;
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
  FrameView Idx;
  FrameCheck Check =
      checkFrame(Data + IdxOff, Size - TrailerSize - IdxOff, MaxFramePayload,
                 Idx);
  if (Idx.Kind != IndexFrame)
    return fail("corrupt index frame (bad kind)");
  if (Check == FrameCheck::TooLong ||
      Idx.Len != Size - TrailerSize - FrameHeaderSize - IdxOff)
    return fail("corrupt index frame (bad length)");
  if (Check != FrameCheck::Ok)
    return fail("corrupt index frame (checksum mismatch)");

  const auto *IdxPayload =
      reinterpret_cast<const uint8_t *>(Idx.Payload.data());
  const size_t PSize = Idx.Payload.size();
  size_t P = 0;
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
    IndexEntry F = {};
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
    // kind and checksum are checked when the frame loads.
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
  // are only checked as they load — and a salvage open promises streaming
  // never fails — so decode every body up front and drop to prefix
  // recovery when one is bad.
  if (validateContainer()) {
    SymbolTable Scratch;
    bool BodiesGood = true;
    for (const IndexEntry &F : Frames) {
      uint64_t Len = 0, Count = 0;
      if (!decodesWhole(F.Offset, Scratch, Len, Count) || Count != F.Count) {
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
  if (!checkHeader())
    return false;

  uint64_t Off = HeaderSize;
  uint64_t ExpectOrdinal = 0;
  SymbolTable Scratch;
  // Off only grows by whole decoded frames, so it never passes Size.
  for (uint64_t Len = 0, Count = 0; decodesWhole(Off, Scratch, Len, Count);
       Off += FrameHeaderSize + Len) {
    Frames.push_back({Off, ExpectOrdinal, Count});
    ExpectOrdinal += Count;
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

bool BinaryTraceReader::decodesWhole(uint64_t Off, SymbolTable &Scratch,
                                     uint64_t &Len, uint64_t &Count) {
  FrameView F;
  if (checkFrame(Data + Off, Size - Off, MaxFramePayload, F) !=
          FrameCheck::Ok ||
      F.Kind != EventsFrame)
    return false;
  EventsFrameDecoder D;
  if (!D.start(F.Payload, Scratch))
    return false;
  Count = D.left();
  for (Event E; D.left() != 0;)
    if (!D.next(E))
      return false;
  Len = F.Len;
  return D.finish();
}

bool BinaryTraceReader::loadNextFrame() {
  const IndexEntry &F = Frames[FrameIdx];
  // The open proved the frame's length fits before IdxOff, so only the
  // kind and the checksum are left to check.
  FrameView FV;
  FrameCheck Check =
      checkFrame(Data + F.Offset, IdxOff - F.Offset, MaxFramePayload, FV);
  if (FV.Kind != EventsFrame)
    return fail("corrupt frame (bad kind)");
  if (Check != FrameCheck::Ok)
    return fail("corrupt frame (checksum mismatch)");
  if (F.FirstOrdinal != Ordinal)
    return fail("frame ordinal does not match resume position");
  if (!Dec.start(FV.Payload, Syms))
    return fail(Dec.error());
  if (Dec.left() != F.Count)
    return fail("corrupt frame (event count disagrees with index)");
  ++FrameIdx;
  return true;
}

bool BinaryTraceReader::next(Event &Out) {
  if (Failed)
    return false;
  while (Dec.left() == 0) {
    if (FrameIdx > 0 && !Dec.finish())
      return fail(Dec.error());
    if (FrameIdx >= Frames.size())
      return false; // clean EOF
    if (!loadNextFrame())
      return false;
  }
  if (!Dec.next(Out))
    return fail(Dec.error());
  ++Ordinal;
  ++NumEvents;
  return true;
}

bool BinaryTraceReader::tell(uint64_t &PosOut) {
  if (Failed || Dec.left() != 0)
    return false;
  PosOut = FrameIdx < Frames.size() ? Frames[FrameIdx].Offset : IdxOff;
  return true;
}

bool BinaryTraceReader::endOfFrame() const {
  return !Failed && FrameIdx > 0 && Dec.left() == 0;
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
  // The snapshot restored Syms to its state at the cut: for a binary
  // trace, exactly the names of the frames before this one.
  FrameIdx = Target;
  Dec = EventsFrameDecoder();
  Ordinal = Line;
  NumEvents = Events;
  return true;
}

} // namespace velo
