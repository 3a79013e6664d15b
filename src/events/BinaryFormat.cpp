//===- events/BinaryFormat.cpp - The VELOTRC frame codec ------------------===//

#include "events/BinaryFormat.h"

#include "events/TraceStream.h"

#include <algorithm>

namespace velo {
namespace binfmt {

void appendEventsPayload(std::string &Out, std::span<const Event> Events,
                         const SymbolTable &Syms, size_t &VarsDone,
                         size_t &LocksDone, size_t &LabelsDone) {
  size_t VarsNeed = VarsDone, LocksNeed = LocksDone, LabelsNeed = LabelsDone;
  for (const Event &E : Events) {
    if (E.isAccess())
      VarsNeed = std::max<size_t>(VarsNeed, E.var() + size_t(1));
    else if (E.isLockOp())
      LocksNeed = std::max<size_t>(LocksNeed, E.lock() + size_t(1));
    else if (E.Kind == Op::Begin && E.label() != NoLabel)
      LabelsNeed = std::max<size_t>(LabelsNeed, E.label() + size_t(1));
  }
  auto Block = [&Out](const StringInterner &Table, size_t &Done,
                      size_t Need) {
    appendVarint(Out, Done);
    appendVarint(Out, Need - Done);
    for (; Done < Need; ++Done) {
      const std::string &Name = Table.name(static_cast<uint32_t>(Done));
      appendVarint(Out, Name.size());
      Out += Name;
    }
  };
  Block(Syms.Vars, VarsDone, VarsNeed);
  Block(Syms.Locks, LocksDone, LocksNeed);
  Block(Syms.Labels, LabelsDone, LabelsNeed);

  appendVarint(Out, Events.size());
  for (const Event &E : Events) {
    Out += static_cast<char>(static_cast<uint8_t>(E.Kind));
    appendVarint(Out, E.Thread);
    if (E.Kind != Op::End)
      appendVarint(Out, E.Target);
  }
}

void appendFrame(std::string &Out, uint8_t Kind, std::string_view Payload) {
  Out += static_cast<char>(Kind);
  appendU32le(Out, static_cast<uint32_t>(Payload.size()));
  appendU64le(Out, fnv1a64(Payload));
  Out += Payload;
}

FrameCheck checkFrame(const uint8_t *Data, size_t Avail, uint64_t Cap,
                      FrameView &Out) {
  if (Avail < FrameHeaderSize)
    return FrameCheck::NeedMore;
  Out.Kind = Data[0];
  Out.Len = readU32le(Data + 1);
  if (Out.Len > Cap)
    return FrameCheck::TooLong;
  if (Out.Len > Avail - FrameHeaderSize)
    return FrameCheck::NeedMore;
  Out.Payload = std::string_view(
      reinterpret_cast<const char *>(Data + FrameHeaderSize),
      static_cast<size_t>(Out.Len));
  return fnv1a64(Out.Payload) == readU64le(Data + 5) ? FrameCheck::Ok
                                                      : FrameCheck::BadChecksum;
}

bool EventsFrameDecoder::start(std::string_view Payload, SymbolTable &Syms) {
  Data = reinterpret_cast<const uint8_t *>(Payload.data());
  Size = Payload.size();
  Pos = 0;
  Left = 0;
  if (!readBlock(Syms.Vars, "variable") || !readBlock(Syms.Locks, "lock") ||
      !readBlock(Syms.Labels, "label"))
    return false;
  uint64_t Count = 0;
  if (!readVarint(Data, Size, Pos, Count))
    return fault("truncated event count");
  // Every event takes at least two bytes (op, tid), so a count the rest of
  // the payload cannot hold is a lie: refuse it before anyone reserves.
  if (Count > (Size - Pos) / 2)
    return fault("impossible event count");
  const uint64_t Vars = Syms.Vars.size(), Locks = Syms.Locks.size();
  const uint64_t Labels = Syms.Labels.size();
  const uint64_t Bounds[8] = {Vars,   Vars, Locks,           Locks,
                              Labels, 0,    MaxTraceThreads, MaxTraceThreads};
  std::copy(std::begin(Bounds), std::end(Bounds), TargetBound);
  Left = Count;
  return true;
}

bool EventsFrameDecoder::readBlock(StringInterner &Table, const char *What) {
  uint64_t Base = 0, Count = 0;
  if (!readVarint(Data, Size, Pos, Base) || !readVarint(Data, Size, Pos, Count))
    return fault("truncated symbol block");
  if (Base != Table.size())
    return fault("symbol block not contiguous");
  if (Count > Size - Pos)
    return fault("impossible symbol count");
  const uint64_t Cap = maxTraceSymbols();
  if (Base + Count > Cap) {
    Err = std::string("too many distinct ") + What + " names (cap " +
          std::to_string(Cap) + ")";
    return false;
  }
  for (uint64_t I = 0; I < Count; ++I) {
    uint64_t NameLen = 0;
    if (!readVarint(Data, Size, Pos, NameLen) || NameLen > Size - Pos)
      return fault("truncated symbol name");
    std::string_view Name(reinterpret_cast<const char *>(Data + Pos),
                          static_cast<size_t>(NameLen));
    Pos += static_cast<size_t>(NameLen);
    if (Table.intern(Name) != Base + I) {
      Err = std::string("duplicate ") + What + " name in symbol block";
      return false;
    }
  }
  return true;
}

bool EventsFrameDecoder::fault(const char *Msg) {
  Err = Msg;
  return false;
}

bool EventsFrameDecoder::badOp(uint8_t OpByte) {
  Err = "unknown operation code " + std::to_string(OpByte);
  return false;
}

bool EventsFrameDecoder::badThread(uint64_t TidV) {
  Err = "thread id " + std::to_string(TidV) + " out of range";
  return false;
}

bool EventsFrameDecoder::badTarget(Op Kind, uint64_t TargetV) {
  if (Kind == Op::Fork || Kind == Op::Join)
    return badThread(TargetV);
  const char *What = Kind == Op::Begin                       ? "label"
                     : Kind == Op::Read || Kind == Op::Write ? "variable"
                                                             : "lock";
  Err = std::string("undefined ") + What + " id " + std::to_string(TargetV);
  return false;
}

} // namespace binfmt
} // namespace velo
