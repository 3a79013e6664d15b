//===- events/BinaryWriter.cpp - VELOTRC emission -------------------------===//

#include "events/BinaryWriter.h"

#include "events/BinaryFormat.h"
#include "support/ParseInt.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace velo {

using namespace binfmt;

/// Writer-side frame payload cap. Normally binfmt::MaxFramePayload (the
/// wire-format limit the reader enforces); the VELO_MAX_FRAME_PAYLOAD
/// environment variable can tighten it so tests can exercise the
/// oversized-frame error path without gigabyte allocations. It can only
/// tighten: the reader's limit is part of the format, not configurable.
static uint64_t maxWriterFramePayload() {
  const char *Env = std::getenv("VELO_MAX_FRAME_PAYLOAD");
  uint64_t V = 0;
  if (Env && parseU64(Env, V) && V > 0 && V < MaxFramePayload)
    return V;
  return MaxFramePayload;
}

BinaryTraceWriter::BinaryTraceWriter(std::ostream &Out,
                                     const SymbolTable &Syms,
                                     size_t FrameEvents)
    : Out(Out), Syms(Syms), FrameEvents(FrameEvents == 0 ? 1 : FrameEvents) {
  std::string Header(Magic, sizeof(Magic));
  appendU32le(Header, Version);
  appendU32le(Header, 0); // reserved
  Out.write(Header.data(), static_cast<std::streamsize>(Header.size()));
  BytesWritten = Header.size();
}

void BinaryTraceWriter::add(const Event &E) {
  Pending.push_back(E);
  ++TotalEvents;
  if (Pending.size() >= FrameEvents)
    flushFrame();
}

void BinaryTraceWriter::writeFrame(uint8_t Kind, const std::string &Payload) {
  if (Failed)
    return;
  // A payload over the cap cannot be represented: the u32 length field
  // would truncate past 4 GiB and the reader rejects anything over
  // MaxFramePayload. Fail the writer instead of emitting an unreadable
  // container that finish() would then report as success.
  if (Payload.size() > maxWriterFramePayload()) {
    Failed = true;
    Error = "frame payload of " + std::to_string(Payload.size()) +
            " bytes exceeds the format limit of " +
            std::to_string(maxWriterFramePayload()) + " bytes";
    return;
  }
  std::string Header;
  Header += static_cast<char>(Kind);
  appendU32le(Header, static_cast<uint32_t>(Payload.size()));
  appendU64le(Header, fnv1a64(Payload));
  Out.write(Header.data(), static_cast<std::streamsize>(Header.size()));
  Out.write(Payload.data(), static_cast<std::streamsize>(Payload.size()));
  BytesWritten += Header.size() + Payload.size();
}

void BinaryTraceWriter::flushFrame() {
  if (Pending.empty())
    return;

  // A frame's symbol blocks define every id its events reference that no
  // earlier frame has defined. Ids are dense in first-use order (the
  // interners guarantee it), so each block is the contiguous range from
  // the high-water mark to the largest id this frame touches.
  size_t VarsNeed = VarsDone, LocksNeed = LocksDone, LabelsNeed = LabelsDone;
  for (const Event &E : Pending) {
    switch (E.Kind) {
    case Op::Read:
    case Op::Write:
      if (E.var() >= VarsNeed)
        VarsNeed = E.var() + 1;
      break;
    case Op::Acquire:
    case Op::Release:
      if (E.lock() >= LocksNeed)
        LocksNeed = E.lock() + 1;
      break;
    case Op::Begin:
      if (E.label() != NoLabel && E.label() >= LabelsNeed)
        LabelsNeed = E.label() + 1;
      break;
    case Op::End:
    case Op::Fork:
    case Op::Join:
      break;
    }
  }

  std::string Payload;
  auto EmitBlock = [&](const StringInterner &Table, size_t &Done,
                       size_t Need) {
    appendVarint(Payload, Done);
    appendVarint(Payload, Need - Done);
    for (size_t I = Done; I < Need; ++I) {
      const std::string &Name = Table.name(static_cast<uint32_t>(I));
      appendVarint(Payload, Name.size());
      Payload += Name;
    }
    Done = Need;
  };
  EmitBlock(Syms.Vars, VarsDone, VarsNeed);
  EmitBlock(Syms.Locks, LocksDone, LocksNeed);
  EmitBlock(Syms.Labels, LabelsDone, LabelsNeed);

  appendVarint(Payload, Pending.size());
  for (const Event &E : Pending) {
    Payload += static_cast<char>(static_cast<uint8_t>(E.Kind));
    appendVarint(Payload, E.Thread);
    if (E.Kind != Op::End)
      appendVarint(Payload, E.Target);
  }

  Index.push_back({BytesWritten, TotalEvents - Pending.size(),
                   Pending.size()});
  writeFrame(EventsFrame, Payload);
  Pending.clear();
}

bool BinaryTraceWriter::finish() {
  if (Finished)
    return !Failed;
  Finished = true;
  flushFrame();
  if (Failed)
    return false;

  std::string Payload;
  appendVarint(Payload, Index.size());
  for (const IndexEntry &IE : Index) {
    appendVarint(Payload, IE.Offset);
    appendVarint(Payload, IE.FirstOrdinal);
    appendVarint(Payload, IE.Count);
  }
  appendVarint(Payload, TotalEvents);
  const uint64_t IndexOffset = BytesWritten;
  writeFrame(IndexFrame, Payload);
  if (Failed)
    return false;

  std::string Trailer;
  appendU64le(Trailer, IndexOffset);
  Trailer.append(TrailerMagic, sizeof(TrailerMagic));
  Out.write(Trailer.data(), static_cast<std::streamsize>(Trailer.size()));
  BytesWritten += Trailer.size();

  Out.flush();
  if (!Out) {
    Failed = true;
    Error = "write error";
  }
  return !Failed;
}

bool writeBinaryTraceFile(const Trace &T, const std::string &Path,
                          std::string &ErrorOut) {
  errno = 0;
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    int Err = errno;
    ErrorOut = "cannot open " + Path + ": " +
               (Err != 0 ? std::strerror(Err) : "open failed");
    return false;
  }
  BinaryTraceWriter W(Out, T.symbols());
  for (const Event &E : T)
    W.add(E);
  if (!W.finish() || !Out) {
    ErrorOut = W.failed() && !W.error().empty()
                   ? Path + ": " + W.error()
                   : "write error on " + Path;
    return false;
  }
  return true;
}

std::string printBinaryTrace(const Trace &T, size_t FrameEvents) {
  std::ostringstream Out;
  BinaryTraceWriter W(Out, T.symbols(), FrameEvents);
  for (const Event &E : T)
    W.add(E);
  W.finish();
  return Out.str();
}

} // namespace velo
