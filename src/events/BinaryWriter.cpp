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
  std::string Frame;
  Frame.reserve(FrameHeaderSize + Payload.size());
  appendFrame(Frame, Kind, Payload);
  Out.write(Frame.data(), static_cast<std::streamsize>(Frame.size()));
  BytesWritten += Frame.size();
}

void BinaryTraceWriter::flushFrame() {
  if (Pending.empty())
    return;
  std::string Payload;
  appendEventsPayload(Payload, Pending, Syms, VarsDone, LocksDone,
                      LabelsDone);
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
