//===- events/BinaryWriter.h - VELOTRC emission -----------------*- C++ -*-===//
//
// Streaming writer for the VELOTRC binary trace container
// (events/BinaryFormat.h). Events are buffered into fixed-size frames and
// encoded by the format's one encoder (binfmt::appendEventsPayload, which
// the serve wire also runs): each frame's symbol blocks carry exactly the
// names its events are the first to reference, in first-use interning
// order, so a writer fed the same event stream always produces the same
// bytes — that canonical form is what makes velodrome-convert's
// binary->text->binary round trip a byte-identical fixpoint.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_BINARYWRITER_H
#define VELO_EVENTS_BINARYWRITER_H

#include "events/Trace.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace velo {

/// Streams a VELOTRC container to Out. Usage:
///
///   BinaryTraceWriter W(Out, Syms);
///   for (const Event &E : Events) W.add(E);
///   if (!W.finish()) report(W.error());
///
/// The writer reads names out of Syms lazily at frame-flush time, so the
/// caller may keep interning as long as every id an added event carries
/// is defined in Syms by the time the frame flushes (trivially true when
/// events and names come from the same parse).
class BinaryTraceWriter {
public:
  static constexpr size_t DefaultFrameEvents = 4096;

  BinaryTraceWriter(std::ostream &Out, const SymbolTable &Syms,
                    size_t FrameEvents = DefaultFrameEvents);

  /// Buffer one event, flushing a frame when full.
  void add(const Event &E);

  /// Flush the final frame, then write the index frame and trailer.
  /// Returns false on I/O failure or when a frame payload exceeds
  /// binfmt::MaxFramePayload (also via failed()/error()).
  bool finish();

  bool failed() const { return Failed; }
  const std::string &error() const { return Error; }

  /// Events accepted so far.
  uint64_t eventCount() const { return TotalEvents; }

private:
  void flushFrame();
  void writeFrame(uint8_t Kind, const std::string &Payload);

  std::ostream &Out;
  const SymbolTable &Syms;
  size_t FrameEvents;

  std::vector<Event> Pending;
  /// Names already emitted per kind (a prefix of Syms' interning order).
  size_t VarsDone = 0, LocksDone = 0, LabelsDone = 0;

  struct IndexEntry {
    uint64_t Offset;       ///< file offset of the frame header
    uint64_t FirstOrdinal; ///< 0-based ordinal of the frame's first event
    uint64_t Count;
  };
  std::vector<IndexEntry> Index;
  uint64_t BytesWritten = 0; ///< file offset of the next frame
  uint64_t TotalEvents = 0;
  bool Finished = false;
  bool Failed = false;
  std::string Error;
};

/// Write a whole in-memory trace as a VELOTRC file. Returns false with
/// ErrorOut set on failure.
bool writeBinaryTraceFile(const Trace &T, const std::string &Path,
                          std::string &ErrorOut);

/// Render a whole in-memory trace as VELOTRC bytes (tests, fuzzing).
std::string printBinaryTrace(const Trace &T,
                             size_t FrameEvents =
                                 BinaryTraceWriter::DefaultFrameEvents);

} // namespace velo

#endif // VELO_EVENTS_BINARYWRITER_H
