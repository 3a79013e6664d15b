//===- events/BinaryReader.h - VELOTRC ingestion ----------------*- C++ -*-===//
//
// Zero-copy reader for the VELOTRC binary trace container: the file is
// mmap'd once and events are decoded straight out of the mapping — no
// line buffer, no tokenizing, no per-event allocation. Implements
// TraceSource, so the sequential checker loop and the parallel pipeline
// ingest binary traces through the same code they use for text.
//
// Frames are checked and decoded by the one VELOTRC codec
// (events/BinaryFormat.h), the same code the serve wire runs. A frame's
// symbol blocks are interned straight into the reader's SymbolTable, whose
// ids are therefore the file's ids: the table must hold exactly the names
// of the frames before the next one (empty at the start, or restored from
// a snapshot cut before a seekTo()). The salvage pre-scan decodes every
// kept frame into a scratch table, so streaming a salvaged prefix runs the
// same code on the same bytes and cannot fail.
//
// The reader is paranoid by construction: every offset, length, count,
// id, and checksum is validated before use, so a truncated, bit-flipped,
// or deliberately hostile file yields a clean ParseError ("line N:
// message", N = 1-based event ordinal) — never a crash or an oversized
// allocation. velodrome-fuzz hammers exactly this property.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_BINARYREADER_H
#define VELO_EVENTS_BINARYREADER_H

#include "events/BinaryFormat.h"
#include "events/TraceSource.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace velo {

class BinaryTraceReader : public TraceSource {
public:
  explicit BinaryTraceReader(SymbolTable &Syms) : Syms(Syms) {}
  ~BinaryTraceReader() override;

  BinaryTraceReader(const BinaryTraceReader &) = delete;
  BinaryTraceReader &operator=(const BinaryTraceReader &) = delete;

  /// mmap the container open on Fd (borrowed: the mapping outlives the
  /// descriptor, which the caller closes) and validate its frame
  /// structure; Path names it in diagnostics. Fd must be a regular file.
  /// Returns IoError with ErrorOut set when it is not one or cannot be
  /// mapped; ParseError when the container is malformed (the reader is
  /// then in the failed() state with the same message, so callers may
  /// also just stream it through their normal parse-error path); Ok
  /// otherwise.
  ///
  /// With Salvage set, a complete container is accepted as-is, and a
  /// truncated or tail-corrupted one (crashed tracer, torn final write)
  /// degrades to the longest prefix of intact events frames — each frame
  /// checksummed *and* decoded in full, so a successful salvage never
  /// fails mid-stream. ParseError only when not even one frame survives.
  /// salvage() describes what was recovered.
  TraceReadStatus open(int Fd, const std::string &Path, bool Salvage,
                       std::string &ErrorOut);

  /// Validate an in-memory container (tests, fuzzing). Data must outlive
  /// the reader. Returns false when malformed (failed() has the message).
  bool openBuffer(std::string_view Data);

  /// Salvage-mode openBuffer (tests, fuzzing); see open().
  bool openBufferSalvage(std::string_view Data);

  /// Recovery outcome of the last salvage open.
  const SalvageSummary &salvage() const { return Salvaged; }

  // TraceSource:
  bool next(Event &Out) override;
  bool failed() const override { return Failed; }
  bool readFailed() const override { return false; } // mmap'd: no read()
  const std::string &error() const override { return Error; }
  uint64_t lineNo() const override { return Ordinal; }
  uint64_t eventCount() const override { return NumEvents; }
  bool tell(uint64_t &PosOut) override;
  bool endOfFrame() const override;
  bool seekTo(uint64_t Pos, uint64_t Line, uint64_t Events,
              std::string &ErrorOut) override;

  /// Total events the index declares (after a successful open).
  uint64_t totalEvents() const { return TotalEvents; }

private:
  /// Record a malformed-container failure at the next event position.
  bool fail(const std::string &Msg);
  /// Magic, version and reserved bits of the 16-byte header.
  bool checkHeader();
  bool validateContainer();
  bool salvageContainer();
  /// Salvage's pre-scan of the events frame at Off: the frame check, then
  /// a whole decode into Scratch. Sets Len (payload bytes) and Count.
  bool decodesWhole(uint64_t Off, SymbolTable &Scratch, uint64_t &Len,
                    uint64_t &Count);
  bool loadNextFrame();

  SymbolTable &Syms;

  // Mapping ownership (null when reading a borrowed buffer).
  void *MapAddr = nullptr;
  size_t MapLen = 0;

  const uint8_t *Data = nullptr;
  size_t Size = 0;

  std::vector<binfmt::IndexEntry> Frames;
  uint64_t IdxOff = 0;
  uint64_t TotalEvents = 0;
  SalvageSummary Salvaged;

  /// Next frame to load; the current frame (if any) is FrameIdx - 1.
  size_t FrameIdx = 0;
  /// Decode cursor into the current frame's payload.
  binfmt::EventsFrameDecoder Dec;

  uint64_t Ordinal = 0;   ///< lineNo(): ordinal of the last event returned
  uint64_t NumEvents = 0; ///< eventCount()
  bool Failed = false;
  std::string Error;
};

} // namespace velo

#endif // VELO_EVENTS_BINARYREADER_H
