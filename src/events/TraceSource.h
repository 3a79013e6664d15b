//===- events/TraceSource.h - Format-independent event streams --*- C++ -*-===//
//
// One streaming-reader interface over both trace encodings, so the
// sequential checker loop and the parallel pipeline ingest text and
// VELOTRC binary traces through identical code paths. openTraceSource
// opens the input once, sniffs the VELOTRC magic from its first bytes and
// returns either a BinaryTraceReader (events/BinaryReader.h) over an mmap
// of the file or a text source: TraceStream's block scanner over the same
// descriptor, which also serves pipes and stdin.
//
// Error contract: error() is "line N: message" for malformed input, so
// tools can keep rendering "<path>:N: message" by skipping the first five
// characters (describeFailure does exactly that). For a binary source, N
// is the 1-based event ordinal (binary frames have no lines). A text
// source whose read() fails reports "read error on <path>: <strerror>"
// instead, with readFailed() set.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_TRACESOURCE_H
#define VELO_EVENTS_TRACESOURCE_H

#include "events/TraceStream.h"
#include "events/TraceText.h"

#include <memory>
#include <string>

namespace velo {

/// Streaming event source over one trace encoding. Mirrors TraceStream's
/// contract; see the class comment there for the usage idiom.
class TraceSource {
public:
  virtual ~TraceSource() = default;

  /// Advance to the next event. Returns false at end of input, on the
  /// first malformed record, or on a failed read (distinguish via
  /// failed() and readFailed()).
  virtual bool next(Event &Out) = 0;

  /// Did the stream stop on malformed input or a failed read (rather than
  /// clean EOF)?
  virtual bool failed() const = 0;

  /// Did it stop because read() failed? error() then is the complete
  /// "read error on <path>: <strerror>".
  virtual bool readFailed() const = 0;

  /// "line N: message"; empty unless failed().
  virtual const std::string &error() const = 0;

  /// Position of the most recent event for diagnostics: the 1-based text
  /// line, or the 1-based event ordinal for binary.
  virtual uint64_t lineNo() const = 0;

  /// Events returned so far (monotone; restored by seekTo).
  virtual uint64_t eventCount() const = 0;

  /// If the source currently sits on a position a checkpoint can resume
  /// from, set PosOut to it and return true. Text: the offset after the
  /// last line read, until the scanner meets the end of the input. Binary:
  /// only frame boundaries — callers defer the checkpoint until the frame
  /// ends.
  virtual bool tell(uint64_t &PosOut) = 0;

  /// True when the source just finished a storage frame — a natural batch
  /// boundary for the parallel pipeline. Text input has no frames (always
  /// false).
  virtual bool endOfFrame() const = 0;

  /// Seek to Pos (a value a previous tell() produced, persisted in a
  /// checkpoint) and restore the counters: Line is lineNo() at the
  /// checkpoint, Events the events delivered up to it. Returns false with
  /// ErrorOut set if the position is not a valid boundary in this file.
  virtual bool seekTo(uint64_t Pos, uint64_t Line, uint64_t Events,
                      std::string &ErrorOut) = 0;
};

/// What the tools print after "error: " for Src, opened on Path, once it
/// stopped with failed(): "<Path>:N: message" for a malformed record, or
/// the read error itself.
std::string describeFailure(const TraceSource &Src, const std::string &Path);

/// Open Path — a file, pipe, FIFO or /dev/stdin — as a trace source,
/// sniffing the VELOTRC magic from the same descriptor it then reads to
/// pick the encoding. Returns null with StatusOut/ErrorOut set (same
/// messages as readTraceFileStatus) when the input cannot be streamed:
/// NotFound/IoError when open or read fails, or when a VELOTRC container
/// is not a regular file (it must be mmap'd); ParseError when
/// Opts.Salvage asks to salvage a text trace. A malformed binary container
/// yields a non-null source that fails on the first next() — callers
/// handle it through their normal parse-error path. Symbols interned
/// while reading land in Syms.
std::unique_ptr<TraceSource> openTraceSource(const std::string &Path,
                                             SymbolTable &Syms,
                                             TraceReadStatus &StatusOut,
                                             std::string &ErrorOut);

/// As above, with open options (salvage mode for binary containers).
std::unique_ptr<TraceSource> openTraceSource(const std::string &Path,
                                             SymbolTable &Syms,
                                             TraceReadStatus &StatusOut,
                                             std::string &ErrorOut,
                                             const TraceOpenOptions &Opts);

} // namespace velo

#endif // VELO_EVENTS_TRACESOURCE_H
