//===- events/TraceText.h - Trace text serialization ------------*- C++ -*-===//
//
// Line-oriented text format for traces, used to record runtime executions to
// disk and replay them into analysis back-ends offline (the Table 2 harness
// records each (workload, seed) trace once and feeds the identical trace to
// both the Atomizer and Velodrome, exactly as RoadRunner feeds one event
// stream to every back-end).
//
// Grammar (one event per line, '#' starts a comment):
//
//   T<tid> rd <var>        T<tid> acq <lock>      T<tid> begin <label>
//   T<tid> wr <var>        T<tid> rel <lock>      T<tid> end
//   T<tid> fork T<tid>     T<tid> join T<tid>
//
// Symbol names (<var>, <lock>, <label>) are escaped so that any byte
// string round-trips through the renderer and parser: bytes that would
// collide with the line structure — whitespace, control characters,
// '\' and '#' — are written as \xHH, and the empty name is written as
// the two-character token \e. See docs/INGESTION.md for the full rule.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_TRACETEXT_H
#define VELO_EVENTS_TRACETEXT_H

#include "events/Trace.h"

#include <string>

namespace velo {

/// Escape a symbol name for the text format: '\', '#', and bytes <= 0x20
/// or == 0x7f become \xHH; the empty name becomes \e. Everything else
/// (including bytes >= 0x80) passes through verbatim.
std::string escapeSymbol(std::string_view Name);

/// Decode an escaped symbol token. Rejects raw control characters, bad
/// escapes, and a stray \e inside a longer token; on failure returns
/// false with ErrorOut set (no position prefix).
bool unescapeSymbol(std::string_view Token, std::string &NameOut,
                    std::string &ErrorOut);

/// Render one event as a text-format line (no trailing newline).
std::string renderEvent(const Event &E, const SymbolTable &Syms);

/// Render a trace in the text format above.
std::string printTrace(const Trace &T);

/// Parse the text format. On success returns true and fills Out; on failure
/// returns false and sets ErrorOut to "line N: message".
bool parseTrace(const std::string &Text, Trace &Out, std::string &ErrorOut);

/// Write a trace to a file. Returns false on I/O failure.
bool writeTraceFile(const Trace &T, const std::string &Path);

/// On-disk trace encodings. Readers sniff the VELOTRC magic, so any tool
/// accepts either format; writers choose by file extension (".vtrc" =
/// binary, anything else = text).
enum class TraceFormat { Text, Binary };

/// Format a write to Path should use (by extension).
TraceFormat traceFormatForWrite(const std::string &Path);

/// Why a trace file could not be read. Tools map NotFound/IoError to "check
/// the path/permissions" diagnostics and ParseError to "fix the trace".
enum class TraceReadStatus {
  Ok,
  NotFound,   ///< the file does not exist
  IoError,    ///< open/read failed for another reason (permissions, ...)
  ParseError, ///< the file was read but a line is malformed
};

/// What a salvage open of a VELOTRC container recovered (see
/// BinaryTraceReader::open). Used stays false when the container
/// was complete and no recovery was needed.
struct SalvageSummary {
  bool Used = false;         ///< prefix recovery actually engaged
  uint64_t FramesKept = 0;   ///< intact events frames accepted
  uint64_t EventsKept = 0;   ///< events in the accepted prefix
  uint64_t BytesDropped = 0; ///< bytes discarded after the prefix
};

/// Options for openTraceSource.
struct TraceOpenOptions {
  /// Binary containers: accept the longest intact frame prefix of a
  /// truncated file instead of rejecting it (velodrome-check --salvage).
  /// Text input cannot be salvaged, and the open is refused.
  bool Salvage = false;
  /// When non-null and the source is binary, receives the recovery
  /// outcome after a salvage open.
  SalvageSummary *SalvageOut = nullptr;
};

/// Read a whole trace, text or VELOTRC, through openTraceSource
/// (events/TraceSource.h) with Opts. On failure, ErrorOut carries the
/// failing path and strerror(errno) for I/O problems, or "<path>:N:
/// message" for parse problems.
TraceReadStatus readTraceFileStatus(const std::string &Path, Trace &Out,
                                    std::string &ErrorOut,
                                    const TraceOpenOptions &Opts = {});

/// Read a trace from a file. Returns false and sets ErrorOut on failure.
inline bool readTraceFile(const std::string &Path, Trace &Out,
                          std::string &ErrorOut) {
  return readTraceFileStatus(Path, Out, ErrorOut) == TraceReadStatus::Ok;
}

} // namespace velo

#endif // VELO_EVENTS_TRACETEXT_H
