//===- events/TraceStream.h - Incremental trace reading ---------*- C++ -*-===//
//
// The one reader of the trace text format. parseTrace runs it over an
// in-memory string; openTraceSource (events/TraceSource.h) runs it over a
// file, pipe or stdin. Either way events come out one line at a time, so
// the offline tools can feed a backend a multi-gigabyte trace dump in
// constant memory (the whole-file Trace object is only materialized when
// something genuinely needs random access, e.g. the serializability
// oracle behind --witness).
//
// The scanner reads each line once, a 16-byte window at a time. One SSE2
// compare (a plain loop on other targets) turns a window into three bit
// masks: token whitespace, line stops ('\n' and '#'), and the bytes that
// make a name need unescapeSymbol (a backslash, a control byte, 0x7f).
// Token starts and ends, the newline, and whether the name token holds
// such a byte all come from those masks, in one pass over the line; only
// the rest of a '#' comment is skipped unread, with memchr. The op
// is matched by its length and one 4-byte word, and the name resolved
// through the interner's flat index without copying it; a name is copied
// only to undo an escape. A file descriptor is read through one 64 KiB
// block, refilled only when the scan reaches the end of the bytes read so
// far (a window never waits for bytes a line does not need) and grown only
// to hold a line longer than itself. parseTraceLine runs the same scanner
// over one line.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_TRACESTREAM_H
#define VELO_EVENTS_TRACESTREAM_H

#include "events/Trace.h"

#include <string>
#include <string_view>
#include <vector>

namespace velo {

/// Default cap on distinct names per symbol kind (variables, locks,
/// labels); symbol ids are therefore below it.
inline constexpr uint64_t MaxTraceSymbols = 1 << 20;

/// Cap on distinct names per symbol kind: MaxTraceSymbols, or lower. A
/// hostile trace of nothing but fresh names would otherwise exhaust the
/// symbol table before the Governor sees a single event; the same cap
/// guards the binary reader's symbol blocks. The VELO_MAX_SYMBOLS
/// environment variable lowers it (test hook; see docs/INGESTION.md).
uint64_t maxTraceSymbols();

/// Intern Name into I, enforcing Cap on *new* names only (already-interned
/// names always resolve). Returns false when the table is full; callers
/// turn that into a parse error.
bool internSymbolCapped(StringInterner &I, std::string_view Name, uint64_t Cap,
                        uint32_t &IdOut);

/// Outcome of parsing a single line of trace text.
enum class LineParse {
  Event, ///< a well-formed event line; Ev is filled
  Blank, ///< blank line or comment; nothing to do
  Error, ///< malformed; ErrorOut holds the message (no line prefix)
};

/// Parse one line (without its newline) of the text format into Ev,
/// interning names into Syms. The message in ErrorOut carries no "line N:"
/// prefix — callers know the position. This is TraceStream's scanner run
/// over Line alone.
LineParse parseTraceLine(std::string_view Line, SymbolTable &Syms, Event &Ev,
                         std::string &ErrorOut);

/// Incremental reader over the trace text format. Usage:
///
///   TraceStream TS(Text, Syms);
///   Event E;
///   while (TS.next(E)) consume(E);
///   if (TS.failed()) report(TS.error());
///
class TraceStream {
public:
  /// Scan Text in place; Text must outlive the stream.
  TraceStream(std::string_view Text, SymbolTable &Syms);

  /// Scan the open descriptor Fd (borrowed: the caller closes it) from its
  /// current offset. Path names the input in a read error.
  TraceStream(int Fd, std::string Path, SymbolTable &Syms);

  TraceStream(const TraceStream &) = delete;
  TraceStream &operator=(const TraceStream &) = delete;

  /// Advance to the next event. Returns false at end of input, on the
  /// first malformed line, or when read() fails (distinguish via failed()
  /// and readFailed()).
  bool next(Event &Out);

  /// Did the stream stop on a malformed line or a failed read (rather than
  /// clean EOF)?
  bool failed() const { return Failed; }

  /// Did it stop because read() failed? error() then holds
  /// "read error on <path>: <strerror>" instead of a line diagnostic.
  bool readFailed() const { return ReadFailed; }

  /// "line N: message" for the malformed line; empty unless failed().
  const std::string &error() const { return Error; }

  /// 1-based line number of the most recently returned event (or of the
  /// malformed line after a failure). 0 before the first line is read.
  size_t lineNo() const { return LineNo; }

  /// Events returned so far.
  uint64_t eventCount() const { return NumEvents; }

  /// Up to N leading bytes of the input, read ahead without consuming
  /// them (fewer when the input is shorter). Call before the first next();
  /// a failed read leaves the stream failed().
  std::string_view peek(size_t N);

  /// Offset just past the last line consumed: where a resumed run picks
  /// up. False once the scanner has met the end of the input — after a
  /// last line with no newline, or after next() ran out of lines — since
  /// the run is finishing there anyway. Checkpoint cadence depends on
  /// exactly this rule.
  bool tell(uint64_t &PosOut) const;

  /// Continue from Offset (a value tell() produced, recorded in a
  /// checkpoint) of a seekable descriptor, with the counters at that line
  /// boundary: Line is the 1-based number of the last line already
  /// consumed, Events the events returned up to it. False when the input
  /// cannot seek (a pipe, or a stream over a string).
  bool seek(uint64_t Offset, size_t Line, uint64_t Events);

private:
  friend LineParse parseTraceLine(std::string_view, SymbolTable &, Event &,
                                  std::string &);

  /// The tokens of one line, in place in the input: the first four (a
  /// fourth only to report it as trailing).
  struct Tokens {
    std::string_view Tok[4];
    size_t N = 0;
    bool ArgEscaped = false; ///< Tok[2] needs unescapeSymbol
  };

  /// Scan the next line into T and consume it with its newline. False at
  /// end of input or when a read fails.
  bool scanLine(Tokens &T);
  /// From Off bytes into the current line, move Off to the line's newline
  /// (reading more as needed), or to the end of the input. False when a
  /// read fails.
  bool findNewline(size_t &Off);
  /// Apply the line grammar to a scanned line.
  LineParse parseTokens(const Tokens &T, Event &Ev, std::string &ErrorOut);
  /// Read more of the descriptor behind the unconsumed bytes, first moving
  /// them to the front of the block (and doubling the block when they
  /// fill it). False when read() fails.
  bool refill();

  SymbolTable &Syms;
  const uint64_t MaxSymbols; ///< maxTraceSymbols(), read once per reader
  const int Fd = -1;         ///< -1: scanning an in-memory string
  const std::string Path;
  std::vector<char> Block; ///< read() buffer (descriptor input only)
  const char *Data;        ///< the string, or Block.data()
  size_t Pos = 0;          ///< first unconsumed byte of Data
  size_t End = 0;          ///< bytes of Data filled
  uint64_t BlockOffset = 0; ///< input offset of Data[0]
  bool AtEof = false;      ///< read() has returned 0
  bool MetEnd = false;     ///< a line read ran into the end of the input
  std::string Unescaped;   ///< scratch for names with a backslash escape
  std::string Error;
  size_t LineNo = 0;
  uint64_t NumEvents = 0;
  bool Failed = false;
  bool ReadFailed = false;
};

} // namespace velo

#endif // VELO_EVENTS_TRACESTREAM_H
