//===- events/TraceStream.cpp - Incremental trace reading -----------------===//

#include "events/TraceStream.h"

#include "events/TraceText.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

namespace velo {

uint64_t maxTraceSymbols() {
  constexpr uint64_t Default = MaxTraceSymbols;
  const char *Env = std::getenv("VELO_MAX_SYMBOLS");
  if (!Env || !*Env)
    return Default;
  uint64_t V = 0;
  for (const char *P = Env; *P; ++P) {
    if (*P < '0' || *P > '9')
      return Default;
    V = V * 10 + static_cast<uint64_t>(*P - '0');
    if (V > Default)
      return Default; // the hook only lowers the cap
  }
  return V == 0 ? Default : V;
}

bool internSymbolCapped(StringInterner &I, std::string_view Name, uint64_t Cap,
                        uint32_t &IdOut) {
  if (I.lookup(Name, IdOut))
    return true;
  if (I.size() >= Cap)
    return false;
  IdOut = I.intern(Name);
  return true;
}

namespace {

/// The read() block, and the size it starts at: large enough that a
/// syscall is amortized over a thousand-odd lines, small enough to keep
/// the reader's footprint flat.
constexpr size_t BlockBytes = size_t{64} * 1024;

/// std::isspace in the C locale (space, \t, \n, \v, \f, \r), so a CRLF
/// line's '\r' is plain token whitespace.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

/// Parse "T<digits>" into a thread id. Rejects non-digits and ids at or
/// above MaxTraceThreads (see events/Event.h).
bool parseTid(std::string_view Token, Tid &Out) {
  if (Token.size() < 2 || Token[0] != 'T')
    return false;
  uint64_t V = 0;
  for (size_t I = 1; I < Token.size(); ++I) {
    char C = Token[I];
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
    if (V >= MaxTraceThreads)
      return false;
  }
  Out = static_cast<Tid>(V);
  return true;
}

/// Split Line, up to a '#' (a comment runs to the end of the line), into
/// at most four whitespace-separated tokens (the fourth is only captured to
/// report it as trailing garbage). Returns the token count.
size_t splitTokens(std::string_view Line, std::string_view Toks[4]) {
  const char *P = Line.data(), *End = P + Line.size();
  size_t N = 0;
  while (N < 4) {
    while (P != End && isSpace(*P))
      ++P;
    if (P == End || *P == '#')
      break;
    const char *Start = P;
    while (P != End && !isSpace(*P) && *P != '#')
      ++P;
    Toks[N++] = std::string_view(Start, static_cast<size_t>(P - Start));
  }
  return N;
}

/// Decode the escaped symbol token Tok (TraceText escaping rule). Only a
/// token holding a backslash or a raw control byte needs unescapeSymbol,
/// which decodes it into Scratch or gives the diagnostic; any other token
/// is its own name and is not copied.
bool decodeName(std::string_view Tok, std::string &Scratch,
                std::string_view &Name, std::string &ErrorOut) {
  bool Plain = std::none_of(Tok.begin(), Tok.end(), [](char C) {
    auto B = static_cast<unsigned char>(C);
    return C == '\\' || B < 0x20 || B == 0x7f;
  });
  if (Plain) {
    Name = Tok;
    return true;
  }
  if (!unescapeSymbol(Tok, Scratch, ErrorOut))
    return false;
  Name = Scratch;
  return true;
}

/// The line grammar behind parseTraceLine and TraceStream::next. Names are
/// interned under Cap; Scratch holds unescaped names.
LineParse parseLine(std::string_view Line, SymbolTable &Syms, uint64_t Cap,
                    std::string &Scratch, Event &Ev, std::string &ErrorOut) {
  std::string_view Toks[4];
  size_t N = splitTokens(Line, Toks);
  if (N == 0)
    return LineParse::Blank;
  auto Fail = [&](const std::string &Msg) {
    ErrorOut = Msg;
    return LineParse::Error;
  };
  if (N == 4)
    return Fail("trailing token '" + std::string(Toks[3]) + "'");

  Tid T;
  if (!parseTid(Toks[0], T))
    return Fail("expected thread id 'T<n>', got '" + std::string(Toks[0]) +
                "'");
  if (N < 2)
    return Fail("missing operation");
  std::string_view OpTok = Toks[1];
  bool HasArg = N == 3;
  std::string_view Arg = Toks[2];

  // Decode the escaped symbol argument (TraceText escaping rule) and
  // intern it under the per-kind count cap.
  auto InternArg = [&](StringInterner &Table, const char *What,
                       uint32_t &IdOut) {
    std::string_view Name;
    if (!decodeName(Arg, Scratch, Name, ErrorOut))
      return false;
    if (!internSymbolCapped(Table, Name, Cap, IdOut)) {
      ErrorOut = std::string("too many distinct ") + What + " names (cap " +
                 std::to_string(Cap) + ")";
      return false;
    }
    return true;
  };

  if (OpTok == "rd" || OpTok == "wr") {
    if (!HasArg)
      return Fail("missing variable name");
    VarId X;
    if (!InternArg(Syms.Vars, "variable", X))
      return LineParse::Error;
    Ev = OpTok == "rd" ? Event::read(T, X) : Event::write(T, X);
  } else if (OpTok == "acq" || OpTok == "rel") {
    if (!HasArg)
      return Fail("missing lock name");
    LockId M;
    if (!InternArg(Syms.Locks, "lock", M))
      return LineParse::Error;
    Ev = OpTok == "acq" ? Event::acquire(T, M) : Event::release(T, M);
  } else if (OpTok == "begin") {
    if (!HasArg)
      return Fail("missing label");
    Label L;
    if (!InternArg(Syms.Labels, "label", L))
      return LineParse::Error;
    Ev = Event::begin(T, L);
  } else if (OpTok == "end") {
    if (HasArg)
      return Fail("'end' takes no argument");
    Ev = Event::end(T);
  } else if (OpTok == "fork" || OpTok == "join") {
    Tid Child;
    if (!HasArg || !parseTid(Arg, Child))
      return Fail("expected child thread id");
    Ev = OpTok == "fork" ? Event::fork(T, Child) : Event::join(T, Child);
  } else {
    return Fail("unknown operation '" + std::string(OpTok) + "'");
  }
  return LineParse::Event;
}

} // namespace

LineParse parseTraceLine(std::string_view Line, SymbolTable &Syms, Event &Ev,
                         std::string &ErrorOut) {
  std::string Scratch;
  return parseLine(Line, Syms, maxTraceSymbols(), Scratch, Ev, ErrorOut);
}

TraceStream::TraceStream(std::string_view Text, SymbolTable &Syms)
    : Syms(Syms), MaxSymbols(maxTraceSymbols()), Data(Text.data()),
      End(Text.size()), AtEof(true) {}

TraceStream::TraceStream(int Fd, std::string Path, SymbolTable &Syms)
    : Syms(Syms), MaxSymbols(maxTraceSymbols()), Fd(Fd),
      Path(std::move(Path)), Block(BlockBytes), Data(Block.data()) {
  // tell() and seek() speak the descriptor's offsets; a pipe has none.
  off_t Start = ::lseek(Fd, 0, SEEK_CUR);
  BlockOffset = Start > 0 ? static_cast<uint64_t>(Start) : 0;
}

bool TraceStream::refill() {
  if (Pos != 0) {
    std::memmove(Block.data(), Block.data() + Pos, End - Pos);
    BlockOffset += Pos;
    End -= Pos;
    Scanned -= Pos;
    Pos = 0;
  }
  if (End == Block.size()) {
    Block.resize(Block.size() * 2); // a line longer than the block
    Data = Block.data();
  }
  for (;;) {
    ssize_t N = ::read(Fd, Block.data() + End, Block.size() - End);
    if (N > 0) {
      End += static_cast<size_t>(N);
      return true;
    }
    if (N == 0) {
      AtEof = true;
      return true;
    }
    if (errno == EINTR)
      continue;
    Failed = ReadFailed = true;
    Error = "read error on " + Path + ": " + std::strerror(errno);
    return false;
  }
}

bool TraceStream::nextLine(std::string_view &Line) {
  for (;;) {
    const void *Newline =
        End > Scanned ? std::memchr(Data + Scanned, '\n', End - Scanned)
                      : nullptr;
    if (Newline) {
      size_t Stop = static_cast<size_t>(static_cast<const char *>(Newline) -
                                        Data);
      Line = std::string_view(Data + Pos, Stop - Pos);
      Pos = Scanned = Stop + 1;
      return true;
    }
    Scanned = End;
    if (AtEof) {
      // A last line without a newline still counts as a line.
      MetEnd = true;
      if (Pos == End)
        return false;
      Line = std::string_view(Data + Pos, End - Pos);
      Pos = End;
      return true;
    }
    if (!refill())
      return false;
  }
}

bool TraceStream::next(Event &Out) {
  if (Failed)
    return false;
  std::string_view Line;
  while (nextLine(Line)) {
    ++LineNo;
    std::string Msg;
    switch (parseLine(Line, Syms, MaxSymbols, Unescaped, Out, Msg)) {
    case LineParse::Event:
      ++NumEvents;
      return true;
    case LineParse::Blank:
      continue;
    case LineParse::Error:
      Failed = true;
      Error = "line " + std::to_string(LineNo) + ": " + Msg;
      return false;
    }
  }
  return false;
}

std::string_view TraceStream::peek(size_t N) {
  while (End - Pos < N && !AtEof && !Failed && refill()) {
  }
  return std::string_view(Data + Pos, std::min(N, End - Pos));
}

bool TraceStream::tell(uint64_t &PosOut) const {
  if (MetEnd)
    return false;
  PosOut = BlockOffset + Pos;
  return true;
}

bool TraceStream::seek(uint64_t Offset, size_t Line, uint64_t Events) {
  if (Fd < 0 || Offset > static_cast<uint64_t>(INT64_MAX) ||
      ::lseek(Fd, static_cast<off_t>(Offset), SEEK_SET) < 0)
    return false;
  BlockOffset = Offset;
  Pos = Scanned = End = 0;
  AtEof = MetEnd = false;
  LineNo = Line;
  NumEvents = Events;
  return true;
}

} // namespace velo
