//===- events/TraceStream.cpp - Incremental trace reading -----------------===//

#include "events/TraceStream.h"

#include "events/TraceText.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

/// The scan classifies a window of input bytes at a time into bit masks,
/// bit I for byte I.
constexpr size_t WindowBytes = 16;

struct WindowMasks {
  uint32_t Space;  ///< std::isspace in the C locale less '\n', so a CRLF
                   ///< line's '\r' is token whitespace
  uint32_t Stop;   ///< '\n', or '#' (a comment runs to the line's end)
  uint32_t Escape; ///< a backslash, a control byte or 0x7f: a name holding
                   ///< one needs unescapeSymbol
};

/// Classify the K (at most WindowBytes) bytes at P.
WindowMasks classify(const char *P, size_t K) {
  char Padded[WindowBytes] = {};
  if (K < WindowBytes)
    P = static_cast<const char *>(std::memcpy(Padded, P, K));
  WindowMasks M{0, 0, 0};
#if defined(__SSE2__)
  const __m128i V = _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
  const auto Is = [&](char C) { return _mm_cmpeq_epi8(V, _mm_set1_epi8(C)); };
  const auto AtMost = [](__m128i X, char Max) {
    return _mm_cmpeq_epi8(_mm_min_epu8(X, _mm_set1_epi8(Max)), X);
  };
  const auto Bits = [](__m128i X) {
    return static_cast<uint32_t>(_mm_movemask_epi8(X));
  };
  const __m128i Newline = Is('\n');
  // '\t' through '\r', newline included.
  const __m128i TabToCr =
      AtMost(_mm_sub_epi8(V, _mm_set1_epi8('\t')), '\r' - '\t');
  M.Space = Bits(_mm_or_si128(Is(' '), _mm_andnot_si128(Newline, TabToCr)));
  M.Stop = Bits(_mm_or_si128(Newline, Is('#')));
  M.Escape = Bits(_mm_or_si128(_mm_andnot_si128(TabToCr, AtMost(V, 0x1f)),
                               _mm_or_si128(Is('\\'), Is(0x7f))));
#else
  for (size_t I = 0; I < WindowBytes; ++I) {
    const auto B = static_cast<unsigned char>(P[I]);
    const bool Ws = B == ' ' || (B >= '\t' && B <= '\r' && B != '\n');
    M.Space |= uint32_t{Ws} << I;
    M.Stop |= uint32_t{B == '\n' || B == '#'} << I;
    M.Escape |= uint32_t{(B < 0x20 && !Ws && B != '\n') || B == '\\' ||
                         B == 0x7f}
                << I;
  }
#endif
  const uint32_t Valid = (uint32_t{1} << K) - 1;
  return {M.Space & Valid, M.Stop & Valid, M.Escape & Valid};
}

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

/// An op token of 2 to 5 bytes as one key: its length, its last byte, and
/// a word of its first four bytes (of its first two and its last when it
/// is shorter), each read without passing its end.
constexpr uint64_t opKey(std::string_view Tok) {
  const auto Byte = [&](size_t I) {
    return uint64_t{static_cast<unsigned char>(Tok[I])};
  };
  const size_t N = Tok.size();
  const uint64_t Word = N >= 4
                            ? Byte(0) | Byte(1) << 8 | Byte(2) << 16 |
                                  Byte(3) << 24
                            : Byte(0) | Byte(1) << 8 | Byte(N - 1) << 16;
  return uint64_t{N} << 40 | Byte(N - 1) << 32 | Word;
}

/// What an op means for its line: the event kind and, for an op that
/// names a symbol, the table the name goes to and the words of its
/// diagnostics.
struct OpRule {
  uint64_t Key = 0; ///< opKey of the op's name; 0 in an unused entry
  Op Kind = Op::End;
  StringInterner SymbolTable::*Names = nullptr; ///< null: no symbol
  const char *Missing = nullptr; ///< the diagnostic for a missing name
  const char *What = nullptr;    ///< the symbol kind in the cap diagnostic
};

/// An op's entry in OpRules, from its first two bytes: distinct for the
/// eight ops.
constexpr size_t opSlot(const char *P) {
  return (size_t{static_cast<unsigned char>(P[0])} +
          static_cast<unsigned char>(P[1])) &
         31;
}

constexpr std::array<OpRule, 32> OpRules = [] {
  std::array<OpRule, 32> R{};
  auto Add = [&](std::string_view Name, OpRule Rule) {
    Rule.Key = opKey(Name);
    if (R[opSlot(Name.data())].Key != 0)
      throw "two ops share a slot";
    R[opSlot(Name.data())] = Rule;
  };
  Add("rd", {0, Op::Read, &SymbolTable::Vars, "missing variable name",
             "variable"});
  Add("wr", {0, Op::Write, &SymbolTable::Vars, "missing variable name",
             "variable"});
  Add("acq", {0, Op::Acquire, &SymbolTable::Locks, "missing lock name",
              "lock"});
  Add("rel", {0, Op::Release, &SymbolTable::Locks, "missing lock name",
              "lock"});
  Add("begin", {0, Op::Begin, &SymbolTable::Labels, "missing label",
                "label"});
  Add("end", {0, Op::End});
  Add("fork", {0, Op::Fork});
  Add("join", {0, Op::Join});
  return R;
}();

/// The rule of an op token, matched by its length and one word compare;
/// null for anything else.
const OpRule *matchOp(std::string_view Tok) {
  if (Tok.size() < 2 || Tok.size() > 5)
    return nullptr;
  const OpRule &R = OpRules[opSlot(Tok.data())];
  return R.Key == opKey(Tok) ? &R : nullptr;
}

} // namespace

LineParse parseTraceLine(std::string_view Line, SymbolTable &Syms, Event &Ev,
                         std::string &ErrorOut) {
  TraceStream TS(Line, Syms);
  TraceStream::Tokens T;
  return TS.scanLine(T) ? TS.parseTokens(T, Ev, ErrorOut) : LineParse::Blank;
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

bool TraceStream::findNewline(size_t &Off) {
  for (;;) {
    const char *From = Data + Pos + Off;
    if (const void *Newline = std::memchr(From, '\n', End - Pos - Off)) {
      Off = static_cast<size_t>(static_cast<const char *>(Newline) -
                                (Data + Pos));
      return true;
    }
    Off = End - Pos;
    if (AtEof) {
      MetEnd = true;
      return true;
    }
    if (!refill())
      return false;
  }
}

bool TraceStream::scanLine(Tokens &T) {
  // Offsets from the line's first byte, since a refill moves the line to
  // the front of the block. Tokens past the fourth are counted, not kept.
  size_t Start[4] = {}, Len[4] = {};
  size_t Starts = 0, Ends = 0;
  bool ArgEscaped = false;
  uint32_t InToken = 0; // the last window ended inside a token
  size_t Off = 0;       // bytes of the line scanned
  for (;;) {
    const size_t Avail = End - Pos - Off;
    if (Avail == 0) {
      if (!AtEof) {
        if (!refill())
          return false;
        continue;
      }
      // The input ended first; a last line without a newline still counts.
      MetEnd = true;
      if (Off == 0)
        return false;
      if (InToken && Ends < 4)
        Len[Ends] = Off - Start[Ends];
      break;
    }
    // A window of the next 16 bytes, or of the bytes read so far.
    const size_t K = std::min(Avail, WindowBytes);
    const WindowMasks M = classify(Data + Pos + Off, K);
    const uint32_t StopBit = M.Stop & (~M.Stop + 1);
    const uint32_t Live = StopBit ? StopBit - 1 : (uint32_t{1} << K) - 1;
    const uint32_t Tok = ~M.Space & Live;
    const uint32_t Prev = Tok << 1 | InToken;
    const size_t EndsBefore = Ends;
    for (uint32_t B = Tok & ~Prev; B; B &= B - 1) {
      if (Starts < 4)
        Start[Starts] = Off + static_cast<size_t>(std::countr_zero(B));
      ++Starts;
    }
    for (uint32_t B = ~Tok & Prev & (Live | StopBit); B; B &= B - 1) {
      if (Ends < 4)
        Len[Ends] =
            Off + static_cast<size_t>(std::countr_zero(B)) - Start[Ends];
      ++Ends;
    }
    // The name token's bytes in this window, for its escape check.
    if (Starts > 2 && EndsBefore <= 2) {
      const size_t Lo = Start[2] > Off ? Start[2] - Off : 0;
      const size_t Hi = Ends > 2 ? Start[2] + Len[2] - Off : K;
      const uint32_t Name =
          ((uint32_t{1} << Hi) - 1) & ~((uint32_t{1} << Lo) - 1);
      ArgEscaped |= (M.Escape & Name) != 0;
    }
    if (StopBit) {
      Off += static_cast<size_t>(std::countr_zero(StopBit));
      if (Data[Pos + Off] == '#' && !findNewline(Off))
        return false;
      break;
    }
    InToken = Tok >> (K - 1) & 1;
    Off += K;
  }
  T.N = std::min<size_t>(Starts, 4);
  T.ArgEscaped = ArgEscaped;
  for (size_t I = 0; I < T.N; ++I)
    T.Tok[I] = std::string_view(Data + Pos + Start[I], Len[I]);
  Pos = MetEnd ? End : Pos + Off + 1;
  return true;
}

LineParse TraceStream::parseTokens(const Tokens &T, Event &Ev,
                                   std::string &ErrorOut) {
  if (T.N == 0)
    return LineParse::Blank;
  auto Fail = [&](const std::string &Msg) {
    ErrorOut = Msg;
    return LineParse::Error;
  };
  if (T.N == 4)
    return Fail("trailing token '" + std::string(T.Tok[3]) + "'");

  Tid Thread = 0;
  if (!parseTid(T.Tok[0], Thread))
    return Fail("expected thread id 'T<n>', got '" + std::string(T.Tok[0]) +
                "'");
  if (T.N < 2)
    return Fail("missing operation");
  const OpRule *Rule = matchOp(T.Tok[1]);
  if (!Rule)
    return Fail("unknown operation '" + std::string(T.Tok[1]) + "'");
  const bool HasArg = T.N == 3;

  uint32_t Target = 0;
  if (Rule->Names) {
    if (!HasArg)
      return Fail(Rule->Missing);
    // Decode the escaped symbol argument (TraceText escaping rule) and
    // intern it under the per-kind count cap.
    std::string_view Name = T.Tok[2];
    if (T.ArgEscaped) {
      if (!unescapeSymbol(Name, Unescaped, ErrorOut))
        return LineParse::Error;
      Name = Unescaped;
    }
    if (!internSymbolCapped(Syms.*Rule->Names, Name, MaxSymbols, Target))
      return Fail(std::string("too many distinct ") + Rule->What +
                  " names (cap " + std::to_string(MaxSymbols) + ")");
  } else if (Rule->Kind == Op::End) {
    if (HasArg)
      return Fail("'end' takes no argument");
  } else if (!HasArg || !parseTid(T.Tok[2], Target)) {
    return Fail("expected child thread id");
  }
  Ev = Event{Rule->Kind, Thread, Target};
  return LineParse::Event;
}

bool TraceStream::next(Event &Out) {
  if (Failed)
    return false;
  Tokens T;
  while (scanLine(T)) {
    ++LineNo;
    switch (parseTokens(T, Out, Error)) {
    case LineParse::Event:
      ++NumEvents;
      return true;
    case LineParse::Blank:
      continue;
    case LineParse::Error:
      Failed = true;
      Error = "line " + std::to_string(LineNo) + ": " + Error;
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
  Pos = End = 0;
  AtEof = MetEnd = false;
  LineNo = Line;
  NumEvents = Events;
  return true;
}

} // namespace velo
