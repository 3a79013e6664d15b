//===- tests/TextScannerTest.cpp - The text scanner against its oracle ----===//
//
// TraceStream reads each line of the text format in one pass. The oracle
// below is the reader it replaced: cut the line at its newline, split it
// into whitespace-separated tokens, then check a name token for bytes that
// need unescaping. Generated lines go through parseTraceLine, an in-memory
// TraceStream and a pipe whose writer sends 1-37-byte pieces (so lines
// straddle refills), and must yield the oracle's events, ids and names, or
// its diagnostic byte for byte. Every line and document is also scanned
// from a heap buffer of exactly its size, so a sanitizer build flags any
// read past the end.
//
//===----------------------------------------------------------------------===//

#include "events/TraceStream.h"
#include "events/TraceText.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include <unistd.h>

namespace velo {
namespace {

//===----------------------------------------------------------------------===//
// The oracle: the split-then-dispatch line parser.
//===----------------------------------------------------------------------===//

/// std::isspace in the C locale (space, \t, \n, \v, \f, \r).
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

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

/// Split Line, up to a '#', into at most four tokens.
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

//===----------------------------------------------------------------------===//
// Generated lines.
//===----------------------------------------------------------------------===//

std::string pick(Rng &R, std::initializer_list<const char *> Choices) {
  return *(Choices.begin() + R.below(Choices.size()));
}

/// A run of the whitespace the grammar knows, '\n' aside.
std::string whitespace(Rng &R, size_t Max) {
  static const char Space[] = {' ', '\t', '\v', '\f', '\r'};
  std::string S;
  for (size_t I = R.below(Max + 1); I > 0; --I)
    S += Space[R.below(sizeof(Space))];
  return S;
}

/// A name token of 0-17 bytes: plain bytes, bytes >= 0x80, escapes good
/// and bad, raw control bytes (never '\n'), and sometimes '\e'.
std::string nameToken(Rng &R) {
  if (R.below(16) == 0)
    return "\\e";
  std::string S;
  for (size_t I = 0, N = R.below(18); I < N; ++I) {
    switch (R.below(24)) {
    case 0:
      S += pick(R, {"\\x20", "\\x5c", "\\x23", "\\x0a", "\\xff", "\\x00"});
      break;
    case 1:
      S += pick(R, {"\\q", "\\x1", "\\xg0", "\\", "\\e"});
      break;
    case 2: {
      char C = static_cast<char>(R.below(0x20));
      S += C == '\n' ? '\x01' : C;
      break;
    }
    case 3:
      S += pick(R, {"\x7f", "\x80", "\xc3\xa9", "\xff"});
      break;
    default:
      S += static_cast<char>(R.below(2) ? 'a' + R.below(26) : '0' + R.below(10));
    }
  }
  return S;
}

std::string tidToken(Rng &R) {
  if (R.below(4) != 0)
    return "T" + std::to_string(R.below(12));
  return pick(R, {"T007", "T1048575", "T1048576", "T", "Tx", "X0", "t1",
                  "T-1", "T99999999999", "T1x"});
}

std::string opToken(Rng &R) {
  if (R.below(5) != 0)
    return pick(R, {"rd", "wr", "acq", "rel", "begin", "end", "fork",
                    "join"});
  return pick(R, {"re", "rdx", "begins", "ends", "r", "RD", "beg", "egin",
                  "bego", "forks", "joi", "acq\x01", "rel\\", "wrr", "en"});
}

/// One line without its newline.
std::string genLine(Rng &R) {
  std::vector<std::string> Toks;
  const uint64_t Shape = R.below(20);
  if (Shape == 0)
    return whitespace(R, 4); // blank
  Toks.push_back(tidToken(R));
  if (Shape != 1) {
    const std::string Op = opToken(R);
    Toks.push_back(Op);
    if (Op == "fork" || Op == "join")
      Toks.push_back(R.below(3) ? tidToken(R) : nameToken(R));
    else if (Op != "end" || R.below(6) == 0)
      Toks.push_back(nameToken(R));
    if (Toks.back().empty())
      Toks.pop_back(); // an empty name token is a missing argument
    if (Shape == 2 || (Shape == 3 && Toks.size() > 2))
      Toks.pop_back(); // a missing operand
    if (Shape == 4)
      Toks.push_back(R.below(2) ? nameToken(R) + "z" : "#");
  }
  std::string Line = whitespace(R, 3);
  for (size_t I = 0; I < Toks.size(); ++I) {
    if (I > 0) {
      std::string Gap = whitespace(R, 3);
      Line += Gap.empty() ? " " : Gap;
    }
    Line += Toks[I];
  }
  Line += whitespace(R, 3);
  if (R.below(8) == 0)
    Line.insert(R.below(Line.size() + 1), "#" + whitespace(R, 1) + "c");
  return Line;
}

//===----------------------------------------------------------------------===//
// Running the readers.
//===----------------------------------------------------------------------===//

/// Everything a reader yields on a document.
struct Outcome {
  std::vector<Event> Events;
  std::vector<size_t> Lines; ///< the line of each event
  std::vector<std::string> Vars, Locks, Labels;
  bool Failed = false;
  std::string Error;

  void takeNames(const SymbolTable &Syms) {
    for (uint32_t I = 0; I < Syms.Vars.size(); ++I)
      Vars.push_back(Syms.Vars.name(I));
    for (uint32_t I = 0; I < Syms.Locks.size(); ++I)
      Locks.push_back(Syms.Locks.name(I));
    for (uint32_t I = 0; I < Syms.Labels.size(); ++I)
      Labels.push_back(Syms.Labels.name(I));
  }
};

void expectSame(const Outcome &Got, const Outcome &Want) {
  EXPECT_EQ(Got.Failed, Want.Failed);
  EXPECT_EQ(Got.Error, Want.Error);
  EXPECT_EQ(Got.Lines, Want.Lines);
  EXPECT_EQ(Got.Vars, Want.Vars);
  EXPECT_EQ(Got.Locks, Want.Locks);
  EXPECT_EQ(Got.Labels, Want.Labels);
  ASSERT_EQ(Got.Events.size(), Want.Events.size());
  for (size_t I = 0; I < Got.Events.size(); ++I)
    EXPECT_TRUE(Got.Events[I] == Want.Events[I]) << "event " << I;
}

/// The lines of Doc as the old reader cut them: each '\n' ends one, and
/// a last line without a newline counts when it is not empty.
std::vector<std::string_view> cutLines(std::string_view Doc) {
  std::vector<std::string_view> Lines;
  size_t Pos = 0;
  while (Pos < Doc.size()) {
    size_t Stop = Doc.find('\n', Pos);
    if (Stop == std::string_view::npos)
      Stop = Doc.size();
    Lines.push_back(Doc.substr(Pos, Stop - Pos));
    Pos = Stop + 1;
  }
  return Lines;
}

Outcome runOracle(const std::string &Doc, uint64_t Cap) {
  Outcome O;
  SymbolTable Syms;
  std::string Scratch;
  size_t LineNo = 0;
  for (std::string_view Line : cutLines(Doc)) {
    ++LineNo;
    Event E{};
    std::string Msg;
    LineParse P = parseLine(Line, Syms, Cap, Scratch, E, Msg);
    if (P == LineParse::Error) {
      O.Failed = true;
      O.Error = "line " + std::to_string(LineNo) + ": " + Msg;
      break;
    }
    if (P == LineParse::Event) {
      O.Events.push_back(E);
      O.Lines.push_back(LineNo);
    }
  }
  O.takeNames(Syms);
  return O;
}

/// parseTraceLine over each line, each copied into a heap buffer of
/// exactly its size.
Outcome runParseTraceLine(const std::string &Doc) {
  Outcome O;
  SymbolTable Syms;
  size_t LineNo = 0;
  for (std::string_view Line : cutLines(Doc)) {
    ++LineNo;
    std::unique_ptr<char[]> Exact(new char[Line.size()]);
    std::memcpy(Exact.get(), Line.data(), Line.size());
    Event E{};
    std::string Msg;
    LineParse P = parseTraceLine(std::string_view(Exact.get(), Line.size()),
                                 Syms, E, Msg);
    if (P == LineParse::Error) {
      O.Failed = true;
      O.Error = "line " + std::to_string(LineNo) + ": " + Msg;
      break;
    }
    if (P == LineParse::Event) {
      O.Events.push_back(E);
      O.Lines.push_back(LineNo);
    }
  }
  O.takeNames(Syms);
  return O;
}

Outcome drain(TraceStream &TS, const SymbolTable &Syms) {
  Outcome O;
  Event E{};
  while (TS.next(E)) {
    O.Events.push_back(E);
    O.Lines.push_back(TS.lineNo());
  }
  O.Failed = TS.failed();
  O.Error = TS.error();
  O.takeNames(Syms);
  return O;
}

/// An in-memory TraceStream over a heap copy of exactly Doc's size.
Outcome runInMemory(const std::string &Doc) {
  std::unique_ptr<char[]> Exact(new char[Doc.size()]);
  std::memcpy(Exact.get(), Doc.data(), Doc.size());
  SymbolTable Syms;
  TraceStream TS(std::string_view(Exact.get(), Doc.size()), Syms);
  return drain(TS, Syms);
}

/// A TraceStream over a pipe whose writer sends Doc in 1-37-byte writes.
Outcome runThroughPipe(const std::string &Doc, uint64_t Seed) {
  int Fds[2];
  EXPECT_EQ(::pipe(Fds), 0);
  std::thread Writer([&Doc, Seed, WriteFd = Fds[1]] {
    Rng R(Seed);
    for (size_t Off = 0; Off < Doc.size();) {
      size_t Len = std::min<size_t>(1 + R.below(37), Doc.size() - Off);
      ssize_t N = ::write(WriteFd, Doc.data() + Off, Len);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(WriteFd);
  });
  Outcome O;
  {
    SymbolTable Syms;
    TraceStream TS(Fds[0], "pipe", Syms);
    O = drain(TS, Syms);
  }
  // Let a writer that the stream stopped reading (malformed line) finish.
  char Sink[4096];
  while (::read(Fds[0], Sink, sizeof(Sink)) > 0) {
  }
  Writer.join();
  ::close(Fds[0]);
  return O;
}

/// Sets VELO_MAX_SYMBOLS for one scope.
struct SymbolCap {
  explicit SymbolCap(uint64_t Cap) {
    if (Cap != MaxTraceSymbols)
      ::setenv("VELO_MAX_SYMBOLS", std::to_string(Cap).c_str(), 1);
  }
  ~SymbolCap() { ::unsetenv("VELO_MAX_SYMBOLS"); }
  SymbolCap(const SymbolCap &) = delete;
  SymbolCap &operator=(const SymbolCap &) = delete;
};

void checkDocument(const std::string &Doc, uint64_t Cap, uint64_t Seed) {
  SymbolCap Scope(Cap);
  const Outcome Want = runOracle(Doc, Cap);
  {
    SCOPED_TRACE("parseTraceLine");
    expectSame(runParseTraceLine(Doc), Want);
  }
  {
    SCOPED_TRACE("in memory");
    expectSame(runInMemory(Doc), Want);
  }
  {
    SCOPED_TRACE("pipe");
    expectSame(runThroughPipe(Doc, Seed), Want);
  }
}

TEST(TextScannerTest, GeneratedLinesMatchTheSplittingParser) {
  Rng R(20080613);
  size_t Errors = 0, Events = 0, Capped = 0;
  for (uint64_t Doc = 0; Doc < 400; ++Doc) {
    // Most documents hold well-formed lines and end in one malformed line
    // or none; a few are all generated lines, errors included.
    const bool Wild = Doc % 4 == 0;
    std::string Text;
    for (size_t I = 0, N = 1 + R.below(40); I < N; ++I) {
      std::string Line = genLine(R);
      if (!Wild && I + 1 < N) {
        SymbolTable Probe;
        Event E{};
        std::string Scratch, Msg;
        if (parseLine(Line, Probe, MaxTraceSymbols, Scratch, E, Msg) ==
            LineParse::Error)
          continue;
      }
      Text += Line;
      Text += R.below(10) == 0 ? "\r\n" : "\n";
    }
    if (R.below(3) == 0 && !Text.empty())
      Text.pop_back(); // no final newline
    // Every fifth document runs under a cap of a few names per kind, so
    // the cap is reached mid-stream.
    const uint64_t Cap = Doc % 5 == 0 ? 1 + R.below(4) : MaxTraceSymbols;
    SCOPED_TRACE("document " + std::to_string(Doc) + ":\n" + Text);
    checkDocument(Text, Cap, Doc);
    const Outcome O = runOracle(Text, Cap);
    Errors += O.Failed;
    Events += O.Events.size();
    Capped += O.Error.find("too many distinct") != std::string::npos;
    if (HasFailure())
      return;
  }
  // The generator reaches both outcomes, and the cap.
  EXPECT_GT(Errors, 100u);
  EXPECT_GT(Events, 1000u);
  EXPECT_GT(Capped, 5u);
}

TEST(TextScannerTest, EdgeLinesMatchTheSplittingParser) {
  const std::string Lines[] = {
      "",
      " \t\v\f\r",
      "#",
      "T0 wr x#",
      "T0 wr #x",
      "T0#wr x",
      "#T0 wr x",
      "T0 wr x #y z w",
      "T0 wr x y",
      "T0 wr x y z",
      "T0",
      "T0 end",
      "T0 end x",
      "T0\tend\r",
      "T007 rd x",
      "T1048575 rd x",
      "T1048576 rd x",
      "T rd x",
      "Tx rd x",
      "T0 re x",
      "T0 rdx x",
      "T0 begins x",
      "T0 ends",
      "T0 fork T",
      "T0 join Tx",
      "T0 fork T1048575",
      "T0 join T1048576",
      "T0 fork",
      "T0 rd",
      "T0 begin",
      "T0 acq",
      "T0 rd \\e",
      "T0 rd a\\e",
      "T0 rd \\x20\\x23",
      "T0 rd \\x2",
      "T0 rd \\",
      std::string("T0 rd a\0b", 9),
      std::string("T0 rd \x01", 7),
      "T0 rd \x7f",
      "T0 rd \x80\xff",
      "T0 rd 12345678",
      "T0 rd 123456789",
      "T0 rd abcdefghijklmnopq",
      std::string("T\0 rd x", 7),
      "T0 r\x01 x",
  };
  for (const std::string &Line : Lines) {
    for (const char *Ending : {"", "\n", "\r\n"}) {
      std::string Doc = "T1 wr y\n" + Line + Ending + "T2 rd y\n";
      SCOPED_TRACE(Doc);
      checkDocument(Doc, MaxTraceSymbols, Line.size());
      checkDocument(Line + Ending, MaxTraceSymbols, Line.size());
    }
  }
}

} // namespace
} // namespace velo
