//===- events/TraceText.cpp - Trace text serialization --------------------===//

#include "events/TraceText.h"

#include "events/BinaryWriter.h"
#include "events/TraceSource.h"

#include <fstream>

namespace velo {

std::string escapeSymbol(std::string_view Name) {
  if (Name.empty())
    return "\\e";
  static const char Hex[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name) {
    auto B = static_cast<unsigned char>(C);
    if (C == '\\' || C == '#' || B <= 0x20 || B == 0x7f) {
      Out += "\\x";
      Out += Hex[B >> 4];
      Out += Hex[B & 0xf];
    } else {
      Out += C;
    }
  }
  return Out;
}

namespace {

int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

} // namespace

bool unescapeSymbol(std::string_view Token, std::string &NameOut,
                    std::string &ErrorOut) {
  if (Token == "\\e") {
    NameOut.clear();
    return true;
  }
  NameOut.clear();
  NameOut.reserve(Token.size());
  for (size_t I = 0; I < Token.size(); ++I) {
    char C = Token[I];
    auto B = static_cast<unsigned char>(C);
    if (B < 0x20 || B == 0x7f) {
      ErrorOut = "control character in name";
      return false;
    }
    if (C != '\\') {
      NameOut += C;
      continue;
    }
    if (I + 3 < Token.size() && Token[I + 1] == 'x') {
      int Hi = hexDigit(Token[I + 2]), Lo = hexDigit(Token[I + 3]);
      if (Hi >= 0 && Lo >= 0) {
        NameOut += static_cast<char>((Hi << 4) | Lo);
        I += 3;
        continue;
      }
    }
    ErrorOut = "bad escape in name '" + std::string(Token) + "'";
    return false;
  }
  return true;
}

std::string SalvageSummary::note() const {
  if (!Used || FramesKept == 0)
    return std::string();
  return "salvage: recovered " + std::to_string(FramesKept) + " frame(s) (" +
         std::to_string(EventsKept) + " event(s)); dropped " +
         std::to_string(BytesDropped) + " trailing byte(s)\n";
}

std::string renderEvent(const Event &E, const SymbolTable &Syms) {
  std::string Out = "T" + std::to_string(E.Thread) + " " + opName(E.Kind);
  switch (E.Kind) {
  case Op::Read:
  case Op::Write:
    Out += " " + escapeSymbol(Syms.varName(E.var()));
    break;
  case Op::Acquire:
  case Op::Release:
    Out += " " + escapeSymbol(Syms.lockName(E.lock()));
    break;
  case Op::Begin:
    Out += " " + escapeSymbol(Syms.labelName(E.label()));
    break;
  case Op::End:
    break;
  case Op::Fork:
  case Op::Join:
    Out += " T" + std::to_string(E.child());
    break;
  }
  return Out;
}

std::string printTrace(const Trace &T) {
  std::string Out;
  const SymbolTable &Syms = T.symbols();
  for (const Event &E : T) {
    Out += renderEvent(E, Syms);
    Out += '\n';
  }
  return Out;
}

bool parseTrace(const std::string &Text, Trace &Out, std::string &ErrorOut) {
  TraceStream TS(Text, Out.symbols());
  Event E;
  while (TS.next(E))
    Out.push(E);
  if (TS.failed()) {
    ErrorOut = TS.error();
    return false;
  }
  return true;
}

TraceFormat traceFormatForWrite(const std::string &Path) {
  constexpr std::string_view Ext = ".vtrc";
  if (Path.size() >= Ext.size() &&
      Path.compare(Path.size() - Ext.size(), Ext.size(), Ext) == 0)
    return TraceFormat::Binary;
  return TraceFormat::Text;
}

bool writeTraceFile(const Trace &T, const std::string &Path) {
  if (traceFormatForWrite(Path) == TraceFormat::Binary) {
    std::string Error;
    return writeBinaryTraceFile(T, Path, Error);
  }
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << printTrace(T);
  return static_cast<bool>(Out);
}

TraceReadStatus readTraceFileStatus(const std::string &Path, Trace &Out,
                                    std::string &ErrorOut,
                                    const TraceOpenOptions &Opts) {
  TraceReadStatus St = TraceReadStatus::Ok;
  auto Src = openTraceSource(Path, Out.symbols(), St, ErrorOut, Opts);
  if (!Src)
    return St;
  Event E;
  while (Src->next(E))
    Out.push(E);
  if (Src->failed()) {
    ErrorOut = describeFailure(*Src, Path);
    return Src->readFailed() ? TraceReadStatus::IoError
                             : TraceReadStatus::ParseError;
  }
  return TraceReadStatus::Ok;
}

} // namespace velo
