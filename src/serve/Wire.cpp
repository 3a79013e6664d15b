//===- serve/Wire.cpp - velodrome-serve wire protocol ---------------------===//

#include "serve/Wire.h"

#include "events/TraceStream.h"
#include "support/Syscalls.h"

namespace velo {
namespace serve {

using namespace binfmt;

namespace {

// Little decode cursor shared by the message codecs: every read checks
// bounds and latches failure, so decoders are straight-line and the final
// ok() check catches any truncation.
struct Cursor {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Bad = false;

  uint64_t varint() {
    uint64_t V = 0;
    if (!readVarint(Data, Size, Pos, V))
      Bad = true;
    return V;
  }

  std::string str() {
    uint64_t Len = varint();
    if (Bad || Len > Size - Pos) {
      Bad = true;
      return {};
    }
    std::string S(reinterpret_cast<const char *>(Data + Pos),
                  static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return S;
  }

  bool byteFlag() {
    if (Pos >= Size) {
      Bad = true;
      return false;
    }
    return Data[Pos++] != 0;
  }

  /// Decoded cleanly with no trailing bytes?
  bool done() const { return !Bad && Pos == Size; }
};

void appendStr(std::string &Out, std::string_view S) {
  appendVarint(Out, S.size());
  Out += S;
}

bool malformed(std::string &Err, const char *What) {
  Err = std::string("malformed ") + What + " payload";
  return false;
}

} // namespace

std::string encodeHello(const HelloMsg &M) {
  std::string Out;
  appendVarint(Out, M.Version);
  appendStr(Out, M.Name);
  appendStr(Out, M.BackendSel);
  Out += static_cast<char>(M.Lenient ? 1 : 0);
  Out += static_cast<char>(M.Resume ? 1 : 0);
  appendVarint(Out, M.Limits.MaxEvents);
  appendVarint(Out, M.Limits.MaxLiveNodes);
  appendVarint(Out, M.Limits.MaxMemoryBytes);
  appendVarint(Out, M.Limits.DeadlineMillis);
  appendVarint(Out, M.Limits.CheckIntervalEvents);
  appendVarint(Out, M.Format);
  return Out;
}

bool decodeHello(const uint8_t *Data, size_t Size, HelloMsg &Out,
                 std::string &Err) {
  Cursor C{Data, Size};
  Out.Version = static_cast<uint32_t>(C.varint());
  Out.Name = C.str();
  Out.BackendSel = C.str();
  Out.Lenient = C.byteFlag();
  Out.Resume = C.byteFlag();
  Out.Limits.MaxEvents = C.varint();
  Out.Limits.MaxLiveNodes = C.varint();
  Out.Limits.MaxMemoryBytes = C.varint();
  Out.Limits.DeadlineMillis = C.varint();
  Out.Limits.CheckIntervalEvents = static_cast<uint32_t>(C.varint());
  Out.Format = static_cast<uint8_t>(C.varint());
  if (!C.done())
    return malformed(Err, "hello");
  if (Out.Name.empty() || Out.Name.size() > 256) {
    Err = "session name must be 1..256 bytes";
    return false;
  }
  if (Out.Format > 2) {
    Err = "unknown report format " + std::to_string(Out.Format);
    return false;
  }
  return true;
}

std::string encodeHelloOk(const HelloOkMsg &M) {
  std::string Out;
  appendVarint(Out, M.Events);
  appendVarint(Out, M.Credit);
  appendVarint(Out, M.VarsDone);
  appendVarint(Out, M.LocksDone);
  appendVarint(Out, M.LabelsDone);
  return Out;
}

bool decodeHelloOk(const uint8_t *Data, size_t Size, HelloOkMsg &Out,
                   std::string &Err) {
  Cursor C{Data, Size};
  Out.Events = C.varint();
  Out.Credit = C.varint();
  Out.VarsDone = C.varint();
  Out.LocksDone = C.varint();
  Out.LabelsDone = C.varint();
  return C.done() || malformed(Err, "hello-ok");
}

std::string encodeAck(const AckMsg &M) {
  std::string Out;
  appendVarint(Out, M.Events);
  appendVarint(Out, M.Credit);
  appendVarint(Out, M.Durable);
  return Out;
}

bool decodeAck(const uint8_t *Data, size_t Size, AckMsg &Out,
               std::string &Err) {
  Cursor C{Data, Size};
  Out.Events = C.varint();
  Out.Credit = C.varint();
  Out.Durable = C.varint();
  return C.done() || malformed(Err, "ack");
}

std::string encodeNak(const NakMsg &M) {
  std::string Out;
  Out += static_cast<char>(M.Fatal ? 1 : 0);
  appendStr(Out, M.Reason);
  return Out;
}

bool decodeNak(const uint8_t *Data, size_t Size, NakMsg &Out,
               std::string &Err) {
  Cursor C{Data, Size};
  Out.Fatal = C.byteFlag();
  Out.Reason = C.str();
  return C.done() || malformed(Err, "nak");
}

std::string encodeVerdict(const VerdictMsg &M) {
  std::string Out;
  Out += static_cast<char>(M.ExitCode);
  appendStr(Out, M.Report);
  appendStr(Out, M.Notes);
  return Out;
}

bool decodeVerdict(const uint8_t *Data, size_t Size, VerdictMsg &Out,
                   std::string &Err) {
  Cursor C{Data, Size};
  if (Size < 1)
    return malformed(Err, "verdict");
  Out.ExitCode = Data[C.Pos++];
  Out.Report = C.str();
  Out.Notes = C.str();
  return C.done() || malformed(Err, "verdict");
}

void encodeEventsPayload(std::string &Out, const std::vector<Event> &Events,
                         size_t Begin, size_t End, const SymbolTable &Syms,
                         size_t &VarsDone, size_t &LocksDone,
                         size_t &LabelsDone) {
  // Mirror of BinaryTraceWriter::flushFrame over a slice: compute each
  // kind's high-water mark, emit the contiguous definition blocks, then
  // the events themselves.
  size_t VarsNeed = VarsDone, LocksNeed = LocksDone, LabelsNeed = LabelsDone;
  for (size_t I = Begin; I < End; ++I) {
    const Event &E = Events[I];
    switch (E.Kind) {
    case Op::Read:
    case Op::Write:
      if (E.var() >= VarsNeed)
        VarsNeed = E.var() + 1;
      break;
    case Op::Acquire:
    case Op::Release:
      if (E.lock() >= LocksNeed)
        LocksNeed = E.lock() + 1;
      break;
    case Op::Begin:
      if (E.label() != NoLabel && E.label() >= LabelsNeed)
        LabelsNeed = E.label() + 1;
      break;
    case Op::End:
    case Op::Fork:
    case Op::Join:
      break;
    }
  }

  auto EmitBlock = [&](const StringInterner &Table, size_t &Done,
                       size_t Need) {
    appendVarint(Out, Done);
    appendVarint(Out, Need - Done);
    for (size_t I = Done; I < Need; ++I) {
      const std::string &Name = Table.name(static_cast<uint32_t>(I));
      appendVarint(Out, Name.size());
      Out += Name;
    }
    Done = Need;
  };
  EmitBlock(Syms.Vars, VarsDone, VarsNeed);
  EmitBlock(Syms.Locks, LocksDone, LocksNeed);
  EmitBlock(Syms.Labels, LabelsDone, LabelsNeed);

  appendVarint(Out, End - Begin);
  for (size_t I = Begin; I < End; ++I) {
    const Event &E = Events[I];
    Out += static_cast<char>(static_cast<uint8_t>(E.Kind));
    appendVarint(Out, E.Thread);
    if (E.Kind != Op::End)
      appendVarint(Out, E.Target);
  }
}

bool decodeEventsPayload(const uint8_t *Data, size_t Size, SymbolTable &Syms,
                         std::vector<Event> &Out, std::string &Err) {
  size_t Pos = 0;
  // The session's symbol table holds exactly the stream's names in
  // first-use order, so wire ids and table ids coincide — a block is valid
  // iff its base equals the table size and every name is genuinely new.
  auto ReadBlock = [&](StringInterner &Table, const char *What) {
    uint64_t Base = 0, Count = 0;
    if (!readVarint(Data, Size, Pos, Base) ||
        !readVarint(Data, Size, Pos, Count)) {
      Err = "truncated symbol block";
      return false;
    }
    if (Base != Table.size()) {
      Err = "symbol block not contiguous";
      return false;
    }
    if (Count > Size - Pos) {
      Err = "impossible symbol count";
      return false;
    }
    const uint64_t Cap = maxTraceSymbols();
    if (Base + Count > Cap) {
      Err = std::string("too many distinct ") + What + " names (cap " +
            std::to_string(Cap) + ")";
      return false;
    }
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t NameLen = 0;
      if (!readVarint(Data, Size, Pos, NameLen) || NameLen > Size - Pos) {
        Err = "truncated symbol name";
        return false;
      }
      std::string_view Name(reinterpret_cast<const char *>(Data + Pos),
                            static_cast<size_t>(NameLen));
      Pos += static_cast<size_t>(NameLen);
      uint32_t Id = 0;
      if (!internSymbolCapped(Table, Name, Cap, Id)) {
        Err = std::string("too many distinct ") + What + " names (cap " +
              std::to_string(Cap) + ")";
        return false;
      }
      if (Id != Base + I) {
        Err = std::string("duplicate ") + What + " name in symbol block";
        return false;
      }
    }
    return true;
  };
  if (!ReadBlock(Syms.Vars, "variable") || !ReadBlock(Syms.Locks, "lock") ||
      !ReadBlock(Syms.Labels, "label"))
    return false;

  uint64_t Count = 0;
  if (!readVarint(Data, Size, Pos, Count)) {
    Err = "truncated event count";
    return false;
  }
  // Each event is at least two bytes (op + tid varint), so a count beyond
  // the remaining payload is a lie — reject before reserving.
  if (Count > (Size - Pos + 1) / 2) {
    Err = "impossible event count";
    return false;
  }
  Out.reserve(Out.size() + static_cast<size_t>(Count));
  for (uint64_t I = 0; I < Count; ++I) {
    if (Pos >= Size) {
      Err = "truncated event";
      return false;
    }
    uint8_t OpByte = Data[Pos++];
    if (OpByte > static_cast<uint8_t>(Op::Join)) {
      Err = "unknown operation code " + std::to_string(OpByte);
      return false;
    }
    Op Kind = static_cast<Op>(OpByte);
    uint64_t TidV = 0;
    if (!readVarint(Data, Size, Pos, TidV)) {
      Err = "truncated event";
      return false;
    }
    if (TidV >= MaxTraceThreads) {
      Err = "thread id " + std::to_string(TidV) + " out of range";
      return false;
    }
    uint32_t Target = 0;
    if (Kind != Op::End) {
      uint64_t TgtV = 0;
      if (!readVarint(Data, Size, Pos, TgtV)) {
        Err = "truncated event";
        return false;
      }
      switch (Kind) {
      case Op::Read:
      case Op::Write:
        if (TgtV >= Syms.Vars.size()) {
          Err = "undefined variable id " + std::to_string(TgtV);
          return false;
        }
        break;
      case Op::Acquire:
      case Op::Release:
        if (TgtV >= Syms.Locks.size()) {
          Err = "undefined lock id " + std::to_string(TgtV);
          return false;
        }
        break;
      case Op::Begin:
        if (TgtV != NoLabel && TgtV >= Syms.Labels.size()) {
          Err = "undefined label id " + std::to_string(TgtV);
          return false;
        }
        break;
      case Op::Fork:
      case Op::Join:
        if (TgtV >= MaxTraceThreads) {
          Err = "thread id " + std::to_string(TgtV) + " out of range";
          return false;
        }
        break;
      case Op::End:
        break;
      }
      Target = static_cast<uint32_t>(TgtV);
    }
    Out.push_back(Event{Kind, static_cast<Tid>(TidV), Target});
  }
  if (Pos != Size) {
    Err = "trailing bytes after events";
    return false;
  }
  return true;
}

std::string frameBytes(uint8_t Kind, std::string_view Payload) {
  std::string Out;
  Out.reserve(FrameHeaderSize + Payload.size());
  Out += static_cast<char>(Kind);
  appendU32le(Out, static_cast<uint32_t>(Payload.size()));
  appendU64le(Out, fnv1a64(Payload));
  Out += Payload;
  return Out;
}

bool FrameSplitter::next(uint8_t &KindOut, std::string &PayloadOut) {
  if (Failed)
    return false;
  // Compact the consumed prefix occasionally so a long-lived connection
  // does not grow its input buffer without bound.
  if (Pos > 4096 && Pos >= Buf.size() / 2) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  if (buffered() < FrameHeaderSize)
    return false;
  const uint8_t *H = reinterpret_cast<const uint8_t *>(Buf.data()) + Pos;
  uint8_t Kind = H[0];
  uint64_t Len = readU32le(H + 1);
  if (Len > MaxWirePayload) {
    Failed = true;
    Err = "frame payload of " + std::to_string(Len) +
          " bytes exceeds the protocol limit";
    return false;
  }
  if (buffered() - FrameHeaderSize < Len)
    return false; // need more bytes
  std::string_view Payload(Buf.data() + Pos + FrameHeaderSize,
                           static_cast<size_t>(Len));
  if (fnv1a64(Payload) != readU64le(H + 5)) {
    Failed = true;
    Err = "frame checksum mismatch (torn or corrupt frame)";
    return false;
  }
  KindOut = Kind;
  PayloadOut.assign(Payload.data(), Payload.size());
  Pos += FrameHeaderSize + static_cast<size_t>(Len);
  return true;
}

int readWireFrame(int Fd, uint8_t &KindOut, std::string &PayloadOut,
                  std::string &Err) {
  uint8_t Header[FrameHeaderSize];
  int R = sys::readFull(Fd, Header, sizeof(Header));
  if (R == 0)
    return 0;
  if (R < 0) {
    Err = "connection closed mid-frame";
    return -1;
  }
  KindOut = Header[0];
  uint64_t Len = readU32le(Header + 1);
  if (Len > MaxWirePayload) {
    Err = "frame payload of " + std::to_string(Len) +
          " bytes exceeds the protocol limit";
    return -1;
  }
  PayloadOut.resize(static_cast<size_t>(Len));
  if (Len > 0 && sys::readFull(Fd, PayloadOut.data(), PayloadOut.size()) != 1) {
    Err = "connection closed mid-frame";
    return -1;
  }
  if (fnv1a64(PayloadOut) != readU64le(Header + 5)) {
    Err = "frame checksum mismatch (torn or corrupt frame)";
    return -1;
  }
  return 1;
}

bool writeWireFrame(int Fd, uint8_t Kind, std::string_view Payload,
                    std::string &Err) {
  std::string Bytes = frameBytes(Kind, Payload);
  if (!sys::writeAll(Fd, Bytes.data(), Bytes.size())) {
    Err = "write failed (peer disconnected?)";
    return false;
  }
  return true;
}

} // namespace serve
} // namespace velo
