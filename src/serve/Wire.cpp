//===- serve/Wire.cpp - velodrome-serve wire protocol ---------------------===//

#include "serve/Wire.h"

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
  appendEventsPayload(Out,
                      std::span<const Event>(Events).subspan(Begin,
                                                             End - Begin),
                      Syms, VarsDone, LocksDone, LabelsDone);
}

bool decodeEventsPayload(const uint8_t *Data, size_t Size, SymbolTable &Syms,
                         std::vector<Event> &Out, std::string &Err) {
  EventsFrameDecoder D;
  bool Ok = D.start(
      std::string_view(reinterpret_cast<const char *>(Data), Size), Syms);
  if (Ok)
    Out.reserve(Out.size() + static_cast<size_t>(D.left()));
  Event E;
  while (Ok && D.left() != 0 && (Ok = D.next(E)))
    Out.push_back(E);
  if (Ok && D.finish())
    return true;
  Err = D.error();
  return false;
}

std::string frameBytes(uint8_t Kind, std::string_view Payload) {
  std::string Out;
  Out.reserve(FrameHeaderSize + Payload.size());
  appendFrame(Out, Kind, Payload);
  return Out;
}

namespace {

const uint8_t *bytes(const std::string &S) {
  return reinterpret_cast<const uint8_t *>(S.data());
}

/// The diagnostic for a frame the shared frame check refused.
std::string frameFault(FrameCheck Check, const FrameView &F) {
  if (Check == FrameCheck::TooLong)
    return "frame payload of " + std::to_string(F.Len) +
           " bytes exceeds the protocol limit";
  return "frame checksum mismatch (torn or corrupt frame)";
}

} // namespace

bool FrameSplitter::next(uint8_t &KindOut, std::string &PayloadOut) {
  if (Failed)
    return false;
  // Compact the consumed prefix occasionally so a long-lived connection
  // does not grow its input buffer without bound.
  if (Pos > 4096 && Pos >= Buf.size() / 2) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  FrameView F;
  FrameCheck Check =
      checkFrame(bytes(Buf) + Pos, buffered(), MaxWirePayload, F);
  if (Check == FrameCheck::NeedMore)
    return false;
  if (Check != FrameCheck::Ok) {
    Failed = true;
    Err = frameFault(Check, F);
    return false;
  }
  KindOut = F.Kind;
  PayloadOut.assign(F.Payload);
  Pos += FrameHeaderSize + F.Payload.size();
  return true;
}

int readWireFrame(int Fd, uint8_t &KindOut, std::string &PayloadOut,
                  std::string &Err) {
  std::string Frame(FrameHeaderSize, '\0');
  int R = sys::readFull(Fd, Frame.data(), FrameHeaderSize);
  if (R == 0)
    return 0;
  if (R < 0) {
    Err = "connection closed mid-frame";
    return -1;
  }
  // The header alone settles the length check, before the payload is
  // allocated; the second check sees the whole frame.
  FrameView F;
  FrameCheck C = checkFrame(bytes(Frame), Frame.size(), MaxWirePayload, F);
  if (C == FrameCheck::NeedMore) {
    Frame.resize(FrameHeaderSize + static_cast<size_t>(F.Len));
    if (sys::readFull(Fd, Frame.data() + FrameHeaderSize,
                      static_cast<size_t>(F.Len)) != 1) {
      Err = "connection closed mid-frame";
      return -1;
    }
    C = checkFrame(bytes(Frame), Frame.size(), MaxWirePayload, F);
  }
  if (C != FrameCheck::Ok) {
    Err = frameFault(C, F);
    return -1;
  }
  KindOut = F.Kind;
  PayloadOut.assign(F.Payload);
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
