//===- events/BinaryFormat.h - VELOTRC wire format --------------*- C++ -*-===//
//
// The VELOTRC binary trace format (docs/INGESTION.md has the full spec)
// and its one codec. Layout:
//
//   file    := header frame* index-frame trailer
//   header  := "VELOTRC\n" u32le version=1 u32le reserved=0       (16 bytes)
//   frame   := u8 kind  u32le payload-len  u64le fnv1a64(payload)
//              payload                                            (13B + len)
//   trailer := u64le index-frame-offset  "VELOIDX\n"              (16 bytes)
//
// Events-frame payload (kind 1): three symbol blocks (vars, locks,
// labels), then varint event-count, then the events. A symbol block is
// `varint base-id, varint count, count x (varint len, bytes)`; its base
// must equal the number of names of that kind defined so far, and every
// name it defines must be new, so the ids in a stream are the ids of the
// decoder's symbol table. An event is `u8 op, varint tid[, varint
// target]`; `end` carries no target. The index frame (kind 2) holds, per
// events frame, `varint file-offset, varint first-event-ordinal, varint
// event-count`, then the total event count; the trailer points at it so
// --resume can seek straight to a frame boundary.
//
// Varints are the common LEB128-style base-128 little-endian encoding,
// at most 10 bytes for a u64. Every multi-byte fixed-width integer is
// little-endian. The checksum is FNV-1a-64, which the snapshot container
// (analysis/Snapshot.h) uses too.
//
// Each production of that grammar is written once, below, over a byte
// sink: a growing std::string, or a fixed caller buffer that refuses to
// write past its end. The container writer, the serve wire (serve/Wire.h,
// whose EVENTS payload is an events-frame payload), the LD_PRELOAD tracer
// (preload/TraceRuntime.cpp) and the tests' hand-built containers all
// encode through them. The productions are header-only, and over a fixed
// buffer they allocate, throw, lock and print nothing, so the tracer's
// async-signal-safe flush runs them too. One decoder (checkFrame,
// EventsFrameDecoder) serves the container reader, its salvage pre-scan
// and the wire.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_BINARYFORMAT_H
#define VELO_EVENTS_BINARYFORMAT_H

#include "events/Event.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace velo {

class StringInterner;
struct SymbolTable;

namespace binfmt {

/// First 8 bytes of every VELOTRC file. The trailing '\n' catches text-mode
/// line-ending mangling the same way PNG's magic does.
inline constexpr char Magic[8] = {'V', 'E', 'L', 'O', 'T', 'R', 'C', '\n'};
/// Last 8 bytes of every VELOTRC file (after the index-frame offset).
inline constexpr char TrailerMagic[8] = {'V', 'E', 'L', 'O', 'I', 'D', 'X',
                                         '\n'};
inline constexpr uint32_t Version = 1;

inline constexpr size_t HeaderSize = 16;  ///< magic + version + reserved
inline constexpr size_t FrameHeaderSize = 13; ///< kind + len + checksum
inline constexpr size_t TrailerSize = 16; ///< index offset + trailer magic

enum FrameKind : uint8_t {
  EventsFrame = 1,
  IndexFrame = 2,
};

/// Largest events-frame payload a reader will accept; bounds a hostile
/// length field before the checksum is even computed.
inline constexpr uint64_t MaxFramePayload = 1ull << 30;

/// FNV-1a-64, fed incrementally.
struct Fnv1a64 {
  uint64_t Value = 14695981039346656037ull;
  void add(const char *Data, size_t N) {
    for (size_t I = 0; I < N; ++I) {
      Value ^= static_cast<unsigned char>(Data[I]);
      Value *= 1099511628211ull;
    }
  }
};

/// FNV-1a-64 over Data.
inline uint64_t fnv1a64(std::string_view Data) {
  Fnv1a64 H;
  H.add(Data.data(), Data.size());
  return H.Value;
}

//===----------------------------------------------------------------------===//
// Byte sinks: where a production writes, through byte(B) and bytes(P, N).
// A production takes its sink by forwarding reference, so a StringSink can
// be a temporary and a BufferSink a variable whose Ok is read afterwards.
//===----------------------------------------------------------------------===//

/// Appends to a growing string.
struct StringSink {
  std::string &Out;
  void byte(uint8_t B) { Out += static_cast<char>(B); }
  void bytes(const char *Data, size_t N) { Out.append(Data, N); }
};

/// Writes into the caller's buffer [P, End). A write that does not fit
/// writes nothing and clears Ok, so no byte at or past End is touched.
struct BufferSink {
  char *P;
  char *End;
  bool Ok = true;
  void byte(uint8_t B) { bytes(reinterpret_cast<const char *>(&B), 1); }
  void bytes(const char *Data, size_t N) {
    if (static_cast<size_t>(End - P) < N) {
      Ok = false;
      return;
    }
    std::memcpy(P, Data, N);
    P += N;
  }
};

/// Writes nothing: counts and checksums the bytes, so that a frame header
/// can go out before a payload that is streamed rather than buffered.
struct HashSink {
  uint64_t Len = 0;
  Fnv1a64 Sum;
  void byte(uint8_t B) { bytes(reinterpret_cast<const char *>(&B), 1); }
  void bytes(const char *Data, size_t N) {
    Len += N;
    Sum.add(Data, N);
  }
};

//===----------------------------------------------------------------------===//
// Encoder: one production per piece of the grammar
//===----------------------------------------------------------------------===//

/// V as a base-128 varint (7 data bits per byte, high bit = more).
template <class Sink> void putVarint(Sink &&S, uint64_t V) {
  while (V >= 0x80) {
    S.byte(static_cast<uint8_t>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  S.byte(static_cast<uint8_t>(V));
}

template <class Sink> void putU32le(Sink &&S, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    S.byte(static_cast<uint8_t>(V >> (8 * I)));
}

template <class Sink> void putU64le(Sink &&S, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    S.byte(static_cast<uint8_t>(V >> (8 * I)));
}

/// The file header: magic, version, reserved (HeaderSize bytes).
template <class Sink> void putHeader(Sink &&S) {
  S.bytes(Magic, sizeof(Magic));
  putU32le(S, Version);
  putU32le(S, 0);
}

/// A frame header: kind, payload length, the payload's FNV-1a-64
/// (FrameHeaderSize bytes). The caller keeps Len within the u32 field.
template <class Sink>
void putFrameHeader(Sink &&S, uint8_t Kind, uint64_t Len, uint64_t Sum) {
  S.byte(Kind);
  putU32le(S, static_cast<uint32_t>(Len));
  putU64le(S, Sum);
}

/// A symbol block defining ids [Base, Base + Count): base, count, then
/// each name's length and bytes. Name(Id) returns a std::string_view.
template <class Sink, class NameFn>
void putSymbolBlock(Sink &&S, uint64_t Base, uint64_t Count, NameFn Name) {
  putVarint(S, Base);
  putVarint(S, Count);
  for (uint64_t I = 0; I < Count; ++I) {
    const std::string_view N = Name(Base + I);
    putVarint(S, N.size());
    S.bytes(N.data(), N.size());
  }
}

/// An event: op byte, tid, and the target unless the op is End. Any op
/// byte is written as given.
template <class Sink>
void putEvent(Sink &&S, uint8_t OpByte, uint64_t Tid, uint64_t Target) {
  S.byte(OpByte);
  putVarint(S, Tid);
  if (OpByte != static_cast<uint8_t>(Op::End))
    putVarint(S, Target);
}

/// One events frame, as the index frame lists it.
struct IndexEntry {
  uint64_t Offset;       ///< file offset of the frame header
  uint64_t FirstOrdinal; ///< 0-based ordinal of the frame's first event
  uint64_t Count;        ///< events in the frame
};

/// The index-frame payload: entry count, the entries, total event count.
template <class Sink>
void putIndexPayload(Sink &&S, std::span<const IndexEntry> Entries,
                     uint64_t TotalEvents) {
  putVarint(S, Entries.size());
  for (const IndexEntry &E : Entries) {
    putVarint(S, E.Offset);
    putVarint(S, E.FirstOrdinal);
    putVarint(S, E.Count);
  }
  putVarint(S, TotalEvents);
}

/// The trailer: the index frame's offset, then the trailer magic
/// (TrailerSize bytes).
template <class Sink> void putTrailer(Sink &&S, uint64_t IndexOffset) {
  putU64le(S, IndexOffset);
  S.bytes(TrailerMagic, sizeof(TrailerMagic));
}

/// The integer productions over a string, for the encoders outside the
/// container (serve's control frames, the snapshot container).
inline void appendVarint(std::string &Out, uint64_t V) {
  putVarint(StringSink{Out}, V);
}
inline void appendU32le(std::string &Out, uint32_t V) {
  putU32le(StringSink{Out}, V);
}
inline void appendU64le(std::string &Out, uint64_t V) {
  putU64le(StringSink{Out}, V);
}

/// Append one events-frame payload for Events to Out. The Done counters
/// are the names of each kind already emitted on this stream; each block
/// defines the names from there up to the largest id Events references
/// (ids are dense in first-use order, so that is exactly the names these
/// events are the first to need), and the counters advance past them.
void appendEventsPayload(std::string &Out, std::span<const Event> Events,
                         const SymbolTable &Syms, size_t &VarsDone,
                         size_t &LocksDone, size_t &LabelsDone);

/// Append one frame: kind, payload length, FNV-1a-64, payload.
void appendFrame(std::string &Out, uint8_t Kind, std::string_view Payload);

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

/// Decode a varint from Data[*Pos..Size). Returns false on truncation or
/// an over-long (> 10 byte / > 64 bit) encoding; *Pos is advanced past
/// the varint on success.
inline bool readVarint(const uint8_t *Data, size_t Size, size_t &Pos,
                       uint64_t &Out) {
  uint64_t V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    if (Pos >= Size)
      return false;
    uint8_t B = Data[Pos++];
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (Shift == 63 && (B & 0xfe) != 0)
      return false; // bits beyond 64
    if ((B & 0x80) == 0) {
      Out = V;
      return true;
    }
  }
  return false;
}

inline uint32_t readU32le(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

inline uint64_t readU64le(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = V << 8 | P[I];
  return V;
}

enum class FrameCheck {
  Ok,
  NeedMore,   ///< the bytes end inside the header or the payload
  TooLong,    ///< the length field exceeds the caller's cap
  BadChecksum,
};

struct FrameView {
  uint8_t Kind = 0; ///< set once the header is in
  uint64_t Len = 0; ///< the length field, set once the header is in
  std::string_view Payload; ///< set on Ok and BadChecksum
};

/// The one frame check: Data[0..Avail) starts with a frame header whose
/// length is at most Cap, followed by a payload that matches the checksum.
/// TooLong is found from the header alone, before any payload byte is
/// needed; the caller judges the kind.
FrameCheck checkFrame(const uint8_t *Data, size_t Avail, uint64_t Cap,
                      FrameView &Out);

/// A cursor over one events-frame payload. start() reads the symbol
/// blocks, interning their names into Syms, and the event count; next()
/// then decodes one event at a time, and finish() checks that the payload
/// ends after the last one. Each returns false on a malformed payload,
/// with error() saying why, and the caller stops there. Names a failing
/// start() interned stay in Syms.
class EventsFrameDecoder {
public:
  /// Payload is borrowed: it must outlive the last next() or finish().
  bool start(std::string_view Payload, SymbolTable &Syms);

  /// Events not yet decoded.
  uint64_t left() const { return Left; }

  /// Decode the next event; left() must be nonzero. Ids are checked
  /// against the names defined when start() returned.
  bool next(Event &Out) {
    if (Pos >= Size)
      return fault("truncated event");
    const uint8_t OpByte = Data[Pos++];
    if (OpByte > static_cast<uint8_t>(Op::Join))
      return badOp(OpByte);
    uint64_t TidV = 0;
    if (!readVarint(Data, Size, Pos, TidV))
      return fault("truncated event");
    if (TidV >= MaxTraceThreads)
      return badThread(TidV);
    const Op Kind = static_cast<Op>(OpByte);
    uint64_t TargetV = 0;
    if (Kind != Op::End) {
      if (!readVarint(Data, Size, Pos, TargetV))
        return fault("truncated event");
      if (TargetV >= TargetBound[OpByte] &&
          !(Kind == Op::Begin && TargetV == NoLabel))
        return badTarget(Kind, TargetV);
    }
    Out = Event{Kind, static_cast<Tid>(TidV), static_cast<uint32_t>(TargetV)};
    --Left;
    return true;
  }

  /// After the last event: true when no bytes follow it.
  bool finish() { return Pos == Size || fault("trailing bytes after events"); }

  const std::string &error() const { return Err; }

private:
  bool fault(const char *Msg);
  bool badOp(uint8_t OpByte);
  bool badThread(uint64_t TidV);
  bool badTarget(Op Kind, uint64_t TargetV);
  bool readBlock(StringInterner &Table, const char *What);

  const uint8_t *Data = nullptr;
  size_t Size = 0;
  size_t Pos = 0;
  uint64_t Left = 0;
  /// Exclusive bound on each op's target (End has none).
  uint64_t TargetBound[8] = {};
  std::string Err;
};

} // namespace binfmt
} // namespace velo

#endif // VELO_EVENTS_BINARYFORMAT_H
