//===- serve/Wire.h - velodrome-serve wire protocol -------------*- C++ -*-===//
//
// Length-framed session protocol for the velodrome-serve daemon, built on
// the VELOTRC frame codec (events/BinaryFormat.h): every message is
//
//   frame := u8 kind  u32le payload-len  u64le fnv1a64(payload)  payload
//
// — the 13-byte header the .vtrc container uses, checked by the same
// binfmt::checkFrame under the wire's own length cap. An EVENTS payload
// *is* a VELOTRC events-frame payload (symbol blocks + varint-coded
// events): it is encoded and decoded by the codec the container writer and
// reader run, with the same diagnostics, so the payloads of a .vtrc
// file's events frames stream over a socket unmodified.
//
// Session lifecycle (docs/OPERATIONS.md §6.1 has the full grammar):
//
//   client: HELLO ──▶            server: HELLO-OK (resume position, credit)
//   client: EVENTS* ──▶          server: ACK per frame (progress, credit)
//   client: CHECKPOINT ──▶       server: ACK (durable events count)
//   client: FINISH ──▶           server: VERDICT (report, exit code)
//   server: NAK at any point     (flow-control violation, parse error,
//                                 resource exhaustion; Fatal closes)
//
// Flow control is credit-based: the client may have at most `Credit`
// un-acked EVENTS frames in flight. A client that overruns the bound gets
// a NAK and is disconnected — per-session buffering is bounded by
// construction, never elastic.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SERVE_WIRE_H
#define VELO_SERVE_WIRE_H

#include "analysis/Governor.h"
#include "events/BinaryFormat.h"
#include "events/Trace.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace velo {
namespace serve {

inline constexpr uint32_t ProtocolVersion = 1;

/// Largest protocol frame payload either side accepts: bounds a hostile
/// length field before the checksum is even computed. Far above any sane
/// events frame, far below a memory-exhaustion vector.
inline constexpr uint64_t MaxWirePayload = 1ull << 24;

/// Protocol frame kinds. Values deliberately avoid the VELOTRC container
/// kinds (1, 2) so a .vtrc file cat'ed at the socket is rejected cleanly.
enum WireKind : uint8_t {
  // client -> server
  HelloKind = 0x10,      ///< open (or resume) a session
  EventsKind = 0x11,     ///< one VELOTRC events-frame payload
  CheckpointKind = 0x12, ///< request a durable snapshot now
  FinishKind = 0x13,     ///< end of stream: flush and render the verdict
  // server -> client
  HelloOkKind = 0x20, ///< session accepted
  AckKind = 0x21,     ///< per-frame progress + flow-control credit
  NakKind = 0x22,     ///< refusal; Fatal means the session is over
  VerdictKind = 0x23, ///< final report
};

struct HelloMsg {
  uint32_t Version = ProtocolVersion;
  std::string Name;              ///< display name used in the report
  std::string BackendSel = "all";
  bool Lenient = false;
  bool Resume = false; ///< rehydrate the named session from its snapshot
  /// Report rendering for the VERDICT frame: 0 text (byte-identical to
  /// velodrome-check stdout), 1 json, 2 sarif (docs/REPORTING.md).
  uint8_t Format = 0;
  /// Per-session governor caps; zeroes mean "server defaults".
  GovernorLimits Limits;
};

struct HelloOkMsg {
  uint64_t Events = 0; ///< events already absorbed (resume position)
  uint64_t Credit = 0; ///< EVENTS frames the client may have un-acked
  /// Symbol high-water marks already defined on the stream, so a resuming
  /// client primes its encoder and the symbol blocks stay contiguous.
  uint64_t VarsDone = 0, LocksDone = 0, LabelsDone = 0;
};

struct AckMsg {
  uint64_t Events = 0;  ///< events absorbed so far
  uint64_t Credit = 0;  ///< refreshed flow-control window
  uint64_t Durable = 0; ///< events covered by the last on-disk snapshot
};

struct NakMsg {
  bool Fatal = false;
  std::string Reason;
};

struct VerdictMsg {
  uint8_t ExitCode = 0; ///< velodrome-check exit-code contract (0/1/3)
  std::string Report;   ///< byte-identical to velodrome-check's stdout
  std::string Notes;    ///< stderr-equivalent diagnostics (repairs, governor)
};

// Message codecs. Encoders produce the frame *payload*; decoders return
// false with Err set on any malformed field (decoding never trusts input).
std::string encodeHello(const HelloMsg &M);
bool decodeHello(const uint8_t *Data, size_t Size, HelloMsg &Out,
                 std::string &Err);
std::string encodeHelloOk(const HelloOkMsg &M);
bool decodeHelloOk(const uint8_t *Data, size_t Size, HelloOkMsg &Out,
                   std::string &Err);
std::string encodeAck(const AckMsg &M);
bool decodeAck(const uint8_t *Data, size_t Size, AckMsg &Out,
               std::string &Err);
std::string encodeNak(const NakMsg &M);
bool decodeNak(const uint8_t *Data, size_t Size, NakMsg &Out,
               std::string &Err);
std::string encodeVerdict(const VerdictMsg &M);
bool decodeVerdict(const uint8_t *Data, size_t Size, VerdictMsg &Out,
                   std::string &Err);

/// Append one VELOTRC events-frame payload covering Events[Begin..End) to
/// Out through binfmt::appendEventsPayload, the container writer's
/// encoder. The Done counters are the per-kind symbol high-water marks
/// already emitted on this stream; they advance as blocks are written.
void encodeEventsPayload(std::string &Out, const std::vector<Event> &Events,
                         size_t Begin, size_t End, const SymbolTable &Syms,
                         size_t &VarsDone, size_t &LocksDone,
                         size_t &LabelsDone);

/// Decode a whole events-frame payload through binfmt::EventsFrameDecoder,
/// the container reader's decoder, interning new names into Syms (which
/// must contain exactly the stream's previously defined names, so ids
/// align) and appending the events to Out. Err gets the decoder's message,
/// the one a container reader prints after "line N: ".
bool decodeEventsPayload(const uint8_t *Data, size_t Size, SymbolTable &Syms,
                         std::vector<Event> &Out, std::string &Err);

/// Render the 13-byte frame header + payload as wire bytes.
std::string frameBytes(uint8_t Kind, std::string_view Payload);

/// Incremental frame assembler for non-blocking reads: append() raw
/// socket bytes, then drain complete frames with next(). Checksum and
/// length bounds are enforced here, so a torn or corrupted frame surfaces
/// as failed() with a diagnostic, never as a half-parsed message.
class FrameSplitter {
public:
  void append(const char *Data, size_t N) { Buf.append(Data, N); }

  /// Extract the next complete frame. Returns false when more bytes are
  /// needed (or after a failure — check failed()).
  bool next(uint8_t &KindOut, std::string &PayloadOut);

  bool failed() const { return Failed; }
  const std::string &error() const { return Err; }

  /// Bytes currently buffered (bounded by the server's input cap).
  size_t buffered() const { return Buf.size() - Pos; }

  /// True while a partially received frame sits in the buffer (slow-loris
  /// detection: partial frames have an assembly deadline).
  bool midFrame() const { return buffered() > 0; }

private:
  std::string Buf;
  size_t Pos = 0;
  bool Failed = false;
  std::string Err;
};

// Blocking-fd frame I/O (client side and tests; the server uses
// FrameSplitter over non-blocking reads). readWireFrame returns 1 on a
// frame, 0 on clean EOF before a header byte, -1 on error with Err set.
int readWireFrame(int Fd, uint8_t &KindOut, std::string &PayloadOut,
                  std::string &Err);
bool writeWireFrame(int Fd, uint8_t Kind, std::string_view Payload,
                    std::string &Err);

} // namespace serve
} // namespace velo

#endif // VELO_SERVE_WIRE_H
