//===- analysis/Snapshot.h - Versioned analysis checkpoints -----*- C++ -*-===//
//
// Binary snapshot format for checkpoint/resume. A snapshot file is
//
//   magic "VELOSNP\n" | u32 version | u32 reserved | u64 payload size |
//   u64 FNV-1a-64 checksum of the payload | payload bytes
//
// with every integer little-endian. The payload is a flat byte stream
// written by SnapshotWriter and decoded by SnapshotReader; nesting (one
// blob per back-end) is encoded as a length-prefixed byte string, so a
// reader can skip a blob it does not understand.
//
// Compatibility contract: the version is bumped on any layout change and a
// mismatched version is rejected up front — snapshots are recovery points
// for the *same* binary, not an archival format. Corruption (truncation,
// bit flips) is caught by the payload checksum before any field is decoded.
// Writing is atomic: the payload goes to "<path>.tmp" and is renamed over
// the target, so a crash mid-write never destroys the previous checkpoint.
//
// Readers use a sticky fail flag instead of exceptions: any out-of-bounds
// read sets failed() and subsequent reads return zero values, so decode
// code can run straight-line and check failed() once at the end.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ANALYSIS_SNAPSHOT_H
#define VELO_ANALYSIS_SNAPSHOT_H

#include "events/BinaryFormat.h"
#include "events/Trace.h"

#include <cstdint>
#include <string>

namespace velo {

/// Current snapshot layout version. Bump on any change to what any
/// serialize() writes; resume rejects mismatches rather than guessing.
inline constexpr uint32_t SnapshotVersion = 6;

/// FNV-1a 64-bit hash of a byte string (the payload checksum).
inline uint64_t snapshotChecksum(const std::string &Bytes) {
  return binfmt::fnv1a64(Bytes);
}

/// Appends fixed-width little-endian primitives to a payload buffer.
class SnapshotWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }

  void u32(uint32_t V) { binfmt::appendU32le(Buf, V); }
  void u64(uint64_t V) { binfmt::appendU64le(Buf, V); }

  void boolean(bool V) { u8(V ? 1 : 0); }

  /// Length-prefixed byte string (also the encoding of nested blobs).
  void str(const std::string &S) {
    u64(S.size());
    Buf.append(S);
  }

  /// Nest another writer's payload as a skippable blob.
  void blob(const SnapshotWriter &Inner) { str(Inner.Buf); }

  const std::string &payload() const { return Buf; }

  /// Write header + checksum + payload to Path atomically (via
  /// "<Path>.tmp" then rename). Returns false with ErrorOut set on I/O
  /// failure; the previous file at Path, if any, is left intact.
  bool writeFile(const std::string &Path, std::string &ErrorOut) const;

private:
  std::string Buf;
};

/// Decodes a payload written by SnapshotWriter. All reads return 0/empty
/// once the sticky fail flag is set.
class SnapshotReader {
public:
  SnapshotReader() = default;
  explicit SnapshotReader(std::string Payload) : Buf(std::move(Payload)) {}

  /// Read and verify a snapshot file (magic, version, checksum). On
  /// success Out holds the payload positioned at the first field.
  static bool readFile(const std::string &Path, SnapshotReader &Out,
                       std::string &ErrorOut);

  uint8_t u8() {
    if (!have(1))
      return 0;
    return static_cast<uint8_t>(Buf[Pos++]);
  }

  uint32_t u32() {
    if (!have(4))
      return 0;
    uint32_t V = binfmt::readU32le(at(Pos));
    Pos += 4;
    return V;
  }

  uint64_t u64() {
    if (!have(8))
      return 0;
    uint64_t V = binfmt::readU64le(at(Pos));
    Pos += 8;
    return V;
  }

  bool boolean() { return u8() != 0; }

  std::string str() {
    uint64_t N = u64();
    if (Failed || !have(N))
      return std::string();
    std::string S = Buf.substr(Pos, N);
    Pos += N;
    return S;
  }

  /// Extract a nested blob as its own reader (failure in the sub-reader
  /// does not poison this one, and vice versa).
  SnapshotReader blob() { return SnapshotReader(str()); }

  bool failed() const { return Failed; }
  bool atEnd() const { return Pos == Buf.size(); }

private:
  const uint8_t *at(size_t Off) const {
    return reinterpret_cast<const uint8_t *>(Buf.data()) + Off;
  }

  bool have(uint64_t N) {
    if (Failed || N > Buf.size() - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  std::string Buf;
  size_t Pos = 0;
  bool Failed = false;
};

/// Serialize a symbol table (three interners, names in id order).
void serializeSymbols(SnapshotWriter &W, const SymbolTable &Syms);

/// Rebuild a symbol table; Syms must be empty (ids are re-interned in
/// order, so they come back identical). Returns false on decode failure.
bool deserializeSymbols(SnapshotReader &R, SymbolTable &Syms);

} // namespace velo

#endif // VELO_ANALYSIS_SNAPSHOT_H
