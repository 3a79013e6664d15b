//===- analysis/Snapshot.cpp - Versioned analysis checkpoints -------------===//

#include "analysis/Snapshot.h"

#include "support/Syscalls.h"

#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>

namespace velo {

namespace {

// "VELOSNP\n": seven printable bytes plus a newline so that cat'ing a
// snapshot to a terminal shows one clean marker line, like PNG's header.
constexpr char Magic[8] = {'V', 'E', 'L', 'O', 'S', 'N', 'P', '\n'};

} // namespace

bool SnapshotWriter::writeFile(const std::string &Path,
                               std::string &ErrorOut) const {
  std::string File;
  File.reserve(sizeof(Magic) + 24 + Buf.size());
  File.append(Magic, sizeof(Magic));
  binfmt::appendU32le(File, SnapshotVersion);
  binfmt::appendU32le(File, 0); // reserved
  binfmt::appendU64le(File, Buf.size());
  binfmt::appendU64le(File, snapshotChecksum(Buf));
  File.append(Buf);

  // Raw POSIX I/O with EINTR retries: snapshots are written from
  // supervised workers and the serve daemon, where SIGCHLD/SIGTERM land
  // mid-write routinely; an interrupted syscall must not cost the
  // checkpoint (support/Syscalls.h).
  std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    ErrorOut = "cannot open " + Tmp + " for writing";
    return false;
  }
  if (!sys::writeAll(Fd, File.data(), File.size())) {
    sys::closeQuiet(Fd);
    ErrorOut = "short write to " + Tmp;
    std::remove(Tmp.c_str());
    return false;
  }
  sys::closeQuiet(Fd);
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ErrorOut = "cannot rename " + Tmp + " to " + Path;
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool SnapshotReader::readFile(const std::string &Path, SnapshotReader &Out,
                              std::string &ErrorOut) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    ErrorOut = "cannot open snapshot " + Path;
    return false;
  }
  std::string File((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  constexpr size_t HeaderSize = sizeof(Magic) + 4 + 4 + 8 + 8;
  if (File.size() < HeaderSize ||
      std::memcmp(File.data(), Magic, sizeof(Magic)) != 0) {
    ErrorOut = Path + ": not a snapshot file (bad magic)";
    return false;
  }
  const auto *Head =
      reinterpret_cast<const uint8_t *>(File.data()) + sizeof(Magic);
  uint32_t Version = binfmt::readU32le(Head);
  if (Version != SnapshotVersion) {
    ErrorOut = Path + ": snapshot version " + std::to_string(Version) +
               " does not match this binary's version " +
               std::to_string(SnapshotVersion);
    return false;
  }
  uint64_t PayloadSize = binfmt::readU64le(Head + 8);
  uint64_t Checksum = binfmt::readU64le(Head + 16);
  if (File.size() - HeaderSize != PayloadSize) {
    ErrorOut = Path + ": truncated snapshot (payload " +
               std::to_string(File.size() - HeaderSize) + " of " +
               std::to_string(PayloadSize) + " bytes)";
    return false;
  }
  std::string Payload = File.substr(HeaderSize);
  if (snapshotChecksum(Payload) != Checksum) {
    ErrorOut = Path + ": snapshot checksum mismatch (corrupt file)";
    return false;
  }
  Out = SnapshotReader(std::move(Payload));
  return true;
}

namespace {

void serializeInterner(SnapshotWriter &W, const StringInterner &I) {
  W.u64(I.size());
  for (uint32_t Id = 0; Id < I.size(); ++Id)
    W.str(I.name(Id));
}

bool deserializeInterner(SnapshotReader &R, StringInterner &I) {
  uint64_t N = R.u64();
  for (uint64_t Id = 0; Id < N && !R.failed(); ++Id)
    I.intern(R.str());
  return !R.failed() && I.size() == N;
}

} // namespace

void serializeSymbols(SnapshotWriter &W, const SymbolTable &Syms) {
  serializeInterner(W, Syms.Vars);
  serializeInterner(W, Syms.Locks);
  serializeInterner(W, Syms.Labels);
}

bool deserializeSymbols(SnapshotReader &R, SymbolTable &Syms) {
  return deserializeInterner(R, Syms.Vars) &&
         deserializeInterner(R, Syms.Locks) &&
         deserializeInterner(R, Syms.Labels);
}

} // namespace velo
