//===- events/TraceSource.cpp - Format-independent event streams ----------===//

#include "events/TraceSource.h"

#include "events/BinaryFormat.h"
#include "events/BinaryReader.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace velo {

namespace {

/// Text-format source: owns the descriptor openTraceSource opened and
/// reads it through a TraceStream.
class TextTraceSource : public TraceSource {
public:
  TextTraceSource(int Fd, const std::string &Path, SymbolTable &Syms)
      : Fd(Fd), TS(Fd, Path, Syms) {}
  ~TextTraceSource() override { ::close(Fd); }

  TextTraceSource(const TextTraceSource &) = delete;
  TextTraceSource &operator=(const TextTraceSource &) = delete;

  /// The descriptor, for handing a sniffed VELOTRC container to the
  /// binary reader.
  int fd() const { return Fd; }
  std::string_view peek(size_t N) { return TS.peek(N); }

  bool next(Event &Out) override { return TS.next(Out); }
  bool failed() const override { return TS.failed(); }
  bool readFailed() const override { return TS.readFailed(); }
  const std::string &error() const override { return TS.error(); }
  uint64_t lineNo() const override { return TS.lineNo(); }
  uint64_t eventCount() const override { return TS.eventCount(); }
  bool tell(uint64_t &PosOut) override { return TS.tell(PosOut); }
  bool endOfFrame() const override { return false; }

  bool seekTo(uint64_t Pos, uint64_t Line, uint64_t Events,
              std::string &ErrorOut) override {
    if (!TS.seek(Pos, static_cast<size_t>(Line), Events)) {
      ErrorOut = "cannot seek to checkpoint offset " + std::to_string(Pos);
      return false;
    }
    return true;
  }

private:
  const int Fd;
  TraceStream TS;
};

} // namespace

std::string describeFailure(const TraceSource &Src, const std::string &Path) {
  if (Src.readFailed())
    return Src.error();
  // error() is "line N: message"; render as "<path>:N: message".
  return Path + ":" + Src.error().substr(5);
}

std::unique_ptr<TraceSource> openTraceSource(const std::string &Path,
                                             SymbolTable &Syms,
                                             TraceReadStatus &StatusOut,
                                             std::string &ErrorOut) {
  return openTraceSource(Path, Syms, StatusOut, ErrorOut, TraceOpenOptions{});
}

std::unique_ptr<TraceSource> openTraceSource(const std::string &Path,
                                             SymbolTable &Syms,
                                             TraceReadStatus &StatusOut,
                                             std::string &ErrorOut,
                                             const TraceOpenOptions &Opts) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    int Err = errno;
    ErrorOut = "cannot open " + Path + ": " + std::strerror(Err);
    StatusOut =
        Err == ENOENT ? TraceReadStatus::NotFound : TraceReadStatus::IoError;
    return nullptr;
  }
  // The magic is sniffed through the text scanner's own block, so a pipe
  // loses no bytes to the sniff: a text trace is parsed from its start.
  auto Text = std::make_unique<TextTraceSource>(Fd, Path, Syms);
  std::string_view Head = Text->peek(sizeof(binfmt::Magic));
  if (Text->failed()) {
    ErrorOut = Text->error();
    StatusOut = TraceReadStatus::IoError;
    return nullptr;
  }
  if (Head == std::string_view(binfmt::Magic, sizeof(binfmt::Magic))) {
    auto R = std::make_unique<BinaryTraceReader>(Syms);
    StatusOut = R->open(Text->fd(), Path, Opts.Salvage, ErrorOut);
    if (StatusOut == TraceReadStatus::NotFound ||
        StatusOut == TraceReadStatus::IoError)
      return nullptr;
    if (Opts.SalvageOut)
      *Opts.SalvageOut = R->salvage();
    // ParseError: hand the failed reader back so the caller reports it
    // through the same path as a malformed text line.
    return R;
  }
  if (Opts.Salvage) {
    // A text trace, or a prefix too short to keep its 8-byte magic, has
    // nothing frame-structured to salvage.
    ErrorOut = "--salvage requires a VELOTRC binary container and " + Path +
               " is not one";
    StatusOut = TraceReadStatus::ParseError;
    return nullptr;
  }
  StatusOut = TraceReadStatus::Ok;
  return Text;
}

} // namespace velo
