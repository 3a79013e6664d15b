//===- tools/velodrome-convert.cpp - Trace format converter ---------------===//
//
// Converts between the text trace grammar (events/TraceText.h) and the
// VELOTRC binary container (events/BinaryFormat.h), in either direction;
// the input format is auto-detected from the file's first bytes. The
// conversion streams — events are re-emitted as they parse — so it runs
// in constant memory over arbitrarily long traces.
//
//   velodrome-convert [options] <in-trace> <out-trace>
//
//     --to=<text|binary>   output format (default: by <out-trace>
//                          extension — .vtrc means binary, else text)
//     --frame-events=N     events per binary frame (default 4096)
//     --format=<text|json|sarif>  conversion-summary rendering: json and
//                          sarif write a findings-free report document to
//                          stdout (docs/REPORTING.md)
//
// Both directions are verdict-preserving by construction (the checker
// sees the identical event stream), and binary -> text -> binary is a
// byte-identical fixpoint: the writer's canonical first-use symbol order
// is exactly the order the text parser re-interns.
//
// Exit status: 0 converted, 2 usage/input/parse error.
//
//===----------------------------------------------------------------------===//

#include "events/BinaryWriter.h"
#include "events/TraceSource.h"
#include "events/TraceText.h"
#include "report/Report.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <unistd.h>

#include "support/ParseInt.h"
#include "support/Syscalls.h"

using namespace velo;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: velodrome-convert [options] <in-trace> <out-trace>\n"
      "  --to=<text|binary>  output format (default: by <out-trace>\n"
      "                      extension -- .vtrc means binary, else text)\n"
      "  --frame-events=N    events per binary frame (default %zu)\n"
      "  --salvage           accept the longest intact frame prefix of a\n"
      "                      truncated .vtrc input (see docs/TRACING.md)\n"
      "  --format=<text|json|sarif>  summary rendering (default text;\n"
      "                      see docs/REPORTING.md)\n"
      "converts between the text trace grammar and the VELOTRC binary\n"
      "container (docs/INGESTION.md); input format is auto-detected\n"
      "exit: 0 converted, 2 usage/input/parse error\n",
      BinaryTraceWriter::DefaultFrameEvents);
}

} // namespace

int main(int argc, char **argv) {
  sys::ignoreSigpipe(); // closed pager/pipe must be a write error, not death
  std::string InFile, OutFile;
  TraceFormat To = TraceFormat::Text;
  bool HaveTo = false;
  bool Salvage = false;
  ReportFormat Format = ReportFormat::Text;
  size_t FrameEvents = BinaryTraceWriter::DefaultFrameEvents;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--to=", 0) == 0) {
      std::string V = Arg.substr(5);
      if (V == "text") {
        To = TraceFormat::Text;
      } else if (V == "binary") {
        To = TraceFormat::Binary;
      } else {
        std::fprintf(stderr, "error: bad --to format '%s'\n", V.c_str());
        usage();
        return 2;
      }
      HaveTo = true;
    } else if (Arg.rfind("--frame-events=", 0) == 0) {
      uint64_t N = 0;
      if (!parseU64(Arg.c_str() + 15, N) || N == 0 || N > (1ull << 24)) {
        std::fprintf(stderr, "error: bad --frame-events value\n");
        return 2;
      }
      FrameEvents = static_cast<size_t>(N);
    } else if (Arg == "--salvage") {
      Salvage = true;
    } else if (Arg.rfind("--format=", 0) == 0) {
      if (!parseReportFormat(Arg.substr(9), Format)) {
        std::fprintf(stderr, "invalid value in '%s'\n", Arg.c_str());
        usage();
        return 2;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", Arg.c_str());
      usage();
      return 2;
    } else if (InFile.empty()) {
      InFile = Arg;
    } else if (OutFile.empty()) {
      OutFile = Arg;
    } else {
      usage();
      return 2;
    }
  }
  if (InFile.empty() || OutFile.empty()) {
    usage();
    return 2;
  }
  if (!HaveTo)
    To = traceFormatForWrite(OutFile);

  SymbolTable Syms;
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string Err;
  TraceOpenOptions Opts;
  Opts.Salvage = Salvage;
  SalvageSummary Salv;
  Opts.SalvageOut = &Salv;
  auto Src = openTraceSource(InFile, Syms, St, Err, Opts);
  if (!Src) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  if (Salv.Used)
    std::fprintf(stderr,
                 "salvage: recovered %llu frame(s) (%llu event(s)); dropped "
                 "%llu trailing byte(s)\n",
                 static_cast<unsigned long long>(Salv.FramesKept),
                 static_cast<unsigned long long>(Salv.EventsKept),
                 static_cast<unsigned long long>(Salv.BytesDropped));

  std::ofstream Out(OutFile, std::ios::binary | std::ios::trunc);
  if (!Out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 OutFile.c_str());
    return 2;
  }

  uint64_t Converted = 0;
  if (To == TraceFormat::Binary) {
    BinaryTraceWriter W(Out, Syms, FrameEvents);
    Event E;
    while (Src->next(E))
      W.add(E);
    if (Src->failed()) {
      std::fprintf(stderr, "error: %s\n",
                   describeFailure(*Src, InFile).c_str());
      return 2;
    }
    if (!W.finish()) {
      std::fprintf(stderr, "error: cannot write %s: %s\n", OutFile.c_str(),
                   W.error().c_str());
      return 2;
    }
    Converted = W.eventCount();
  } else {
    Event E;
    while (Src->next(E)) {
      Out << renderEvent(E, Syms) << '\n';
      ++Converted;
    }
    if (Src->failed()) {
      std::fprintf(stderr, "error: %s\n",
                   describeFailure(*Src, InFile).c_str());
      return 2;
    }
    Out.flush();
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
      return 2;
    }
  }

  std::fprintf(stderr, "converted %llu events: %s -> %s (%s)\n",
               static_cast<unsigned long long>(Converted), InFile.c_str(),
               OutFile.c_str(), To == TraceFormat::Binary ? "binary" : "text");
  if (Format != ReportFormat::Text) {
    // A conversion has no findings; the machine report carries the run
    // metadata so callers get one uniform document shape across tools.
    ReportManager RM;
    RM.Run.Tool = "velodrome-convert";
    RM.Run.Trace = InFile;
    RM.Run.Events = Converted;
    RM.Run.SanitizedEvents = Converted;
    RM.Run.ExitCode = 0;
    const std::string Doc = RM.render(Format);
    std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  }
  return 0;
}
