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
// `velodrome-convert --help` lists the options.
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
#include "support/Syscalls.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

using namespace velo;

int main(int argc, char **argv) {
  sys::ignoreSigpipe(); // closed pager/pipe must be a write error, not death
  TraceFormat To = TraceFormat::Text;
  bool HaveTo = false;
  bool Salvage = false;
  ReportFormat Format = ReportFormat::Text;
  size_t FrameEvents = 0; ///< 0 = not given: the writer's default

  const FlagTable Table{
      "velodrome-convert [options] <in-trace> <out-trace>",
      {{"--to=<text|binary>",
        [&](const std::string &V) {
          HaveTo = true;
          To = V == "binary" ? TraceFormat::Binary : TraceFormat::Text;
          return V == "text" || V == "binary";
        },
        "output format (default: by <out-trace> extension; .vtrc means "
        "binary, else text)"},
       u64Flag("--frame-events=N", FrameEvents,
               "events per binary frame (default " +
                   std::to_string(BinaryTraceWriter::DefaultFrameEvents) + ")",
               1, 1ull << 24),
       boolFlag("--salvage", Salvage,
                "accept the longest intact frame prefix of a truncated .vtrc "
                "input (docs/TRACING.md)"),
       formatFlag(Format)},
      "converts between the text trace grammar and the VELOTRC binary\n"
      "container (docs/INGESTION.md); input format is auto-detected\n"
      "exit: 0 converted, 2 usage/input/parse error\n",
      2, 2};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(argc, argv, Operands); Rc >= 0)
    return Rc;
  const std::string &InFile = Operands[0], &OutFile = Operands[1];
  if (!HaveTo)
    To = traceFormatForWrite(OutFile);
  if (FrameEvents != 0 && To != TraceFormat::Binary) {
    std::fprintf(stderr, "error: --frame-events only applies to binary "
                         "output; add --to=binary or name a .vtrc output\n");
    return 2;
  }

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
  std::fputs(Salv.note().c_str(), stderr);

  std::ofstream Out(OutFile, std::ios::binary | std::ios::trunc);
  if (!Out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 OutFile.c_str());
    return 2;
  }

  std::unique_ptr<BinaryTraceWriter> Bin;
  if (To == TraceFormat::Binary)
    Bin = std::make_unique<BinaryTraceWriter>(
        Out, Syms,
        FrameEvents ? FrameEvents : BinaryTraceWriter::DefaultFrameEvents);
  uint64_t Converted = 0;
  for (Event E; Src->next(E); ++Converted) {
    if (Bin)
      Bin->add(E);
    else
      Out << renderEvent(E, Syms) << '\n';
  }
  if (Src->failed()) {
    std::fprintf(stderr, "error: %s\n", describeFailure(*Src, InFile).c_str());
    return 2;
  }
  if (Bin ? !Bin->finish() : !Out.flush()) {
    std::fprintf(stderr, "error: cannot write %s%s\n", OutFile.c_str(),
                 Bin ? (": " + Bin->error()).c_str() : "");
    return 2;
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
