//===- bench/ingestion_throughput.cpp - Streaming-ingestion benchmark -----===//
//
// Measures the hardened ingestion path end to end: write an N-event trace to
// disk, then stream it (openTraceSource -> TraceSanitizer -> AeroDrome) the
// way velodrome-check's default path does, reporting events/sec and peak
// RSS. The point of the RSS column is the acceptance criterion of the
// ingestion work: memory must stay flat in trace length on the streaming
// path (the whole-file Trace object is only built for --witness).
//
// The run also converts the trace to the VELOTRC binary container
// (docs/INGESTION.md) and compares parse-only throughput over the same
// event stream: the mmap'd binary reader, the text block scanner, and a
// std::getline tokenizer that copies every token into a std::string (the
// text reader the block scanner replaced, kept here as a fixed baseline).
// --check turns two ratios into a gate. Binary must be at least 1.5x text:
// that guards the binary reader. The block scanner must be at least 1.5x
// the getline tokenizer, on the same file in the same process: that guards
// the scanner's fast path against a baseline whose code never changes and
// which slows down with the host as the scanner does (binary/text swung
// from 4x to 8x on one unchanged build).
//
//   ingestion_throughput [options]   (`--help` lists them)
//
// Exit: 0 ok, 1 measurement failed or the --check gate missed, 2 usage.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "events/BinaryWriter.h"
#include "events/TraceGen.h"
#include "events/TraceSanitizer.h"
#include "events/TraceSource.h"
#include "events/TraceText.h"
#include "support/Flags.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

using namespace velo;

namespace {

long maxRssKb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss;
}

/// The bars --check holds parse-only throughput to: binary over the text
/// block scanner, and the block scanner over the getline tokenizer.
constexpr double MinBinaryOverText = 1.5;
constexpr double MinScanOverGetline = 1.5;

/// Write an approximately NumEvents-long well-formed trace to Path in
/// bounded memory (generated and flushed in closed chunks).
uint64_t writeBigTrace(const std::string &Path, uint64_t NumEvents,
                       uint64_t Seed) {
  std::ofstream Out(Path);
  TraceGenOptions Opts;
  Opts.Threads = 8;
  Opts.Vars = 64;
  Opts.Locks = 8;
  Opts.Steps = 20000;
  Opts.GuardedAccessPct = 60;
  uint64_t Written = 0;
  for (uint64_t Chunk = 0; Written < NumEvents; ++Chunk) {
    Trace T = generateClosedChunk(Seed, Chunk, Opts);
    Out << printTrace(T);
    Written += T.size();
  }
  return Written;
}

/// Open Path the way the tools do (either encoding). Null on failure.
std::unique_ptr<TraceSource> openSource(const std::string &Path,
                                        SymbolTable &Syms) {
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string Err;
  auto Src = openTraceSource(Path, Syms, St, Err);
  if (!Src)
    std::fprintf(stderr, "%s\n", Err.c_str());
  return Src;
}

/// Stream the text trace through the binary writer (constant memory).
bool convertToBinary(const std::string &TextPath, const std::string &BinPath,
                     uint64_t &EventsOut) {
  SymbolTable Syms;
  auto Src = openSource(TextPath, Syms);
  if (!Src)
    return false;
  std::ofstream Out(BinPath, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  BinaryTraceWriter Writer(Out, Syms);
  Event E;
  while (Src->next(E))
    Writer.add(E);
  if (Src->failed() || !Writer.finish())
    return false;
  EventsOut = Writer.eventCount();
  return true;
}

/// Parse-only drain of either encoding: decoder + interner, no sanitizer,
/// no back-end. Returns events/sec (0 on failure).
double drainMevs(const std::string &Path, uint64_t &EventsOut) {
  SymbolTable Syms;
  auto Src = openSource(Path, Syms);
  if (!Src)
    return 0;
  Event E;
  uint64_t N = 0;
  auto Start = std::chrono::steady_clock::now();
  while (Src->next(E))
    ++N;
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  if (Src->failed())
    return 0;
  EventsOut = N;
  return N / Secs;
}

/// Parse-only drain of a text trace the way the tools read one before the
/// block scanner: std::getline, then the line's whitespace-separated tokens
/// (at most three) copied into std::strings, a thread id, and the name
/// interned. Returns events/sec (0 on a line the generator never writes).
double getlineMevs(const std::string &Path, uint64_t &EventsOut) {
  std::ifstream In(Path);
  if (!In)
    return 0;
  SymbolTable Syms;
  std::string Line, Toks[4];
  auto Space = [](char C) {
    return std::isspace(static_cast<unsigned char>(C));
  };
  auto ParseTid = [](const std::string &Tok, Tid &T) {
    if (Tok.size() < 2 || Tok[0] != 'T')
      return false;
    T = static_cast<Tid>(std::strtoul(Tok.c_str() + 1, nullptr, 10));
    return true;
  };
  uint64_t N = 0;
  auto Start = std::chrono::steady_clock::now();
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (size_t Hash = Line.find('#'); Hash != std::string::npos)
      Line.resize(Hash);
    size_t K = 0;
    for (size_t I = 0; K < 4;) {
      while (I < Line.size() && Space(Line[I]))
        ++I;
      if (I == Line.size())
        break;
      size_t B = I;
      while (I < Line.size() && !Space(Line[I]))
        ++I;
      Toks[K++] = Line.substr(B, I - B);
    }
    if (K == 0)
      continue;
    Tid T = 0, U = 0;
    const std::string &Op = Toks[1];
    if (K == 4 || K < 2 || !ParseTid(Toks[0], T))
      return 0;
    if (Op == "end" && K == 2) {
      ++N;
      continue;
    }
    if (K != 3)
      return 0;
    if (Op == "rd" || Op == "wr")
      Syms.Vars.intern(Toks[2]);
    else if (Op == "acq" || Op == "rel")
      Syms.Locks.intern(Toks[2]);
    else if (Op == "begin")
      Syms.Labels.intern(Toks[2]);
    else if ((Op != "fork" && Op != "join") || !ParseTid(Toks[2], U))
      return 0;
    ++N;
  }
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  EventsOut = N;
  return N / Secs;
}

long fileSizeKb(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  return In ? static_cast<long>(In.tellg()) / 1024 : 0;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t NumEvents = 10'000'000, Seed = 1;
  bool Keep = false, Check = false;
  const FlagTable Table{
      "ingestion_throughput [options]",
      {u64Flag("--events=N", NumEvents,
               "approximate trace length (default 10000000)"),
       u64Flag("--seed=N", Seed, "generator seed (default 1)"),
       boolFlag("--keep", Keep, "keep the generated trace files"),
       boolFlag("--check", Check,
                "gate: binary >= 1.5x text parse throughput, and the text "
                "block scanner >= 1.5x the getline tokenizer")},
      "exit: 0 ok, 1 measurement failed or the --check gate missed, "
      "2 usage error\n"};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(argc, argv, Operands); Rc >= 0)
    return Rc;

  std::string Path = "/tmp/velo_ingestion_bench.trace";
  std::string BinPath = "/tmp/velo_ingestion_bench.vtrc";
  std::printf("generating ~%llu events to %s...\n",
              static_cast<unsigned long long>(NumEvents), Path.c_str());
  uint64_t Written = writeBigTrace(Path, NumEvents, Seed);
  long RssAfterGen = maxRssKb();

  uint64_t BinEvents = 0;
  if (!convertToBinary(Path, BinPath, BinEvents) || BinEvents != Written) {
    std::fprintf(stderr, "binary conversion failed\n");
    return 1;
  }

  // Parse-only comparison over identical event streams. Both files are
  // already warm in the page cache from generation and conversion, so the
  // order does not favor any reader. The two text readers take the best of
  // three interleaved passes: the bar compares them, and one pass slowed
  // by a shared host would otherwise decide it.
  uint64_t TextParsed = 0, BinParsed = 0, GetlineParsed = 0;
  double BinEvs = drainMevs(BinPath, BinParsed);
  double TextEvs = 0, GetlineEvs = 0;
  bool Drained = BinEvs != 0 && BinParsed == Written;
  for (int Pass = 0; Drained && Pass < 3; ++Pass) {
    double T = drainMevs(Path, TextParsed);
    double G = getlineMevs(Path, GetlineParsed);
    Drained = T != 0 && G != 0 && TextParsed == Written &&
              GetlineParsed == Written;
    TextEvs = std::max(TextEvs, T);
    GetlineEvs = std::max(GetlineEvs, G);
  }
  if (!Drained) {
    std::fprintf(stderr, "parse-only drain failed or event counts differ\n");
    return 1;
  }
  double Mult = BinEvs / TextEvs;
  double ScanMult = TextEvs / GetlineEvs;

  SymbolTable Syms;
  auto Stream = openSource(Path, Syms);
  if (!Stream)
    return 2;
  TraceSanitizer Sanitizer(SanitizeMode::Lenient);
  AeroDrome Aero;
  Aero.beginAnalysis(Syms);

  auto Start = std::chrono::steady_clock::now();
  std::vector<Event> Batch;
  Event E;
  uint64_t Delivered = 0;
  while (Stream->next(E)) {
    Batch.clear();
    Sanitizer.push(E, Batch, Stream->lineNo());
    for (const Event &Out : Batch) {
      Aero.onEvent(Out);
      ++Delivered;
    }
  }
  Batch.clear();
  Sanitizer.finish(Batch);
  for (const Event &Out : Batch) {
    Aero.onEvent(Out);
    ++Delivered;
  }
  Aero.endAnalysis();
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

  if (Stream->failed()) {
    std::fprintf(stderr, "stream failed: %s\n", Stream->error().c_str());
    return 1;
  }
  std::printf("events written   %llu\n",
              static_cast<unsigned long long>(Written));
  std::printf("events delivered %llu\n",
              static_cast<unsigned long long>(Delivered));
  std::printf("file size        text %ld KB, binary %ld KB\n",
              fileSizeKb(Path), fileSizeKb(BinPath));
  std::printf("parse-only text  %.2f Mev/s\n", TextEvs / 1e6);
  std::printf("parse-only vtrc  %.2f Mev/s (%.2fx text)\n", BinEvs / 1e6,
              Mult);
  std::printf("parse-only getline %.2f Mev/s (text %.2fx getline)\n",
              GetlineEvs / 1e6, ScanMult);
  std::printf("ingest time      %.2f s (%.2f Mev/s end-to-end)\n", Secs,
              Delivered / Secs / 1e6);
  std::printf("violation        %s\n", Aero.sawViolation() ? "yes" : "no");
  std::printf("peak RSS         %ld KB (after generation: %ld KB)\n",
              maxRssKb(), RssAfterGen);
  if (!Keep) {
    std::remove(Path.c_str());
    std::remove(BinPath.c_str());
  }
  if (Check) {
    if (Mult < MinBinaryOverText || ScanMult < MinScanOverGetline) {
      std::fprintf(stderr,
                   "CHECK FAILED: binary ingest is %.2fx text (required "
                   "%.1fx), text %.2fx getline (required %.1fx)\n",
                   Mult, MinBinaryOverText, ScanMult, MinScanOverGetline);
      return 1;
    }
    std::printf("CHECK OK: binary ingest %.2fx text (>= %.1fx), text %.2fx "
                "getline (>= %.1fx)\n",
                Mult, MinBinaryOverText, ScanMult, MinScanOverGetline);
  }
  return 0;
}
