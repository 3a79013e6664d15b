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
// (docs/INGESTION.md) and compares parse-only throughput — the text block
// scanner vs the mmap'd binary reader over the same event stream. --check
// turns that comparison into a gate on the band 1.5x <= binary/text <= 6x.
// The lower bound guards the binary reader: it must stay clearly ahead of
// text. The upper bound guards the text scanner: a text reader more than
// 6x behind binary has lost its block-scanning fast path.
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

/// The band --check holds binary/text parse-only throughput to.
constexpr double MinBinaryOverText = 1.5;
constexpr double MaxBinaryOverText = 6.0;

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
                "gate: 1.5x <= binary/text parse throughput <= 6x")},
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

  // Parse-only comparison over identical event streams. Text runs first;
  // both files are already warm in the page cache from generation and
  // conversion, so the order does not favor either side.
  uint64_t TextParsed = 0, BinParsed = 0;
  double TextEvs = drainMevs(Path, TextParsed);
  double BinEvs = drainMevs(BinPath, BinParsed);
  if (TextEvs == 0 || BinEvs == 0 || TextParsed != Written ||
      BinParsed != Written) {
    std::fprintf(stderr, "parse-only drain failed or event counts differ\n");
    return 1;
  }
  double Mult = BinEvs / TextEvs;

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
    if (Mult < MinBinaryOverText || Mult > MaxBinaryOverText) {
      std::fprintf(stderr,
                   "CHECK FAILED: binary ingest is %.2fx text "
                   "(required %.1fx..%.1fx)\n",
                   Mult, MinBinaryOverText, MaxBinaryOverText);
      return 1;
    }
    std::printf("CHECK OK: binary ingest %.2fx text (%.1fx..%.1fx)\n", Mult,
                MinBinaryOverText, MaxBinaryOverText);
  }
  return 0;
}
