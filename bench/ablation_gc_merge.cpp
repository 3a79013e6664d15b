//===- bench/ablation_gc_merge.cpp - GC / merge / ancestor-set ablation ---===//
//
// Ablation over the three scalability mechanisms DESIGN.md calls out:
//
//   1. Reference-counting GC: compare the optimized engine's live-node
//      high-water mark against the Figure 2 reference analysis, which
//      retains every transaction node (the paper's "four orders of
//      magnitude" claim).
//   2. Merge: allocations and wall-clock with UseMerge on vs. off on
//      unary-operation-heavy streams (Table 1's "dramatic impact on
//      running times").
//   3. Cost scaling: events/second of the optimized engine across stream
//      shapes, demonstrating near-constant per-event cost as trace length
//      grows (possible only because the graph stays tiny).
//
// Usage: ablation_gc_merge [events]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/BasicVelodrome.h"
#include "core/Velodrome.h"
#include "events/TraceGen.h"
#include "support/Stopwatch.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace velo;

namespace {

Trace makeStream(size_t Steps, unsigned GuardedPct, unsigned BeginWeight,
                 uint64_t Seed) {
  TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Vars = 8;
  Opts.Locks = 4;
  Opts.Steps = Steps;
  Opts.GuardedAccessPct = GuardedPct;
  Opts.WeightBegin = BeginWeight;
  Opts.WeightEnd = BeginWeight + 2;
  return generateRandomTrace(Seed, Opts);
}

} // namespace

int main(int argc, char **argv) {
  size_t Events = 400000;
  bench::parseArgsOrExit(argc, argv, "ablation_gc_merge", {{"events", Events}});

  std::printf("Ablation: GC, merge, and ancestor-set mechanisms "
              "(~%zu-event synthetic streams)\n\n",
              Events);

  // --- 1. GC: optimized engine vs. the retain-everything Figure 2 one ---
  {
    // Smaller stream: the reference analysis is O(n) memory and O(n^2)ish
    // time by design.
    Trace T = makeStream(60000, 60, 14, 11);
    VelodromeOptions VOpts;
    VOpts.EmitDot = false;
    Velodrome Opt(VOpts);
    replay(T, Opt);
    BasicVelodrome Ref;
    replay(T, Ref);

    TablePrinter Table({"Engine", "Nodes allocated", "Max alive"});
    Table.startRow();
    Table.cell(std::string("Figure 2 (no GC)"));
    Table.cell(TablePrinter::withCommas(Ref.nodesAllocated()));
    Table.cell(TablePrinter::withCommas(Ref.nodesAllocated()));
    Table.startRow();
    Table.cell(std::string("Optimized (+GC, +merge)"));
    Table.cell(TablePrinter::withCommas(Opt.graph().nodesAllocated()));
    Table.cell(TablePrinter::withCommas(Opt.graph().maxNodesAlive()));
    std::printf("1. garbage collection (%zu events):\n%s\n", T.size(),
                Table.str().c_str());
  }

  // --- 2. Merge on/off over unary-heavy vs. transaction-heavy streams ---
  {
    TablePrinter Table({"Stream", "Merge", "Alloc", "MaxAlive", "Mevt/s"});
    struct Shape {
      const char *Name;
      unsigned BeginWeight;
      unsigned GuardedPct;
    } Shapes[] = {{"unary-heavy (no blocks)", 0, 0},
                  {"mixed", 10, 40},
                  {"transaction-heavy", 30, 70}};
    for (const Shape &S : Shapes) {
      Trace T = makeStream(Events, S.GuardedPct, S.BeginWeight, 23);
      for (bool UseMerge : {false, true}) {
        VelodromeOptions VOpts;
        VOpts.UseMerge = UseMerge;
        VOpts.EmitDot = false;
        Velodrome V(VOpts);
        Stopwatch Timer;
        replay(T, V);
        double Secs = Timer.seconds();
        Table.startRow();
        Table.cell(std::string(S.Name));
        Table.cell(std::string(UseMerge ? "on" : "off"));
        Table.cell(TablePrinter::withCommas(V.graph().nodesAllocated()));
        Table.cell(V.graph().maxNodesAlive());
        Table.cell(T.size() / Secs / 1e6, 2);
      }
    }
    std::printf("2. merge ablation (%zu-step streams):\n%s\n", Events,
                Table.str().c_str());
  }

  // --- 3. Per-event cost vs. stream length (flat iff the graph is tiny) --
  {
    TablePrinter Table({"Events", "Mevt/s", "MaxAlive"});
    for (size_t N : {Events / 16, Events / 4, Events, Events * 4}) {
      Trace T = makeStream(N, 50, 12, 37);
      VelodromeOptions VOpts;
      VOpts.EmitDot = false;
      Velodrome V(VOpts);
      Stopwatch Timer;
      replay(T, V);
      Table.startRow();
      Table.cell(TablePrinter::withCommas(T.size()));
      Table.cell(T.size() / Timer.seconds() / 1e6, 2);
      Table.cell(V.graph().maxNodesAlive());
    }
    std::printf("3. per-event cost vs. length:\n%s\n", Table.str().c_str());
  }

  return 0;
}
