//===- bench/paper_examples.cpp - The paper's worked examples -------------===//
//
// Regenerates every worked example (trace diagram) in the paper and checks
// the documented verdict, as a self-verifying harness:
//
//   intro    the A => B' => C' => A cycle, blamed on A        (figure, p.1)
//   s2-rmw   interleaved read-modify-write: not serializable  (Section 2)
//   s2-flag  volatile-flag handoff: serializable              (Section 2)
//   s43-self two self-serializable txns, joint cycle          (Section 4.3)
//   s43-nest nested blocks: p and q refuted, r not            (Section 4.3)
//   s5-set   Set.add error graph                              (Section 5)
//
// Exits non-zero if any verdict deviates.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Velodrome.h"
#include "events/TraceBuilder.h"
#include "oracle/SerializabilityOracle.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace velo;

namespace {

struct Outcome {
  bool Pass;
  std::string Detail;
};

Outcome check(const Trace &T, bool ExpectSerializable,
              const std::string &ExpectBlame = "") {
  OracleResult Oracle = checkSerializable(T);
  Velodrome Velo;
  replay(T, Velo);

  if (Oracle.Serializable != ExpectSerializable)
    return {false, "oracle verdict unexpected"};
  if (Velo.sawViolation() != !ExpectSerializable)
    return {false, "velodrome verdict unexpected"};
  if (!ExpectBlame.empty()) {
    if (Velo.violations().empty())
      return {false, "no violation recorded"};
    const AtomicityViolation &V = Velo.violations()[0];
    if (!V.BlameResolved)
      return {false, "blame not resolved"};
    std::string Blamed = T.symbols().labelName(V.Method);
    if (Blamed != ExpectBlame)
      return {false, "blamed '" + Blamed + "', expected '" + ExpectBlame +
                         "'"};
  }
  std::string Detail = ExpectSerializable ? "serializable, no warning"
                                          : "violation detected";
  if (!ExpectBlame.empty())
    Detail += ", blamed " + ExpectBlame;
  return {true, Detail};
}

} // namespace

int main(int argc, char **argv) {
  bench::parseArgsOrExit(argc, argv, "paper_examples");
  TablePrinter Table({"Example", "Expected", "Result", "Detail"});
  bool AllPass = true;

  auto Row = [&](const char *Name, const char *Expected, Outcome O) {
    Table.startRow();
    Table.cell(std::string(Name));
    Table.cell(std::string(Expected));
    Table.cell(std::string(O.Pass ? "PASS" : "FAIL"));
    Table.cell(O.Detail);
    AllPass = AllPass && O.Pass;
  };

  { // Introduction: three-thread cycle, blame on A.
    TraceBuilder B;
    B.acq(0, "m")
        .begin(2, "C").rd(2, "x").wr(2, "z").end(2)
        .begin(0, "A").rel(0, "m")
        .wr(1, "z")
        .begin(1, "B'").acq(1, "m").wr(1, "y").end(1)
        .begin(2, "C'").rd(2, "y").wr(2, "s").wr(2, "x").end(2)
        .rd(0, "x").end(0);
    Row("intro A=>B'=>C'=>A", "cycle, blame A", check(B.trace(), false, "A"));
  }

  { // Section 2: interleaved RMW.
    TraceBuilder B;
    B.begin(0, "increment").rd(0, "x").wr(1, "x").wr(0, "x").end(0);
    Row("s2 interleaved RMW", "cycle, blame increment",
        check(B.trace(), false, "increment"));
  }

  { // Section 2: volatile-flag handoff (serializable).
    TraceBuilder B;
    B.rd(1, "b")
        .begin(0, "inc0").rd(0, "x").wr(0, "x").wr(0, "b").end(0)
        .rd(1, "b")
        .begin(1, "inc1").rd(1, "x").wr(1, "x").wr(1, "b").end(1)
        .rd(0, "b");
    Row("s2 flag handoff", "serializable", check(B.trace(), true));
  }

  { // Section 4.3: both transactions self-serializable, joint cycle.
    TraceBuilder B;
    B.begin(0, "D'").begin(1, "E'")
        .wr(0, "x").wr(1, "y").rd(0, "y").rd(1, "x")
        .end(0).end(1);
    Trace T = B.take();
    Outcome O = check(T, false);
    if (O.Pass) {
      TxnIndex Index = buildTxnIndex(T);
      if (!isSelfSerializable(T, Index, 0) ||
          !isSelfSerializable(T, Index, 1))
        O = {false, "a transaction is unexpectedly pinned"};
      else
        O.Detail += "; both txns individually self-serializable";
    }
    Row("s4.3 joint cycle", "cycle, no pinned txn", O);
  }

  { // Section 4.3: nested blocks p, q refuted; r not.
    TraceBuilder B;
    B.begin(0, "p").begin(0, "q").rd(0, "x").begin(0, "r")
        .wr(1, "x")
        .wr(0, "x").end(0).end(0).end(0);
    Trace T = B.take();
    Outcome O = check(T, false, "p");
    if (O.Pass) {
      Velodrome V;
      replay(T, V);
      const AtomicityViolation &Violation = V.violations()[0];
      bool RefutedR = false;
      for (Label L : Violation.RefutedBlocks)
        if (T.symbols().labelName(L) == "r")
          RefutedR = true;
      if (Violation.RefutedBlocks.size() != 2 || RefutedR)
        O = {false, "refuted-block set is not exactly {p, q}"};
      else
        O.Detail += "; refuted {p, q}, spared r";
    }
    Row("s4.3 nested blame", "refute p,q; spare r", O);
  }

  { // Section 5: Set.add error graph.
    TraceBuilder B;
    B.begin(0, "Set.add").acq(0, "#2").rd(0, "#2.elems").rel(0, "#2");
    B.begin(1, "Set.add").acq(1, "#2").rd(1, "#2.elems").rel(1, "#2")
        .acq(1, "#2").wr(1, "#2.elems").rel(1, "#2").end(1);
    B.acq(0, "#2").wr(0, "#2.elems").rel(0, "#2").end(0);
    Trace T = B.take();
    Outcome O = check(T, false, "Set.add");
    if (O.Pass) {
      Velodrome V;
      replay(T, V);
      const std::string &Dot = V.warnings()[0].Dot;
      if (Dot.find("digraph") == std::string::npos ||
          Dot.find("style=dashed") == std::string::npos)
        O = {false, "dot error graph malformed"};
      else
        O.Detail += "; dot graph rendered";
    }
    Row("s5 Set.add graph", "cycle, blame Set.add, dot", O);
  }

  std::printf("Paper worked examples, re-checked end to end:\n\n%s\n",
              Table.str().c_str());
  return AllPass ? 0 : 1;
}
