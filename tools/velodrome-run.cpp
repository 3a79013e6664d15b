//===- tools/velodrome-run.cpp - Benchmark-workload driver CLI ------------===//
//
// Runs one of the 15 benchmark analogues under the monitored runtime with
// any combination of back-ends, optionally recording the trace, corrupting
// guard sites, and enabling adversarial scheduling:
//
//   velodrome-run [options] <workload>
//
// `velodrome-run --help` lists the options, and --list the workloads.
//
// Live monitoring runs under the same analysis plan and resource governor
// as the offline checker (analysis/Plan.h). Behind a graph-checker primary
// the vector-clock checker is the governor's hot spare, selected or not: a
// cap breach degrades to it instead of aborting, and an exhausted budget
// yields verdict-unknown. The Atomizer always runs too; it steers
// --adversarial scheduling and closes every text summary.
//
// Exit status: 0 no violation, 1 violation observed, 2 usage error,
// 3 resource-limited (budget exhausted before a verdict was reached).
//
//===----------------------------------------------------------------------===//

#include "analysis/Plan.h"
#include "analysis/TraceRecorder.h"
#include "events/TraceText.h"
#include "report/Report.h"
#include "staticpass/StaticPipeline.h"
#include "support/Flags.h"
#include "support/Syscalls.h"
#include "workloads/Workload.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace velo;

namespace {

void listWorkloads() {
  std::printf("%-12s %-9s %s\n", "workload", "bugs", "guard sites");
  for (const auto &W : makeAllWorkloads()) {
    std::string Sites;
    for (const std::string &S : W->guardSites())
      Sites += (Sites.empty() ? "" : ", ") + S;
    std::printf("%-12s %-9zu %s\n", W->name(), W->nonAtomicMethods().size(),
                Sites.empty() ? "-" : Sites.c_str());
  }
}

/// The runtime's live stream into the plan: sanitized, then delivered.
/// After a strict-mode rejection nothing further is delivered.
class PlanFeed : public Backend {
public:
  explicit PlanFeed(AnalysisPlan &P) : P(P) {}
  const char *name() const override { return "Plan"; }
  void beginAnalysis(const SymbolTable &Syms) override { P.begin(Syms); }
  void onEvent(const Event &E) override { P.feed(E); }
  void endAnalysis() override { P.finish(); }

private:
  AnalysisPlan &P;
};

/// One back-end's block of the text summary: Velodrome and AeroDrome list
/// their violations, every other back-end its warnings.
void printBlock(AnalysisPlan &Plan, const Backend &B,
                const SymbolTable &Syms) {
  if (&B == &Plan.velodrome()) {
    const auto &Vs = Plan.velodrome().violations();
    std::printf("[Velodrome] %zu violation(s)\n", Vs.size());
    for (const AtomicityViolation &V : Vs)
      std::printf("  %s (%s, cycle of %zu)\n",
                  Syms.labelName(V.Method).c_str(),
                  V.BlameResolved ? "blame resolved" : "blame unresolved",
                  V.CycleLength);
  } else if (&B == &Plan.aero()) {
    const auto &Vs = Plan.aero().violations();
    std::printf("[AeroDrome] %zu violation(s)\n", Vs.size());
    for (const AeroViolation &V : Vs)
      std::printf("  %s (witness T%u)\n",
                  V.Method == NoLabel ? "(unary)"
                                      : Syms.labelName(V.Method).c_str(),
                  V.Witness);
  } else {
    // The Atomizer's historical layout pads its count into the column of
    // "[Velodrome] ".
    std::printf("[%s]%s%zu warning(s)\n", B.name(),
                &B == &Plan.atomizer() ? "  " : " ", B.warnings().size());
    for (const Warning &Warn : B.warnings())
      std::printf("  %s\n", Warn.Message.c_str());
  }
}

} // namespace

int main(int argc, char **argv) {
  sys::ignoreSigpipe(); // closed pager/pipe must be a write error, not death
  std::string RecordFile, ReduceSpec;
  uint64_t Seed = 1, Scale = 1;
  bool Adversarial = false, ExcludeKnown = false;
  ReportFormat Format = ReportFormat::Text;
  StallPolicy Policy = StallPolicy::AllOps;
  std::vector<std::string> Disabled;
  PlanConfig Config;
  Config.BackendSel = "velodrome";
  Config.HotSpare = true;

  std::vector<Flag> Rows = {
      {"--list",
       [](const std::string &) -> bool {
         // Acts at once, as --help does.
         listWorkloads();
         std::exit(0);
       },
       "list the workloads and their guard sites"},
      u64Flag("--seed=N", Seed, "scheduler and workload seed (default 1)"),
      u64Flag("--scale=N", Scale, "work multiplier (default 1)", 1, INT_MAX),
      stringFlag("--backend=<sel>", Config.BackendSel,
                 "velodrome, basic, aero, atomizer, eraser, hb, deadlock or "
                 "all (default velodrome)"),
      stringFlag("--record=FILE", RecordFile,
                 "write the observed trace (a .vtrc FILE records the VELOTRC "
                 "binary container; anything else records text)"),
      {"--disable=SITE",
       [&Disabled](const std::string &V) {
         Disabled.push_back(V);
         return true;
       },
       "disable a guard site (repeatable)"},
      boolFlag("--adversarial", Adversarial, "Atomizer-guided scheduling"),
      {"--policy=POLICY",
       [&Policy](const std::string &V) {
         if (V == "all")
           Policy = StallPolicy::AllOps;
         else if (V == "writes")
           Policy = StallPolicy::WritesOnly;
         else if (V == "reads")
           Policy = StallPolicy::ReadsOnly;
         else if (V == "spare-main")
           Policy = StallPolicy::SpareMainOps;
         else
           return false;
         return true;
       },
       "stall policy: all, writes, reads or spare-main (default all)"},
      boolFlag("--exclude-known", ExcludeKnown,
               "don't check the ground-truth non-atomic methods"),
      stringFlag("--reduce=<spec>", ReduceSpec,
                 "record, reduce statically and run the back-ends on the "
                 "reduced trace offline (docs/STATIC.md)"),
      formatFlag(Format),
  };
  addFlags(Rows, governorFlags(Config.Limits));
  const FlagTable Table{"velodrome-run [options] <workload>", std::move(Rows),
                        "exit: 0 no violation, 1 violation, 2 usage error, "
                        "3 resource-limited\n",
                        1, 1};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(argc, argv, Operands); Rc >= 0)
    return Rc;
  const std::string &Name = Operands[0];
  std::string PlanError;
  std::unique_ptr<AnalysisPlan> Plan = AnalysisPlan::create(Config, PlanError);
  if (!Plan) {
    std::fprintf(stderr, "%s\n", PlanError.c_str());
    Table.printUsage();
    return 2;
  }
  bool Reducing = !ReduceSpec.empty();
  PassMask ReduceMask;
  if (Reducing) {
    std::string Error;
    if (!parsePassSpec(ReduceSpec, ReduceMask, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    if (Adversarial) {
      // Adversarial scheduling needs the Atomizer fed live to steer the
      // scheduler; --reduce defers every back-end to an offline replay.
      std::fprintf(stderr,
                   "error: --reduce is incompatible with --adversarial\n");
      return 2;
    }
  }

  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                 Name.c_str());
    return 2;
  }
  W->Scale = static_cast<int>(Scale);
  for (const std::string &S : Disabled)
    W->DisabledGuards.insert(S);

  RuntimeOptions Opts;
  Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
  Opts.SchedulerSeed = Seed;
  Opts.WorkloadSeed = Seed * 11 + 3;
  Opts.Adversarial = Adversarial;
  Opts.Policy = Policy;

  Atomizer &Atom = Plan->atomizer();
  bool AtomReported = Plan->reports(Atom);
  if (!AtomReported)
    Plan->attach(Atom);
  // The strict sanitizer in front of the plan is defense in depth: the
  // runtime's stream is well-formed by construction, but a runtime bug
  // fail-stops with a diagnostic instead of silently corrupting the
  // analyses. Strict mode passes a well-formed stream through unchanged, so
  // the recorder, beside it, records exactly what the back-ends analyzed.
  // Under --reduce the analyses run offline on the reduced recording, so
  // the live stream reaches only the recorder.
  PlanFeed Feed(*Plan);
  TraceRecorder Rec;
  bool Recording = !RecordFile.empty() || Reducing;
  std::vector<Backend *> Live;
  if (!Reducing)
    Live.push_back(&Feed);
  if (Recording)
    Live.push_back(&Rec);
  Runtime RT(Opts, Live);
  if (Adversarial)
    RT.setGuide(&Atom);
  if (ExcludeKnown)
    for (const std::string &M : W->nonAtomicMethods())
      RT.excludeMethod(M);
  W->run(RT);

  // Deferred analysis: validate the recording, reduce it, and replay the
  // kept events through the same plan the live path uses.
  PassStats ReduceStats;
  Trace Reduced; // back-ends hold a reference to its symbol table
  std::string Rejected = Plan->sanitizer().error();
  if (Reducing) {
    Trace Checked;
    if (sanitizeTrace(Rec.trace(), SanitizeMode::Strict, Checked, nullptr,
                      Rejected)) {
      Reduced = reduceTrace(Checked, planTrace(Checked, ReduceMask),
                            &ReduceStats);
      Plan->begin(Reduced.symbols());
      for (const Event &E : Reduced)
        Plan->deliver(E);
      Plan->end();
    }
  }
  if (!Rejected.empty()) {
    std::fprintf(stderr,
                 "error: runtime produced an ill-formed event stream (%s); "
                 "analysis results discarded\n",
                 Rejected.c_str());
    return 2;
  }

  // The workload summary keeps its historical text layout; --format=json
  // or =sarif swaps in a machine rendering of the same findings
  // (docs/REPORTING.md), with the human text suppressed. Its header counts
  // the events the runtime emitted.
  const bool Text = Format == ReportFormat::Text;
  ReportManager RM;
  RM.Run.Tool = "velodrome-run";
  RM.Run.Trace = Name;
  Plan->report(RM, RT.symbols());
  if (!AtomReported)
    RM.addSection(Atom.name(), Atom.warnings(), &RT.symbols());
  RM.Run.Events = RT.eventCount();
  RM.Run.SanitizedEvents = Reducing ? Reduced.size() : RT.eventCount();
  RM.Run.Threads = Recording ? Rec.trace().numThreads() : 0;

  if (Text) {
    std::printf("%s: seed=%llu scale=%llu events=%llu\n", W->name(),
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(Scale),
                static_cast<unsigned long long>(RT.eventCount()));
    for (const Backend *B : Plan->reporting())
      printBlock(*Plan, *B, RT.symbols());
    if (!AtomReported)
      printBlock(*Plan, Atom, RT.symbols());
    if (Reducing)
      std::printf("[reduce]    %s\n", ReduceStats.summary().c_str());
  }
  // A degraded run legitimately stops feeding the graph checker early, so
  // the cross-check only applies while both saw the whole stream.
  const Velodrome &Velo = Plan->velodrome();
  const AeroDrome &Aero = Plan->aero();
  if (Plan->reports(Velo) && Plan->reports(Aero) &&
      Plan->governorState() == GovernorState::Normal &&
      Velo.sawViolation() != Aero.sawViolation())
    std::fprintf(stderr,
                 "warning: backend verdicts disagree "
                 "(Velodrome=%d AeroDrome=%d)\n",
                 Velo.sawViolation(), Aero.sawViolation());

  if (!RecordFile.empty()) {
    if (!writeTraceFile(Rec.trace(), RecordFile)) {
      std::fprintf(stderr, "error: cannot write %s\n", RecordFile.c_str());
      return 2;
    }
    if (Text)
      std::printf("trace written to %s (%zu events)\n", RecordFile.c_str(),
                  Rec.trace().size());
  }
  if (Text && RM.Run.ExitCode == 3)
    std::printf("verdict: %s\n", RM.Run.Verdict.c_str());
  if (!Text) {
    const std::string Doc = RM.render(Format);
    std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  }
  return RM.Run.ExitCode;
}
