//===- tools/velodrome-fuzz.cpp - Differential ingestion fuzzer -----------===//
//
// Mutation-based fuzzing of the trace text format and the ingestion stack
// behind it. Each iteration mutates a corpus entry (or a freshly generated
// well-formed trace) and checks, on the mutant:
//
//   1. the parser never crashes, and rejects with a "line N:" diagnostic;
//   2. parser round-trip stability: parse -> print -> parse is identity;
//   3. strict sanitization accepts exactly the traces Trace::validate
//      accepts;
//   4. lenient sanitization always succeeds, its output satisfies
//      Trace::validate, and it is idempotent (re-sanitizing performs zero
//      repairs and is an identity on events);
//   5. every back-end runs the repaired trace without crashing, and the
//      three verdict checkers (Velodrome, BasicVelodrome, AeroDrome) agree;
//   6. the resource governor degrades/stops cleanly under tiny caps;
//   7. snapshot/restore round-trips: freezing any back-end at a checkpoint
//      boundary and restoring into a fresh instance converges to a final
//      state byte-identical to the uninterrupted run;
//   8. static reduction invariance: every back-end's verdict and warning
//      list on the --reduce=all reduced trace is identical to the
//      unreduced run, and reduction is idempotent (reducing the reduced
//      trace drops nothing);
//   9. binary container robustness: encoding the repaired trace as
//      VELOTRC and reading it back is an identity (events and names), and
//      random truncations and bit flips of the container bytes are always
//      rejected with a clean "line N:" diagnostic — never a crash, never
//      a silently different event stream.
//  10. salvage recovery: under the --salvage reader mode, an intact
//      container salvages to itself with recovery disengaged, and every
//      truncation (exhaustive for small containers) or bit flip either
//      salvages to a strict frame prefix of the original events or fails
//      cleanly — never a crash, never invented or reordered events.
//  11. the deadlock checker and the report layer: the lock-order-graph
//      back-end (--backend=deadlock) runs every repaired mutant without
//      crashing, its warning list is invariant under --reduce=all and
//      under a snapshot/restore round-trip, and the --format=json and
//      --format=sarif renderings of the full multi-checker report parse
//      as well-formed JSON.
//
// Failing inputs are written to --save for triage and check-in under
// tests/data/fuzz/ as regression seeds. Fully deterministic for a given
// --seed. CI runs a bounded smoke (fixed seed, small --iters) under
// ASan+UBSan on every PR.
//
//   velodrome-fuzz [options]      (`velodrome-fuzz --help` lists them)
//
// Exit status: 0 all checks passed, 1 a check failed, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "analysis/Plan.h"
#include "atomizer/Atomizer.h"
#include "core/BasicVelodrome.h"
#include "core/Velodrome.h"
#include "deadlock/DeadlockDetector.h"
#include "eraser/Eraser.h"
#include "events/BinaryReader.h"
#include "events/BinaryWriter.h"
#include "events/TraceGen.h"
#include "events/TraceSanitizer.h"
#include "events/TraceText.h"
#include "hbrace/HbRaceDetector.h"
#include "parallel/Fanout.h"
#include "report/Report.h"
#include "staticpass/StaticPipeline.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "support/Flags.h"
#include "support/Syscalls.h"

using namespace velo;

namespace {

/// Deterministic xorshift64* PRNG — no global state, replayable runs.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 0x9e3779b97f4a7c15ull) {}
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dull;
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    Lines.push_back(L);
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

/// One random event line assembled from the format's vocabulary (valid more
/// often than not, so mutants explore the sanitizer, not just the parser).
std::string randomLine(Rng &R) {
  static const char *Ops[] = {"rd", "wr", "acq", "rel",
                              "begin", "end", "fork", "join"};
  static const char *Args[] = {"x", "y", "z", "m", "n", "work", "commit"};
  std::string Op = Ops[R.below(8)];
  std::string Line = "T" + std::to_string(R.below(5)) + " " + Op;
  if (Op == "fork" || Op == "join")
    Line += " T" + std::to_string(R.below(5));
  else if (Op != "end")
    Line += " " + std::string(Args[R.below(7)]);
  return Line;
}

std::string mutate(const std::string &Base,
                   const std::vector<std::string> &Corpus, Rng &R) {
  std::string Text = Base;
  size_t Rounds = 1 + R.below(6);
  for (size_t I = 0; I < Rounds; ++I) {
    std::vector<std::string> Lines = splitLines(Text);
    switch (R.below(9)) {
    case 0: // delete a line
      if (!Lines.empty())
        Lines.erase(Lines.begin() + R.below(Lines.size()));
      break;
    case 1: // duplicate a line
      if (!Lines.empty()) {
        size_t J = R.below(Lines.size());
        Lines.insert(Lines.begin() + R.below(Lines.size() + 1), Lines[J]);
      }
      break;
    case 2: // swap two lines
      if (Lines.size() >= 2)
        std::swap(Lines[R.below(Lines.size())], Lines[R.below(Lines.size())]);
      break;
    case 3: // truncate mid-file (models a cut-off dump)
      if (!Lines.empty())
        Lines.resize(1 + R.below(Lines.size()));
      break;
    case 4: { // splice with another corpus entry
      if (!Corpus.empty()) {
        std::vector<std::string> Other =
            splitLines(Corpus[R.below(Corpus.size())]);
        size_t Keep = R.below(Lines.size() + 1);
        Lines.resize(Keep);
        size_t From = R.below(Other.size() + 1);
        Lines.insert(Lines.end(), Other.begin() + From, Other.end());
      }
      break;
    }
    case 5: { // flip a byte to a random printable character
      Text = joinLines(Lines);
      if (!Text.empty())
        Text[R.below(Text.size())] =
            static_cast<char>(' ' + R.below('~' - ' ' + 1));
      continue;
    }
    case 6: // insert a vocabulary line
      Lines.insert(Lines.begin() + R.below(Lines.size() + 1), randomLine(R));
      break;
    case 7: { // jitter a digit
      Text = joinLines(Lines);
      std::vector<size_t> Digits;
      for (size_t P = 0; P < Text.size(); ++P)
        if (Text[P] >= '0' && Text[P] <= '9')
          Digits.push_back(P);
      if (!Digits.empty())
        Text[Digits[R.below(Digits.size())]] =
            static_cast<char>('0' + R.below(10));
      continue;
    }
    case 8: // insert a garbage line
      Lines.insert(Lines.begin() + R.below(Lines.size() + 1),
                   I % 2 ? "T# wr" : "bogus line $$$");
      break;
    }
    Text = joinLines(Lines);
  }
  return Text;
}

bool sameEvents(const Trace &A, const Trace &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!(A[I] == B[I]))
      return false;
  return true;
}

struct FuzzStats {
  uint64_t ParsedOk = 0, ParseRejected = 0, StrictOk = 0, Repaired = 0;
  uint64_t RepairEvents = 0, Violations = 0, Serializable = 0;
  uint64_t Snapshots = 0, ReducedDropped = 0;
  uint64_t BinaryRoundTrips = 0, BinaryRejected = 0;
  uint64_t SalvagePrefixes = 0, SalvageRejects = 0;
  uint64_t DeadlockCycles = 0, ReportsChecked = 0;
};

/// Check 11 helper: a strict recursive-descent JSON well-formedness check,
/// so "the machine report parses" is a real grammar property, not a brace
/// count. Accepts exactly one value spanning the whole input.
class JsonValidator {
public:
  explicit JsonValidator(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}')
      return ++Pos, true;
    for (;;) {
      skipWs();
      if (peek() != '"' || !string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}')
        return ++Pos, true;
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']')
      return ++Pos, true;
    for (;;) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']')
        return ++Pos, true;
      return false;
    }
  }

  bool string() {
    ++Pos; // '"'
    while (Pos < S.size()) {
      unsigned char C = static_cast<unsigned char>(S[Pos]);
      if (C == '"')
        return ++Pos, true;
      if (C < 0x20)
        return false; // control characters must be escaped
      if (C == '\\') {
        if (++Pos >= S.size())
          return false;
        char E = S[Pos];
        if (E == 'u') {
          if (Pos + 4 >= S.size())
            return false;
          for (int I = 1; I <= 4; ++I)
            if (!std::isxdigit(static_cast<unsigned char>(S[Pos + I])))
              return false;
          Pos += 4;
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++Pos;
    }
    return false;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    if (!std::isdigit(peek()))
      return false;
    if (peek() == '0')
      ++Pos;
    else
      while (std::isdigit(peek()))
        ++Pos;
    if (peek() == '.') {
      ++Pos;
      if (!std::isdigit(peek()))
        return false;
      while (std::isdigit(peek()))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (!std::isdigit(peek()))
        return false;
      while (std::isdigit(peek()))
        ++Pos;
    }
    return Pos > Start;
  }

  bool literal(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    return true;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }

  const std::string &S;
  size_t Pos = 0;
};

/// Check 9 helper: a corrupted container must be rejected — either at
/// open or while draining — with the standard "line N:" diagnostic.
bool binaryRejectsCleanly(const std::string &Bytes, std::string &WhyOut) {
  SymbolTable Syms;
  BinaryTraceReader Reader(Syms);
  if (Reader.openBuffer(Bytes)) {
    Event E;
    while (Reader.next(E))
      ;
  }
  if (!Reader.failed()) {
    WhyOut = "corrupted binary container was accepted";
    return false;
  }
  if (Reader.error().rfind("line ", 0) != 0) {
    WhyOut = "binary reject lacks a line diagnostic: '" + Reader.error() +
             "'";
    return false;
  }
  return true;
}

/// Check 10 helper: under salvage the same corrupted container must either
/// fail cleanly (with the "line N:" diagnostic) or open and stream to a
/// strict prefix of Full's events — never crash, never invent events, and
/// never fail mid-stream after a successful salvage open (the structural
/// pre-scan promises streaming cannot fail). Sets Recovered so callers can
/// count which way it went.
bool binarySalvagesToPrefix(const std::string &Bytes, const Trace &Full,
                            bool &Recovered, std::string &WhyOut) {
  Recovered = false;
  Trace Got;
  BinaryTraceReader Reader(Got.symbols());
  if (!Reader.openBufferSalvage(Bytes)) {
    if (Reader.error().rfind("line ", 0) != 0) {
      WhyOut = "salvage reject lacks a line diagnostic: '" + Reader.error() +
               "'";
      return false;
    }
    return true;
  }
  Event E;
  while (Reader.next(E))
    Got.push(E);
  if (Reader.failed()) {
    WhyOut = "salvage open succeeded but streaming failed: " +
             Reader.error();
    return false;
  }
  // printTrace prefix equality covers events and symbol names at once:
  // symbols intern in first-use order, so a true event prefix renders as
  // a string prefix.
  if (printTrace(Full).rfind(printTrace(Got), 0) != 0) {
    WhyOut = "salvaged events are not a prefix of the original (" +
             std::to_string(Got.size()) + " of " +
             std::to_string(Full.size()) + " events)";
    return false;
  }
  Recovered = true;
  return true;
}

/// Check 7 helper: replay T straight through one instance of BackendT, then
/// for a few split points replay the prefix, serialize, restore into a
/// fresh instance, replay the suffix, and require the final serialized
/// state to be byte-identical to the straight run's.
template <typename BackendT>
bool snapshotRoundTrips(const Trace &T, const char *Name, FuzzStats &Stats,
                        std::string &WhyOut) {
  BackendT Full;
  Full.beginAnalysis(T.symbols());
  for (size_t I = 0; I < T.size(); ++I)
    Full.onEvent(T[I]);
  Full.endAnalysis();
  SnapshotWriter WFull;
  Full.serialize(WFull);

  const size_t Splits[] = {0, T.size() / 2, T.size()};
  for (size_t Split : Splits) {
    BackendT Prefix;
    Prefix.beginAnalysis(T.symbols());
    for (size_t I = 0; I < Split; ++I)
      Prefix.onEvent(T[I]);
    SnapshotWriter W;
    Prefix.serialize(W);

    BackendT Restored;
    Restored.beginAnalysis(T.symbols());
    SnapshotReader R(W.payload());
    if (!Restored.deserialize(R)) {
      WhyOut = std::string(Name) + ": deserialize failed at split " +
               std::to_string(Split);
      return false;
    }
    for (size_t I = Split; I < T.size(); ++I)
      Restored.onEvent(T[I]);
    Restored.endAnalysis();

    SnapshotWriter WRestored;
    Restored.serialize(WRestored);
    if (WRestored.payload() != WFull.payload()) {
      WhyOut = std::string(Name) + ": restored state diverges from the "
               "straight run after a snapshot at event " +
               std::to_string(Split);
      return false;
    }
    if (Restored.sawViolation() != Full.sawViolation()) {
      WhyOut = std::string(Name) + ": restored verdict differs at split " +
               std::to_string(Split);
      return false;
    }
    ++Stats.Snapshots;
  }
  return true;
}

/// Run every ingestion check on one mutant. Returns false with WhyOut set on
/// the first property violation. Pool (when non-null) runs the
/// multi-back-end replays of checks 5 and 8 concurrently — one parse, six
/// back-ends in flight — with results identical to the sequential
/// replayAll (parallel/Fanout.h).
bool checkMutant(const std::string &Text, BackendFanout *Pool, Rng &R,
                 FuzzStats &Stats, std::string &WhyOut) {
  // 1. Parser must reject cleanly or accept.
  Trace Raw;
  std::string Error;
  if (!parseTrace(Text, Raw, Error)) {
    if (Error.rfind("line ", 0) != 0) {
      WhyOut = "parse error lacks a line diagnostic: '" + Error + "'";
      return false;
    }
    Stats.ParseRejected++;
    return true; // rejected inputs end here
  }
  Stats.ParsedOk++;

  // 2. Round-trip stability.
  Trace Again;
  if (!parseTrace(printTrace(Raw), Again, Error)) {
    WhyOut = "re-parse of printed trace failed: " + Error;
    return false;
  }
  if (!sameEvents(Raw, Again)) {
    WhyOut = "print/parse round-trip changed the event sequence";
    return false;
  }

  // 3. Strict sanitization accepts exactly what validate accepts.
  Trace StrictOut;
  bool StrictAccepts =
      sanitizeTrace(Raw, SanitizeMode::Strict, StrictOut, nullptr, Error);
  bool ValidateAccepts = Raw.validate(nullptr);
  if (StrictAccepts != ValidateAccepts) {
    WhyOut = std::string("strict sanitizer ") +
             (StrictAccepts ? "accepted" : "rejected") +
             " a trace validate " + (ValidateAccepts ? "accepts" : "rejects") +
             (StrictAccepts ? "" : " (" + Error + ")");
    return false;
  }
  if (StrictAccepts) {
    Stats.StrictOk++;
    if (!sameEvents(Raw, StrictOut)) {
      WhyOut = "strict sanitization modified a well-formed trace";
      return false;
    }
  }

  // 4. Lenient sanitization: total, sound, idempotent.
  Trace Repaired;
  RepairCounts Repairs;
  if (!sanitizeTrace(Raw, SanitizeMode::Lenient, Repaired, &Repairs, Error)) {
    WhyOut = "lenient sanitization failed: " + Error;
    return false;
  }
  std::vector<std::string> Problems;
  if (!Repaired.validate(&Problems)) {
    WhyOut = "repaired trace is not well formed: " +
             (Problems.empty() ? "?" : Problems[0]);
    return false;
  }
  Trace Twice;
  RepairCounts Second;
  if (!sanitizeTrace(Repaired, SanitizeMode::Lenient, Twice, &Second,
                     Error) ||
      Second.total() != 0 || !sameEvents(Repaired, Twice)) {
    WhyOut = "lenient sanitization is not idempotent (" +
             std::to_string(Second.total()) + " repairs on second pass)";
    return false;
  }
  if (Repairs.total() != 0) {
    Stats.Repaired++;
    Stats.RepairEvents += Repairs.total();
  }

  // 5. No back-end crashes on the repaired trace; verdict checkers agree.
  // The six back-ends of --backend=all, ungoverned so each sees every
  // event; the three verdict checkers lead the table.
  PlanConfig Six;
  Six.Limits = GovernorLimits();
  std::string PlanError;
  std::unique_ptr<AnalysisPlan> Full = AnalysisPlan::create(Six, PlanError);
  const std::vector<Backend *> &Unreduced = Full->reporting();
  if (Pool)
    Pool->replayAll(Repaired, Unreduced);
  else
    replayAll(Repaired, Unreduced);
  const Backend &Velo = *Unreduced[0], &Basic = *Unreduced[1],
                &Aero = *Unreduced[2];
  if (Velo.sawViolation() != Aero.sawViolation() ||
      Velo.sawViolation() != Basic.sawViolation()) {
    WhyOut = "verdicts disagree: Velodrome=" +
             std::to_string(Velo.sawViolation()) +
             " Basic=" + std::to_string(Basic.sawViolation()) +
             " AeroDrome=" + std::to_string(Aero.sawViolation());
    return false;
  }
  (Velo.sawViolation() ? Stats.Violations : Stats.Serializable)++;

  // 6. The governor degrades and stops without aborting under tiny caps:
  // velodrome-run's plan, Velodrome governed with the AeroDrome hot spare.
  PlanConfig Tiny;
  Tiny.BackendSel = "velodrome";
  Tiny.HotSpare = true;
  Tiny.Limits.MaxLiveNodes = 4;
  Tiny.Limits.MaxEvents = Repaired.size() > 8 ? Repaired.size() / 2 : 0;
  std::unique_ptr<AnalysisPlan> Gov = AnalysisPlan::create(Tiny, PlanError);
  std::string GovNotes; // breach notes are expected here, not news
  Gov->NotesOut = &GovNotes;
  Gov->begin(Repaired.symbols());
  for (const Event &E : Repaired)
    Gov->deliver(E);
  Gov->end();
  if (Gov->exitCode() == 1 && !Velo.sawViolation()) {
    WhyOut = "governed analysis reported a violation the full run did not";
    return false;
  }

  // 7. Snapshot/restore round-trips for every back-end, plus the symbol
  // table itself.
  {
    SnapshotWriter SymsW;
    serializeSymbols(SymsW, Repaired.symbols());
    SnapshotReader SymsR(SymsW.payload());
    SymbolTable SymsBack;
    SnapshotWriter SymsAgain;
    if (!deserializeSymbols(SymsR, SymsBack)) {
      WhyOut = "symbol table deserialize failed";
      return false;
    }
    serializeSymbols(SymsAgain, SymsBack);
    if (SymsAgain.payload() != SymsW.payload()) {
      WhyOut = "symbol table snapshot round-trip is not byte-stable";
      return false;
    }
  }
  if (!snapshotRoundTrips<Velodrome>(Repaired, "Velodrome", Stats, WhyOut) ||
      !snapshotRoundTrips<BasicVelodrome>(Repaired, "BasicVelodrome", Stats,
                                          WhyOut) ||
      !snapshotRoundTrips<AeroDrome>(Repaired, "AeroDrome", Stats, WhyOut) ||
      !snapshotRoundTrips<Atomizer>(Repaired, "Atomizer", Stats, WhyOut) ||
      !snapshotRoundTrips<Eraser>(Repaired, "Eraser", Stats, WhyOut) ||
      !snapshotRoundTrips<HbRaceDetector>(Repaired, "HB", Stats, WhyOut))
    return false;

  // 8. Static reduction invariance across all six back-ends (against the
  // check-5 instances), plus idempotence of the reduction itself.
  {
    ReductionPlan Plan = planTrace(Repaired, PassMask::all());
    PassStats RStats;
    Trace Reduced = reduceTrace(Repaired, Plan, &RStats);
    Stats.ReducedDropped += RStats.droppedTotal();

    std::unique_ptr<AnalysisPlan> OnReducedPlan =
        AnalysisPlan::create(Six, PlanError);
    const std::vector<Backend *> &OnReduced = OnReducedPlan->reporting();
    if (Pool)
      Pool->replayAll(Reduced, OnReduced);
    else
      replayAll(Reduced, OnReduced);

    for (size_t I = 0; I < Unreduced.size(); ++I) {
      const Backend &U = *Unreduced[I];
      const Backend &Rd = *OnReduced[I];
      if (U.sawViolation() != Rd.sawViolation()) {
        WhyOut = std::string(U.name()) +
                 ": verdict changed under --reduce=all (unreduced=" +
                 std::to_string(U.sawViolation()) +
                 " reduced=" + std::to_string(Rd.sawViolation()) + ")";
        return false;
      }
      const std::vector<Warning> &UW = U.warnings();
      const std::vector<Warning> &RW = Rd.warnings();
      if (UW.size() != RW.size()) {
        WhyOut = std::string(U.name()) + ": warning count changed under "
                 "--reduce=all (" + std::to_string(UW.size()) + " vs " +
                 std::to_string(RW.size()) + ")";
        return false;
      }
      for (size_t J = 0; J < UW.size(); ++J)
        if (UW[J].Message != RW[J].Message) {
          WhyOut = std::string(U.name()) + ": warning " + std::to_string(J) +
                   " changed under --reduce=all: '" + UW[J].Message +
                   "' vs '" + RW[J].Message + "'";
          return false;
        }
    }

    ReductionPlan Plan2 = planTrace(Reduced, PassMask::all());
    PassStats RStats2;
    Trace Twice2 = reduceTrace(Reduced, Plan2, &RStats2);
    if (RStats2.droppedTotal() != 0 || !sameEvents(Reduced, Twice2)) {
      WhyOut = "reduction is not idempotent (" +
               std::to_string(RStats2.droppedTotal()) +
               " events dropped on second pass)";
      return false;
    }
  }

  // 9. Binary container round-trip identity and corruption robustness.
  // Two frame sizes: the production default (single frame for fuzz-sized
  // traces) and a small one that forces multi-frame containers with
  // symbol blocks split across frames.
  {
    const size_t FrameSizes[] = {BinaryTraceWriter::DefaultFrameEvents,
                                 1 + Repaired.size() / 3};
    for (size_t FE : FrameSizes) {
      std::string Bytes = printBinaryTrace(Repaired, FE);

      Trace Back;
      BinaryTraceReader Reader(Back.symbols());
      if (!Reader.openBuffer(Bytes)) {
        WhyOut = "binary encoding of a valid trace failed to open: " +
                 Reader.error();
        return false;
      }
      Event E;
      while (Reader.next(E))
        Back.push(E);
      if (Reader.failed()) {
        WhyOut = "binary round-trip read failed: " + Reader.error();
        return false;
      }
      // printTrace equality covers the event sequence and every symbol
      // name in one comparison.
      if (printTrace(Back) != printTrace(Repaired)) {
        WhyOut = "binary round-trip changed the trace (frame size " +
                 std::to_string(FE) + ")";
        return false;
      }
      ++Stats.BinaryRoundTrips;

      // Truncations (every strict prefix is invalid by construction: the
      // trailer seals the container) and single-bit flips (every byte is
      // covered by a checksum, a validated header field, or the trailer).
      for (int K = 0; K < 4; ++K) {
        std::string Cut = Bytes.substr(0, R.below(Bytes.size()));
        if (!binaryRejectsCleanly(Cut, WhyOut)) {
          WhyOut += " (truncated to " + std::to_string(Cut.size()) +
                    " of " + std::to_string(Bytes.size()) + " bytes)";
          return false;
        }
        ++Stats.BinaryRejected;
      }
      for (int K = 0; K < 4; ++K) {
        std::string Flip = Bytes;
        size_t P = R.below(Flip.size());
        Flip[P] = static_cast<char>(
            static_cast<uint8_t>(Flip[P]) ^ (1u << R.below(8)));
        if (!binaryRejectsCleanly(Flip, WhyOut)) {
          WhyOut += " (bit flipped at byte " + std::to_string(P) + ")";
          return false;
        }
        ++Stats.BinaryRejected;
      }

      // 10. Salvage recovery (velodrome-check --salvage). An intact
      // container must salvage to itself with recovery disengaged; every
      // truncation must either salvage to a strict prefix of the original
      // events or fail cleanly (exhaustively for small containers, sampled
      // for large ones); and bit flips must never crash the salvage scan
      // or break the prefix property.
      {
        SymbolTable SalvSyms;
        BinaryTraceReader SalvReader(SalvSyms);
        if (!SalvReader.openBufferSalvage(Bytes) ||
            SalvReader.salvage().Used) {
          WhyOut = "salvage open of an intact container failed or engaged "
                   "recovery";
          return false;
        }
      }
      auto CheckCut = [&](size_t N) {
        bool Recovered = false;
        if (!binarySalvagesToPrefix(Bytes.substr(0, N), Repaired, Recovered,
                                    WhyOut)) {
          WhyOut += " (salvage of a truncation to " + std::to_string(N) +
                    " of " + std::to_string(Bytes.size()) + " bytes)";
          return false;
        }
        ++(Recovered ? Stats.SalvagePrefixes : Stats.SalvageRejects);
        return true;
      };
      if (Bytes.size() <= 256) {
        for (size_t N = 0; N < Bytes.size(); ++N)
          if (!CheckCut(N))
            return false;
      } else {
        for (int K = 0; K < 8; ++K)
          if (!CheckCut(R.below(Bytes.size())))
            return false;
      }
      for (int K = 0; K < 4; ++K) {
        std::string Flip = Bytes;
        size_t P = R.below(Flip.size());
        Flip[P] = static_cast<char>(static_cast<uint8_t>(Flip[P]) ^
                                    (1u << R.below(8)));
        bool Recovered = false;
        if (!binarySalvagesToPrefix(Flip, Repaired, Recovered, WhyOut)) {
          WhyOut += " (salvage with bit flipped at byte " +
                    std::to_string(P) + ")";
          return false;
        }
        ++(Recovered ? Stats.SalvagePrefixes : Stats.SalvageRejects);
      }
    }
  }

  // 11. The deadlock checker and the structured report layer.
  {
    DeadlockDetector Dlk;
    replay(Repaired, Dlk);
    Stats.DeadlockCycles += Dlk.warnings().size();

    // Reduce invariance: the static passes drop only accesses, so the
    // nested-acquisition order graph — and therefore the cycle list — is
    // identical on the reduced trace.
    Trace DlkReduced =
        reduceTrace(Repaired, planTrace(Repaired, PassMask::all()), nullptr);
    DeadlockDetector RDlk;
    replay(DlkReduced, RDlk);
    if (Dlk.warnings().size() != RDlk.warnings().size()) {
      WhyOut = "Deadlock: cycle count changed under --reduce=all (" +
               std::to_string(Dlk.warnings().size()) + " vs " +
               std::to_string(RDlk.warnings().size()) + ")";
      return false;
    }
    for (size_t J = 0; J < Dlk.warnings().size(); ++J)
      if (Dlk.warnings()[J].Message != RDlk.warnings()[J].Message) {
        WhyOut = "Deadlock: cycle " + std::to_string(J) +
                 " changed under --reduce=all: '" +
                 Dlk.warnings()[J].Message + "' vs '" +
                 RDlk.warnings()[J].Message + "'";
        return false;
      }

    if (!snapshotRoundTrips<DeadlockDetector>(Repaired, "Deadlock", Stats,
                                              WhyOut))
      return false;

    // The full multi-checker report, the plan's with the deadlock section
    // added, must render to well-formed JSON in both machine formats — and
    // the JSON must be identical when rebuilt from a snapshot-restored
    // warning list (reports survive kill/--resume byte for byte).
    ReportManager RM;
    Full->report(RM, Repaired.symbols());
    RM.Run.Tool = "velodrome-fuzz";
    RM.Run.Trace = "mutant";
    RM.Run.Events = Repaired.size();
    RM.Run.SanitizedEvents = Repaired.size();
    RM.Run.Threads = Repaired.numThreads();
    RM.addSection(Dlk.name(), Dlk.warnings(), &Repaired.symbols());
    const std::string Json = RM.renderJson();
    if (!JsonValidator(Json).valid()) {
      WhyOut = "report JSON is not well formed: " + Json.substr(0, 200);
      return false;
    }
    const std::string Sarif = RM.renderSarif();
    if (!JsonValidator(Sarif).valid()) {
      WhyOut = "report SARIF is not well formed: " + Sarif.substr(0, 200);
      return false;
    }

    SnapshotWriter DlkW;
    Dlk.serialize(DlkW);
    DeadlockDetector DlkBack;
    DlkBack.beginAnalysis(Repaired.symbols());
    SnapshotReader DlkR(DlkW.payload());
    if (!DlkBack.deserialize(DlkR)) {
      WhyOut = "Deadlock: report snapshot failed to restore";
      return false;
    }
    ReportManager RM2;
    Full->report(RM2, Repaired.symbols());
    RM2.Run = RM.Run;
    RM2.addSection(DlkBack.name(), DlkBack.warnings(), &Repaired.symbols());
    if (RM2.renderJson() != Json) {
      WhyOut = "report JSON changed across a snapshot round-trip";
      return false;
    }
    ++Stats.ReportsChecked;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  sys::ignoreSigpipe(); // closed pager/pipe must be a write error, not death
  std::string CorpusDir = "tests/data/fuzz", SaveDir = ".";
  uint64_t Seed = 1, Iters = 500, ParallelThreads = 0;
  bool Verbose = false, Parallel = true;

  const FlagTable Table{
      "velodrome-fuzz [options]",
      {stringFlag("--corpus=DIR", CorpusDir,
                  "seed corpus directory (default tests/data/fuzz)"),
       u64Flag("--seed=N", Seed, "PRNG seed (default 1)"),
       u64Flag("--iters=N", Iters, "mutants to execute (default 500)"),
       stringFlag("--save=DIR", SaveDir,
                  "where to write failing inputs (default .)"),
       {"--parallel=N",
        [&](const std::string &V) {
          if (!parseU64(V.c_str(), ParallelThreads))
            return false;
          Parallel = ParallelThreads != 0;
          return true;
        },
        "worker threads for the multi-back-end replays (default: hardware "
        "threads; 0 = sequential)"},
       boolFlag("--no-parallel", Parallel, "run every replay sequentially",
                false),
       boolFlag("--verbose", Verbose, "per-iteration progress")},
      "exit: 0 all checks passed, 1 a check failed, 2 usage error\n"};
  std::vector<std::string> Operands;
  if (int Rc = Table.parse(argc, argv, Operands); Rc >= 0)
    return Rc;

  // Seed corpus: every readable *.trace under --corpus, in sorted order for
  // determinism. An empty/missing corpus still fuzzes generated traces.
  std::vector<std::string> Corpus;
  {
    std::error_code Ec;
    std::vector<std::filesystem::path> Paths;
    for (const auto &Entry :
         std::filesystem::directory_iterator(CorpusDir, Ec))
      if (Entry.path().extension() == ".trace")
        Paths.push_back(Entry.path());
    std::sort(Paths.begin(), Paths.end());
    for (const auto &P : Paths) {
      std::ifstream In(P);
      std::stringstream Buf;
      Buf << In.rdbuf();
      if (In)
        Corpus.push_back(Buf.str());
    }
    if (Ec)
      std::fprintf(stderr, "note: corpus directory %s: %s (fuzzing "
                   "generated traces only)\n",
                   CorpusDir.c_str(), Ec.message().c_str());
  }
  std::printf("velodrome-fuzz: %zu corpus seed(s), seed=%llu, iters=%llu\n",
              Corpus.size(), static_cast<unsigned long long>(Seed),
              static_cast<unsigned long long>(Iters));

  // One persistent pool for the whole run; per-mutant thread creation
  // would dominate at fuzzing iteration rates.
  std::unique_ptr<BackendFanout> Pool;
  if (Parallel)
    Pool = std::make_unique<BackendFanout>(
        static_cast<unsigned>(ParallelThreads));
  if (Verbose)
    std::printf("  multi-back-end replays: %s\n",
                Pool ? (std::to_string(Pool->threadCount()) +
                        " pool thread(s)").c_str()
                     : "sequential");

  Rng R(Seed * 0x9e3779b97f4a7c15ull + 1);
  FuzzStats Stats;
  uint64_t Failures = 0;

  // Iteration 0 runs every corpus seed unmutated: checked-in crasher
  // regressions re-execute verbatim on every fuzz run.
  std::vector<std::string> Queue = Corpus;
  uint64_t Total = Iters > UINT64_MAX - Queue.size() ? UINT64_MAX
                                                     : Iters + Queue.size();
  for (uint64_t It = 0; It < Total; ++It) {
    std::string Text;
    if (It < Queue.size()) {
      Text = Queue[It];
    } else if (!Corpus.empty() && R.below(4) != 0) {
      Text = mutate(Corpus[R.below(Corpus.size())], Corpus, R);
    } else {
      // Fresh structurally valid trace, then mutate it: exercises repairs
      // on inputs that are *almost* well-formed.
      TraceGenOptions GOpts;
      GOpts.Threads = 2 + static_cast<uint32_t>(R.below(3));
      GOpts.Steps = 10 + R.below(50);
      GOpts.UseForkJoin = R.below(2) == 0;
      Text = mutate(printTrace(generateRandomTrace(R.next(), GOpts)), Corpus,
                    R);
    }
    std::string Why;
    if (!checkMutant(Text, Pool.get(), R, Stats, Why)) {
      ++Failures;
      std::string Path = SaveDir + "/fuzz-fail-" + std::to_string(It) +
                         ".trace";
      std::ofstream Out(Path);
      Out << Text;
      std::fprintf(stderr, "FAIL iter %llu: %s\n  input saved to %s\n",
                   static_cast<unsigned long long>(It), Why.c_str(),
                   Path.c_str());
      if (Failures >= 10) {
        std::fprintf(stderr, "too many failures; stopping early\n");
        break;
      }
    }
    if (Verbose && It % 100 == 0)
      std::printf("  iter %llu...\n", static_cast<unsigned long long>(It));
  }

  std::printf("parsed=%llu rejected=%llu strict-ok=%llu repaired=%llu "
              "(%llu repairs) violations=%llu serializable=%llu "
              "snapshots=%llu reduced-dropped=%llu binary-rt=%llu "
              "binary-rejected=%llu salvage-prefix=%llu "
              "salvage-rejected=%llu deadlock-cycles=%llu reports=%llu\n",
              static_cast<unsigned long long>(Stats.ParsedOk),
              static_cast<unsigned long long>(Stats.ParseRejected),
              static_cast<unsigned long long>(Stats.StrictOk),
              static_cast<unsigned long long>(Stats.Repaired),
              static_cast<unsigned long long>(Stats.RepairEvents),
              static_cast<unsigned long long>(Stats.Violations),
              static_cast<unsigned long long>(Stats.Serializable),
              static_cast<unsigned long long>(Stats.Snapshots),
              static_cast<unsigned long long>(Stats.ReducedDropped),
              static_cast<unsigned long long>(Stats.BinaryRoundTrips),
              static_cast<unsigned long long>(Stats.BinaryRejected),
              static_cast<unsigned long long>(Stats.SalvagePrefixes),
              static_cast<unsigned long long>(Stats.SalvageRejects),
              static_cast<unsigned long long>(Stats.DeadlockCycles),
              static_cast<unsigned long long>(Stats.ReportsChecked));
  if (Failures != 0) {
    std::fprintf(stderr, "velodrome-fuzz: %llu failure(s)\n",
                 static_cast<unsigned long long>(Failures));
    return 1;
  }
  std::printf("velodrome-fuzz: all checks passed\n");
  return 0;
}
