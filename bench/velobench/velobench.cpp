//===- bench/velobench/velobench.cpp - The repository benchmark -----------===//
//
//   velobench --workload NAME --seed N --seconds S --trace 0|1
//             --tools DIR --work DIR [--serve-mevps RATE]
//
// (run.py builds the benchmark and supplies --tools and --work;
// BENCHMARK.json's command fixes --serve-mevps, the serve-tenants
// open-loop rate.)
//
// One run sets its workload up from the seed five times (setup_s is the
// median of the five), makes one warm-up pass, measures for S seconds, and
// prints the result document as the last line of stdout.
//
//  --trace 0  end-to-end: the real tools as subprocesses — velodrome-check
//             once per job, or a velodrome-serve daemon loaded by this
//             process — every output checked.
//  --trace 1  per-layer: half the window repeats the subprocess passes
//             (tail latency, generator lag, the reports the traced run
//             must reproduce), half alternates untraced and traced
//             in-process passes (Layers.h). Spans are written to
//             <work>/<workload>.spans.jsonl at exit.
//
// README.md has the metric and workload tables and the reasons behind
// them.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"
#include "Layers.h"
#include "ServeLoad.h"

#include "analysis/Snapshot.h"
#include "events/BinaryWriter.h"
#include "events/TraceText.h"
#include "serve/Session.h"
#include "serve/Wire.h"
#include "support/Syscalls.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace velo;
using namespace velobench;

namespace {

constexpr int SetupReps = 5;
constexpr size_t FrameEvents = 4096;

/// The paper's benchmark analogues (src/workloads), recorded at this
/// velodrome-run --scale. Recording cost grows faster than the event count
/// (the deterministic scheduler hands off between real threads), and set-up
/// records every trace SetupReps times.
const char *const PaperWorkloads[] = {
    "elevator", "hedc", "tsp", "sor", "jbb", "mtrt", "moldyn", "montecarlo",
    "raytracer", "colt", "philo", "raja", "multiset", "webl", "jigsaw"};
constexpr const char *PaperScale = "--scale=40";

// Sized so one window holds dozens of runs of every check job (see
// fastest()).
constexpr uint64_t ContendedEvents = 1'000'000;
constexpr uint64_t LocalEvents = 2'000'000;
constexpr uint64_t TenantEvents = 250'000;
constexpr size_t NumTenants = 4;

constexpr double ServePauseSec = 0.1;
/// serve-tenants timings are taken per slice of the load window.
constexpr double ServeSliceSec = 0.5;

/// Interference from other tenants of a shared host only ever slows a
/// program down, in bursts of seconds to minutes. Timings are therefore
/// taken per job (or per slice of serve load) and reported from the fastest
/// one, the closest a run gets to the program's undisturbed speed (README.md
/// has the measurements behind this choice).
double fastest(const std::vector<double> &Seconds) {
  return quantile(Seconds, 0.0);
}

struct Run {
  Options O;
  std::string Check, Record, Serve;
  int PinCpu = -1;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  ResultDoc Doc;
  std::vector<double> SetupSec, InputsSec, ReferenceSec;

  /// A defect of the run itself (setup, identity, determinism).
  void problem(const std::string &Msg) {
    Correct = false;
    std::fprintf(stderr, "velobench: %s\n", Msg.c_str());
  }
  /// One attempted operation that failed its output check.
  void failed(const std::string &Msg) {
    ++Failed;
    if (Failed <= 5)
      std::fprintf(stderr, "velobench: failed: %s\n", Msg.c_str());
  }
  std::string seedArg() const { return "--seed=" + std::to_string(O.Seed); }
};

uint64_t fileDigest(const std::vector<std::string> &Paths) {
  std::string All, Bytes;
  for (const std::string &P : Paths)
    if (readFile(P, Bytes))
      All += Bytes;
  return snapshotChecksum(All);
}

//===----------------------------------------------------------------------===//
// Traced passes and the per-layer metrics (shared by every workload)
//===----------------------------------------------------------------------===//

struct LiveStats {
  std::vector<double> LatencyMs; ///< job exec-to-exit, or frame due-to-ACK
  std::vector<double> LagMs;     ///< generator lateness
  double CreditWaitShare = 0;
  uint64_t Frames = 0;
};

struct TracedPasses {
  Tracer T;
  std::vector<uint32_t> Runs;
  std::vector<double> UntracedWall;
  LayerCounts Counts; ///< of the first traced pass (counts repeat exactly)

  /// Run one in-process pass (Body does every job of the workload) either
  /// untraced or traced under a root span.
  bool pass(bool Traced, const std::function<bool(LayerCounts &)> &Body) {
    T.setEnabled(Traced);
    uint32_t Id = T.beginRun();
    LayerCounts C;
    double Start = now();
    bool Ok;
    {
      Tracer::Scope Root(T, layer::Pass);
      Ok = Body(C);
    }
    if (!Traced) {
      UntracedWall.push_back(now() - Start);
    } else {
      if (Runs.empty())
        Counts = C;
      Runs.push_back(Id);
    }
    return Ok;
  }

  /// Alternate untraced and traced passes, checking each pass's reports
  /// with Verify, until Seconds have passed (at least one of each). False
  /// when a pass could not run.
  bool alternate(double Seconds,
                 const std::function<bool(LayerCounts &)> &Body,
                 const std::function<void()> &Verify) {
    double End = now() + Seconds;
    do {
      for (bool Traced : {false, true}) {
        if (!pass(Traced, Body))
          return false;
        Verify();
      }
    } while (now() < End);
    return true;
  }
};

void emitLayers(Run &R, const TracedPasses &TP, const LiveStats &Live) {
  std::vector<std::map<std::string, double>> Self;
  std::vector<double> Total, Covered;
  for (uint32_t Id : TP.Runs) {
    Self.push_back(TP.T.selfTimes(Id));
    double Sum = 0;
    for (const auto &KV : Self.back())
      Sum += KV.second;
    Total.push_back(Sum);
    Covered.push_back((Sum - Self.back()[layer::Pass]) / Sum);
  }
  auto Busy = [&](const char *L) {
    std::vector<double> V;
    for (auto &M : Self)
      V.push_back(M.count(L) ? M.at(L) : 0);
    return median(V);
  };
  // Layers only some workloads run are given as a share of the traced pass,
  // so that no time reads a constant 0.
  auto Share = [&](const char *L) {
    std::vector<double> V;
    for (size_t I = 0; I < Self.size(); ++I)
      V.push_back(Self[I].count(L) ? Self[I].at(L) / Total[I] : 0);
    return median(V);
  };
  auto Ratio = [](uint64_t A, uint64_t B) {
    return B ? static_cast<double>(A) / static_cast<double>(B) : 0;
  };
  const LayerCounts &C = TP.Counts;
  ResultDoc &D = R.Doc;
  double Decode = Busy(layer::Decode);
  D.add("events.decode.busy_s", Decode, "s");
  D.add("events.decode.ns_per_event",
        C.Decoded ? Decode / static_cast<double>(C.Decoded) * 1e9 : 0,
        "ns/event");
  D.add("events.decode.events", static_cast<double>(C.Decoded), "count");
  D.add("events.sanitize.share", Share(layer::Sanitize), "frac");
  D.add("staticpass.classify.share", Share(layer::Classify), "frac");
  D.add("staticpass.filter.share", Share(layer::Filter), "frac");
  D.add("staticpass.filter.kept_ratio", Ratio(C.Kept, C.Offered), "ratio");
  D.add("parallel.pipeline.mevps",
        C.PipelineWall > 0 ? C.PipelineEvents / C.PipelineWall / 1e6 : 0,
        "Mev/s");
  D.add("parallel.reader_ring_high", static_cast<double>(C.ReaderRingHigh),
        "batches");
  D.add("parallel.worker_ring_high", static_cast<double>(C.WorkerRingHigh),
        "batches");
  D.add("parallel.batches", static_cast<double>(C.PipelineBatches), "count");
  D.add("analysis.backend.share", Share(layer::Backend), "frac");
  D.add("analysis.backend.events", static_cast<double>(C.Delivered), "count");
  D.add("core.graph.allocated", static_cast<double>(C.GraphAllocated),
        "count");
  D.add("core.graph.max_alive", static_cast<double>(C.GraphMaxAlive),
        "count");
  D.add("core.graph.edges", static_cast<double>(C.GraphEdges), "count");
  D.add("core.graph.merged", static_cast<double>(C.GraphMerged), "count");
  D.add("core.merge_ratio",
        Ratio(C.GraphMerged, C.GraphMerged + C.GraphAllocated), "ratio");
  D.add("report.render.share", Share(layer::Render), "frac");
  D.add("report.bytes", static_cast<double>(C.ReportBytes), "bytes");
  D.add("serve.wire.encode.share", Share(layer::Encode), "frac");
  D.add("serve.wire.bytes_per_event", Ratio(C.WireBytes, C.WireEvents),
        "bytes/event");
  D.add("serve.session.feed.share", Share(layer::Feed), "frac");
  D.add("serve.session.evict.share", Share(layer::Evict), "frac");
  D.add("serve.session.rehydrate.share", Share(layer::Rehydrate), "frac");
  D.add("serve.session.finish.share", Share(layer::Finish), "frac");
  D.add("serve.session.snapshot_bytes", static_cast<double>(C.SnapshotBytes),
        "bytes");
  D.add("serve.client.credit_wait_share", Live.CreditWaitShare, "frac");
  D.add("serve.client.frames", static_cast<double>(Live.Frames), "count");
  D.add("request.latency_ms_p50", median(Live.LatencyMs), "ms");
  D.add("request.latency_ms_p99", quantile(Live.LatencyMs, 0.99), "ms");
  D.add("loadgen.lag_ms_p99", quantile(Live.LagMs, 0.99), "ms");
  D.add("loadgen.lag_ms_max", quantile(Live.LagMs, 1.0), "ms");
  D.add("setup.inputs_s", median(R.InputsSec), "s");
  D.add("setup.reference_s", median(R.ReferenceSec), "s");
  D.add("trace.pass_s", median(Total), "s");
  double Covers = median(Covered);
  D.add("trace.stage_sum_frac", Covers, "ratio");
  D.add("trace.overhead_frac", median(Total) / median(TP.UntracedWall) - 1,
        "ratio");
  if (Covers < 0.95)
    R.problem("layer spans cover only " + std::to_string(Covers) +
              " of the traced wall time (need 0.95)");
  std::string Err;
  if (!TP.T.writeJsonl(R.O.WorkDir + "/" + R.O.Workload + ".spans.jsonl",
                       Err))
    R.problem(Err);
}

//===----------------------------------------------------------------------===//
// Check workloads: velodrome-check once per job
//===----------------------------------------------------------------------===//

struct CheckSet {
  std::vector<CheckJob> Jobs;
  std::vector<int> WantExit;
  /// Expected report bytes. A job whose entry is empty adopts the report
  /// of its first run, which every repetition must then reproduce.
  std::vector<std::string> WantReport;
  uint64_t Digest = 0;
  uint64_t events() const {
    uint64_t N = 0;
    for (const CheckJob &J : Jobs)
      N += J.Events;
    return N;
  }
};

using CheckSetup = std::function<bool(Run &, CheckSet &, std::string &)>;

void addJob(CheckSet &S, CheckJob J, bool Violation) {
  S.Jobs.push_back(std::move(J));
  S.WantExit.push_back(Violation ? 1 : 0);
  S.WantReport.emplace_back();
}

bool setupPaper(Run &R, CheckSet &S, std::string &Err) {
  double Start = now();
  std::vector<std::string> Files;
  std::vector<int> OnlineExit;
  for (const char *W : PaperWorkloads) {
    Files.push_back(std::string(W) + ".vtrc");
    // One CPU: the deterministic scheduler runs one monitored thread at a
    // time, and hand-offs between CPUs make recording slow and erratic.
    ChildRun C;
    if (!runChild({R.Record, W, PaperScale, R.seedArg(),
                   "--record=" + Files.back()},
                  "stderr.log", R.PinCpu, C, Err))
      return false;
    if (!C.Exited || C.ExitCode > 1) {
      Err = std::string("velodrome-run ") + W + " failed (see stderr.log)";
      return false;
    }
    OnlineExit.push_back(C.ExitCode);
  }
  R.InputsSec.push_back(now() - Start);
  Start = now();
  for (size_t I = 0; I < Files.size(); ++I) {
    Trace T;
    bool Violation = false;
    if (!readTraceFile(Files[I], T, Err) ||
        !independentViolation(T, "velodrome", Violation, Err))
      return false;
    if (OnlineExit[I] != (Violation ? 1 : 0))
      R.problem("velodrome-run's online verdict on " + Files[I] +
                " differs from AeroDrome's offline verdict");
    addJob(S, {Files[I], "velodrome", "json", false, false, false, T.size()},
           Violation);
  }
  R.ReferenceSec.push_back(now() - Start);
  S.Digest = fileDigest(Files);
  return true;
}

bool setupContended(Run &R, CheckSet &S, std::string &Err) {
  double Start = now();
  TraceGenOptions G;
  G.Threads = 8;
  G.Vars = 64;
  G.Locks = 8;
  G.Steps = 20000;
  G.GuardedAccessPct = 60;
  Trace T;
  const std::string File = "contended.trace";
  if (!generateChunkedTrace(R.O.Seed, G, ContendedEvents, T, Err))
    return false;
  if (!writeTraceFile(T, File)) {
    Err = "cannot write " + File;
    return false;
  }
  R.InputsSec.push_back(now() - Start);
  Start = now();
  bool Violation = false;
  if (!independentViolation(T, "aero", Violation, Err))
    return false;
  R.ReferenceSec.push_back(now() - Start);
  addJob(S, {File, "aero", "sarif", true, false, false, T.size()}, Violation);
  S.Digest = fileDigest({File});
  return true;
}

bool setupLocal(Run &R, CheckSet &S, std::string &Err) {
  double Start = now();
  const std::string File = "local.vtrc";
  Trace T = makeThreadLocalTrace(R.O.Seed, 4, LocalEvents);
  if (!writeBinaryTraceFile(T, File, Err))
    return false;
  R.InputsSec.push_back(now() - Start);
  Start = now();
  bool Violation = false;
  if (!independentViolation(T, "velodrome", Violation, Err))
    return false;
  // The reduced parallel report must equal the plain sequential one (JSON
  // locates findings by sanitized ordinal, which reduction preserves).
  CheckJob Plain = {File, "velodrome", "json", false, false, false, T.size()};
  ChildRun C;
  if (!runChild(Plain.argv(R.Check), "stderr.log", -1, C, Err))
    return false;
  if (!C.Exited || C.ExitCode != (Violation ? 1 : 0)) {
    Err = "plain velodrome-check on " + File + " disagrees with AeroDrome";
    return false;
  }
  R.ReferenceSec.push_back(now() - Start);
  CheckJob J = Plain;
  J.Reduce = true;
  J.Parallel = true;
  addJob(S, J, Violation);
  S.WantReport.back() = C.Stdout;
  S.Digest = fileDigest({File});
  return true;
}

struct PassResult {
  std::vector<double> JobSec; ///< each job's exec-to-exit time
  long MaxRssKb = 0;          ///< largest child peak RSS
};

/// Every job once.
bool checkPass(Run &R, CheckSet &S, LiveStats &Live, PassResult &P,
               std::string &Err) {
  P = PassResult();
  double PrevEnd = now();
  for (size_t J = 0; J < S.Jobs.size(); ++J) {
    ChildRun C;
    // Closed loop: each job is due the moment the previous one was reaped.
    Live.LagMs.push_back((now() - PrevEnd) * 1e3);
    if (!runChild(S.Jobs[J].argv(R.Check), "stderr.log", -1, C, Err))
      return false;
    PrevEnd = now();
    ++R.Attempted;
    P.JobSec.push_back(C.WallSec);
    P.MaxRssKb = std::max(P.MaxRssKb, C.MaxRssKb);
    Live.LatencyMs.push_back(C.WallSec * 1e3);
    const std::string &Name = S.Jobs[J].Trace;
    if (!C.Exited) {
      R.failed(Name + ": killed by signal " + std::to_string(C.Signal));
      continue;
    }
    if (C.ExitCode != S.WantExit[J]) {
      R.failed(Name + ": exit " + std::to_string(C.ExitCode) +
               ", independent checker says " +
               std::to_string(S.WantExit[J]));
      continue;
    }
    std::string &Want = S.WantReport[J];
    if (C.Stdout.empty())
      R.failed(Name + ": no report on stdout");
    else if (Want.empty())
      Want = C.Stdout;
    else if (C.Stdout != Want)
      R.failed(Name + ": report bytes differ from the expected report");
  }
  return true;
}

int runCheckWorkload(Run &R, const CheckSetup &Setup) {
  CheckSet S;
  std::string Err;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    CheckSet Fresh;
    double Start = now();
    if (!Setup(R, Fresh, Err)) {
      std::fprintf(stderr, "velobench: setup failed: %s\n", Err.c_str());
      return 2;
    }
    R.SetupSec.push_back(now() - Start);
    if (Rep > 0 && Fresh.Digest != S.Digest)
      R.problem("set-up is not deterministic: inputs differ between "
                "repetitions with the same seed");
    S = std::move(Fresh);
  }

  LiveStats Warm, Live;
  PassResult P;
  if (!checkPass(R, S, Warm, P, Err)) {
    std::fprintf(stderr, "velobench: %s\n", Err.c_str());
    return 2;
  }

  double Window = R.O.Trace ? R.O.Seconds / 2 : R.O.Seconds;
  std::vector<std::vector<double>> JobSec(S.Jobs.size());
  std::vector<double> PassRss;
  double End = now() + Window;
  do {
    if (!checkPass(R, S, Live, P, Err)) {
      std::fprintf(stderr, "velobench: %s\n", Err.c_str());
      return 2;
    }
    for (size_t J = 0; J < S.Jobs.size(); ++J)
      JobSec[J].push_back(P.JobSec[J]);
    PassRss.push_back(static_cast<double>(P.MaxRssKb));
  } while (now() < End);

  if (!R.O.Trace) {
    // A pass as fast as each job's fastest run.
    double PassSec = 0;
    for (const std::vector<double> &V : JobSec)
      PassSec += fastest(V);
    R.Doc.add("mevps", static_cast<double>(S.events()) / PassSec / 1e6,
              "Mev/s");
    R.Doc.add("peak_rss_mb", median(PassRss) / 1024, "MB");
    R.Doc.add("setup_s", median(R.SetupSec), "s");
    return 0;
  }

  TracedPasses TP;
  std::vector<std::string> Reports(S.Jobs.size());
  std::vector<int> Exits(S.Jobs.size());
  auto Body = [&](LayerCounts &C) {
    for (size_t J = 0; J < S.Jobs.size(); ++J)
      if (!runCheckInProcess(S.Jobs[J], TP.T, C, Reports[J], Exits[J], Err))
        return false;
    return true;
  };
  auto Verify = [&] {
    for (size_t J = 0; J < S.Jobs.size(); ++J) {
      ++R.Attempted;
      if (Reports[J] != S.WantReport[J] || Exits[J] != S.WantExit[J]) {
        R.failed(S.Jobs[J].Trace + ": in-process report differs from "
                                   "velodrome-check's stdout");
        R.problem("the traced run does not reproduce the CLI report");
      }
    }
  };
  if (TP.alternate(R.O.Seconds / 2, Body, Verify))
    emitLayers(R, TP, Live);
  else
    R.problem("in-process run failed: " + Err);
  return 0;
}

//===----------------------------------------------------------------------===//
// serve-tenants: a velodrome-serve daemon loaded by this process
//===----------------------------------------------------------------------===//

struct ServeSet {
  std::vector<Trace> Streams;
  std::vector<TenantStream> Tenants;
};

bool daemonReady(const std::string &Socket, double TimeoutSec) {
  double End = now() + TimeoutSec;
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Socket.c_str(), sizeof(Addr.sun_path) - 1);
  do {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    bool Ok = Fd >= 0 && ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                                   sizeof(Addr)) == 0;
    if (Fd >= 0)
      sys::closeQuiet(Fd);
    if (Ok)
      return true;
    ::usleep(2000);
  } while (now() < End);
  return false;
}

const char *const Socket = "serve.sock";

bool setupServe(Run &R, ServeSet &S, Daemon &D, std::string &Err) {
  double Start = now();
  S = ServeSet();
  TraceGenOptions G;
  G.Threads = 4;
  G.Vars = 64;
  G.Locks = 4;
  G.Steps = 20000;
  G.GuardedAccessPct = 60;
  for (size_t I = 0; I < NumTenants; ++I) {
    Trace T;
    if (!generateChunkedTrace(R.O.Seed * NumTenants + I, G, TenantEvents, T,
                              Err))
      return false;
    TenantStream Tn;
    Tn.Name = "tenant-" + std::to_string(I);
    for (std::string &P : encodeFrames(T, FrameEvents))
      Tn.Frames.push_back(serve::frameBytes(serve::EventsKind, P));
    for (uint64_t Pos = 0; Pos < T.size(); Pos += FrameEvents)
      Tn.FrameEvents.push_back(std::min<uint64_t>(FrameEvents, T.size() - Pos));
    S.Streams.push_back(std::move(T));
    S.Tenants.push_back(std::move(Tn));
  }
  R.InputsSec.push_back(now() - Start);
  Start = now();
  for (size_t I = 0; I < NumTenants; ++I) {
    // The verdict a directly fed Session renders (what velodrome-check
    // prints for the same stream, per the daemon's contract).
    const Trace &T = S.Streams[I];
    serve::Session Sess;
    serve::SessionConfig Config;
    Config.Name = S.Tenants[I].Name;
    Config.BackendSel = "velodrome";
    if (!Sess.configure(Config, Err))
      return false;
    Sess.symbols().Vars.syncFrom(T.symbols().Vars);
    Sess.symbols().Locks.syncFrom(T.symbols().Locks);
    Sess.symbols().Labels.syncFrom(T.symbols().Labels);
    for (const Event &E : T)
      if (!Sess.feed(E, Err))
        return false;
    if (!Sess.finish(Err))
      return false;
    S.Tenants[I].WantReport = Sess.report();
    S.Tenants[I].WantExit = Sess.exitCode();
  }
  R.ReferenceSec.push_back(now() - Start);
  removeDir("state");
  if (::mkdir("state", 0755) != 0) {
    Err = "cannot create the daemon state directory";
    return false;
  }
  if (!D.start({R.Serve, std::string("--socket=") + Socket, "--workers=2",
                "--idle-evict-ms=50", "--state-dir=state", "--quiet"},
               "daemon.log", Err))
    return false;
  if (!daemonReady(Socket, 10)) {
    Err = "velodrome-serve did not accept connections (see daemon.log)";
    return false;
  }
  return true;
}

/// Per-slice view of a load window: ACKs by arrival time, whole slices
/// inside the window only.
std::vector<std::vector<const LoadResult::Ack *>>
slices(const LoadResult &L, double Seconds) {
  std::vector<std::vector<const LoadResult::Ack *>> Out(
      static_cast<size_t>(Seconds / ServeSliceSec));
  for (const LoadResult::Ack &A : L.Acks) {
    size_t I = static_cast<size_t>(A.At / ServeSliceSec);
    if (I < Out.size())
      Out[I].push_back(&A);
  }
  return Out;
}

/// Events acknowledged per second, per slice (Mev/s); the fastest slice
/// gives the capacity (see fastest()).
std::vector<double> sliceThroughput(const LoadResult &L, double Seconds) {
  std::vector<double> Out;
  for (const auto &Slice : slices(L, Seconds)) {
    uint64_t Events = 0;
    for (const LoadResult::Ack *A : Slice)
      Events += A->Events;
    Out.push_back(static_cast<double>(Events) / ServeSliceSec / 1e6);
  }
  return Out;
}

void countLoad(Run &R, const LoadResult &L) {
  R.Attempted += L.Sessions;
  for (const std::string &E : L.Errors)
    std::fprintf(stderr, "velobench: session failed: %s\n", E.c_str());
  R.Failed += L.Failed;
}

int runServeWorkload(Run &R) {
  ServeSet S;
  Daemon D;
  std::string Err;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    ServeSet Fresh;
    double Start = now();
    if (!setupServe(R, Fresh, D, Err)) {
      std::fprintf(stderr, "velobench: setup failed: %s\n", Err.c_str());
      return 2;
    }
    R.SetupSec.push_back(now() - Start);
    if (Rep > 0)
      for (size_t I = 0; I < NumTenants; ++I)
        if (Fresh.Tenants[I].Frames != S.Tenants[I].Frames)
          R.problem("set-up is not deterministic: tenant streams differ "
                    "between repetitions with the same seed");
    S = std::move(Fresh);
    if (Rep + 1 < SetupReps && !D.stop())
      R.problem("velodrome-serve did not shut down cleanly");
  }

  LoadPlan Plan;
  Plan.Socket = Socket;
  LoadResult L;
  // Warm-up: one closed-loop session per connection.
  Plan.Seconds = 60;
  Plan.MaxSessionsPerSlot = 1;
  if (!runLoad(S.Tenants, Plan, L, Err)) {
    std::fprintf(stderr, "velobench: %s\n", Err.c_str());
    return 2;
  }
  countLoad(R, L);
  Plan.MaxSessionsPerSlot = 0;

  LiveStats Live;
  if (!R.O.Trace) {
    // Capacity: closed loop over 60% of the window.
    Plan.Seconds = R.O.Seconds * 0.6;
    if (!runLoad(S.Tenants, Plan, L, Err)) {
      std::fprintf(stderr, "velobench: %s\n", Err.c_str());
      return 2;
    }
    countLoad(R, L);
    double Mevps = quantile(sliceThroughput(L, Plan.Seconds), 1.0);
    // Then the open loop at the fixed rate, so that every session is
    // evicted and rehydrated and its VERDICT still checked.
    Plan.Seconds = R.O.Seconds * 0.4;
    Plan.OpenLoop = true;
    Plan.RateEvs = R.O.ServeMevps * 1e6;
    Plan.PauseSec = ServePauseSec;
    if (!runLoad(S.Tenants, Plan, L, Err)) {
      std::fprintf(stderr, "velobench: %s\n", Err.c_str());
      return 2;
    }
    countLoad(R, L);
    double RssKb = static_cast<double>(D.peakRssKb());
    if (!D.stop())
      R.problem("velodrome-serve did not shut down cleanly");
    R.Doc.add("mevps", Mevps, "Mev/s");
    R.Doc.add("peak_rss_mb", RssKb / 1024, "MB");
    R.Doc.add("setup_s", median(R.SetupSec), "s");
    return 0;
  }

  Plan.Seconds = R.O.Seconds / 2;
  Plan.OpenLoop = true;
  Plan.RateEvs = R.O.ServeMevps * 1e6;
  Plan.PauseSec = ServePauseSec;
  if (!runLoad(S.Tenants, Plan, L, Err)) {
    std::fprintf(stderr, "velobench: %s\n", Err.c_str());
    return 2;
  }
  countLoad(R, L);
  if (!D.stop())
    R.problem("velodrome-serve did not shut down cleanly");
  for (const LoadResult::Ack &A : L.Acks)
    Live.LatencyMs.push_back(A.Ms);
  Live.LagMs = L.LagMs;
  Live.Frames = L.Frames;
  Live.CreditWaitShare = L.CreditWaitSec / (Plan.Seconds * NumTenants);

  TracedPasses TP;
  std::vector<std::string> Reports(NumTenants);
  std::vector<int> Exits(NumTenants);
  auto Body = [&](LayerCounts &C) {
    for (size_t I = 0; I < NumTenants; ++I)
      if (!runServeInProcess(S.Tenants[I].Name, S.Streams[I], FrameEvents,
                             TP.T, C, Reports[I], Exits[I], Err))
        return false;
    return true;
  };
  auto Verify = [&] {
    for (size_t I = 0; I < NumTenants; ++I) {
      ++R.Attempted;
      if (Reports[I] != S.Tenants[I].WantReport ||
          Exits[I] != S.Tenants[I].WantExit) {
        R.failed(S.Tenants[I].Name + ": in-process report differs from "
                                     "the daemon's VERDICT");
        R.problem("the traced run does not reproduce the VERDICT report");
      }
    }
  };
  if (TP.alternate(R.O.Seconds / 2, Body, Verify))
    emitLayers(R, TP, Live);
  else
    R.problem("in-process run failed: " + Err);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  sys::ignoreSigpipe();
  Run R;
  std::string Err;
  if (!parseOptions(Argc, Argv, R.O, Err)) {
    std::fprintf(stderr, "velobench: %s\n", Err.c_str());
    return 2;
  }
  const std::string &W = R.O.Workload;
  if (W != "paper-vtrc" && W != "contended-text" && W != "local-reduce" &&
      W != "serve-tenants") {
    std::fprintf(stderr, "velobench: unknown workload '%s'\n", W.c_str());
    return 2;
  }
  if (W == "serve-tenants" && R.O.ServeMevps <= 0) {
    std::fprintf(stderr, "velobench: serve-tenants needs --serve-mevps\n");
    return 2;
  }
  R.Check = R.O.ToolDir + "/velodrome-check";
  R.Record = R.O.ToolDir + "/velodrome-run";
  R.Serve = R.O.ToolDir + "/velodrome-serve";
  for (const std::string *Tool : {&R.Check, &R.Record, &R.Serve})
    if (::access(Tool->c_str(), X_OK) != 0) {
      std::fprintf(stderr, "velobench: missing tool %s\n", Tool->c_str());
      return 2;
    }
  R.PinCpu = firstAllowedCpu();
  const std::string Dir = R.O.WorkDir + "/" + W;
  ::mkdir(R.O.WorkDir.c_str(), 0755);
  if (!resetDir(Dir, Err) || ::chdir(Dir.c_str()) != 0) {
    std::fprintf(stderr, "velobench: %s\n",
                 Err.empty() ? "cannot enter the work directory" : Err.c_str());
    return 2;
  }

  int Rc = W == "serve-tenants"    ? runServeWorkload(R)
           : W == "paper-vtrc"     ? runCheckWorkload(R, setupPaper)
           : W == "contended-text" ? runCheckWorkload(R, setupContended)
                                   : runCheckWorkload(R, setupLocal);

  if (::chdir(R.O.WorkDir.c_str()) == 0) {
    removeDir(W + "/state");
    removeDir(W);
  }
  if (Rc != 0)
    return Rc;
  bool Correct = R.Correct && R.Failed == 0 && R.Attempted > 0;
  R.Doc.print(Correct, R.Attempted, R.Failed);
  return Correct ? 0 : 1;
}
