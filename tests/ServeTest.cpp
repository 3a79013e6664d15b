//===- tests/ServeTest.cpp - velodrome-serve protocol & daemon ------------===//
//
// The serve subsystem's contracts, bottom-up:
//
//  * wire codecs: message round-trips, hostile-input rejection, events
//    payloads identical to their inputs after a decode;
//  * frame splitter: byte-at-a-time reassembly, torn/corrupt detection,
//    length-bomb rejection;
//  * Session: evict -> rehydrate mid-stream is byte-identical to never
//    evicting; governor exhaustion maps to exit 3;
//  * in-process Server + Client: verdicts byte-identical to a directly-fed
//    Session; session faults isolate; torn frames detach but leave the
//    session resumable; idle eviction is invisible in the verdict;
//    slow-loris and flow-control violations draw fatal NAKs while the
//    daemon keeps serving; a session's end takes its state file, and an
//    ACK counts as durable only what a state file holds.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Session.h"
#include "serve/Wire.h"

#include "events/TraceGen.h"
#include "events/TraceText.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace velo {
namespace serve {
namespace {

/// The in-process server and clients race each other's socket teardown; a
/// late write must come back as EPIPE, not kill the test runner.
const struct SigpipeGuard {
  SigpipeGuard() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipe;

Trace genTrace(uint64_t Seed, size_t Steps = 400, uint32_t Threads = 4) {
  TraceGenOptions Opts;
  Opts.Threads = Threads;
  Opts.Steps = Steps;
  return generateRandomTrace(Seed, Opts);
}

std::vector<Event> eventsOf(const Trace &T) {
  return std::vector<Event>(T.begin(), T.end());
}

/// Reference verdict: one Session fed directly (no wire, no daemon), its
/// symbol table primed with the trace's so event ids resolve identically.
void refVerdict(const Trace &T, std::string &Report, int &Exit,
                std::string *Notes = nullptr,
                const std::string &Name = "sess") {
  Session S;
  SessionConfig C;
  C.Name = Name;
  std::string Err;
  ASSERT_TRUE(S.configure(C, Err)) << Err;
  S.symbols().Vars.syncFrom(T.symbols().Vars);
  S.symbols().Locks.syncFrom(T.symbols().Locks);
  S.symbols().Labels.syncFrom(T.symbols().Labels);
  for (const Event &E : T)
    ASSERT_TRUE(S.feed(E, Err)) << Err;
  ASSERT_TRUE(S.finish(Err)) << Err;
  Report = S.report();
  Exit = S.exitCode();
  if (Notes)
    *Notes = S.notes();
}

//===----------------------------------------------------------------------===//
// Wire codecs
//===----------------------------------------------------------------------===//

TEST(ServeWireTest, MessageCodecsRoundTrip) {
  HelloMsg H;
  H.Name = "trace-42";
  H.BackendSel = "velodrome";
  H.Lenient = true;
  H.Resume = true;
  H.Limits.MaxEvents = 123;
  H.Limits.DeadlineMillis = 456;
  H.Format = 2; // sarif
  std::string Bytes = encodeHello(H);
  HelloMsg H2;
  std::string Err;
  ASSERT_TRUE(decodeHello(reinterpret_cast<const uint8_t *>(Bytes.data()),
                          Bytes.size(), H2, Err))
      << Err;
  EXPECT_EQ(H2.Name, H.Name);
  EXPECT_EQ(H2.BackendSel, H.BackendSel);
  EXPECT_TRUE(H2.Lenient);
  EXPECT_TRUE(H2.Resume);
  EXPECT_EQ(H2.Limits.MaxEvents, 123u);
  EXPECT_EQ(H2.Limits.DeadlineMillis, 456u);
  EXPECT_EQ(H2.Format, 2);

  HelloOkMsg Ok{777, 8, 3, 2, 1};
  Bytes = encodeHelloOk(Ok);
  HelloOkMsg Ok2;
  ASSERT_TRUE(decodeHelloOk(reinterpret_cast<const uint8_t *>(Bytes.data()),
                            Bytes.size(), Ok2, Err))
      << Err;
  EXPECT_EQ(Ok2.Events, 777u);
  EXPECT_EQ(Ok2.Credit, 8u);
  EXPECT_EQ(Ok2.VarsDone, 3u);
  EXPECT_EQ(Ok2.LabelsDone, 1u);

  AckMsg A{100, 8, 96};
  Bytes = encodeAck(A);
  AckMsg A2;
  ASSERT_TRUE(decodeAck(reinterpret_cast<const uint8_t *>(Bytes.data()),
                        Bytes.size(), A2, Err))
      << Err;
  EXPECT_EQ(A2.Events, 100u);
  EXPECT_EQ(A2.Durable, 96u);

  NakMsg N{true, "nope"};
  Bytes = encodeNak(N);
  NakMsg N2;
  ASSERT_TRUE(decodeNak(reinterpret_cast<const uint8_t *>(Bytes.data()),
                        Bytes.size(), N2, Err))
      << Err;
  EXPECT_TRUE(N2.Fatal);
  EXPECT_EQ(N2.Reason, "nope");

  VerdictMsg V{3, "report\n", "notes\n"};
  Bytes = encodeVerdict(V);
  VerdictMsg V2;
  ASSERT_TRUE(decodeVerdict(reinterpret_cast<const uint8_t *>(Bytes.data()),
                            Bytes.size(), V2, Err))
      << Err;
  EXPECT_EQ(V2.ExitCode, 3);
  EXPECT_EQ(V2.Report, "report\n");
  EXPECT_EQ(V2.Notes, "notes\n");
}

TEST(ServeWireTest, DecodersRejectHostileInput) {
  std::string Err;
  HelloMsg H;
  // Truncated at every prefix length: must fail, never crash or accept.
  std::string Bytes = encodeHello(HelloMsg{});
  for (size_t N = 0; N + 1 < Bytes.size(); ++N)
    EXPECT_FALSE(decodeHello(reinterpret_cast<const uint8_t *>(Bytes.data()),
                             N, H, Err))
        << "prefix " << N << " accepted";
  // Empty session name.
  HelloMsg Anon;
  Anon.Name = "";
  Bytes = encodeHello(Anon);
  EXPECT_FALSE(decodeHello(reinterpret_cast<const uint8_t *>(Bytes.data()),
                           Bytes.size(), H, Err));
  // Version skew is for the server to judge, not the codec; but garbage
  // trailing bytes are a framing error.
  Bytes = encodeHello(HelloMsg{}) + "x";
  EXPECT_FALSE(decodeHello(reinterpret_cast<const uint8_t *>(Bytes.data()),
                           Bytes.size(), H, Err));
  // A report format the registry doesn't know is rejected at the codec.
  HelloMsg BadFmt;
  BadFmt.Name = "sess";
  BadFmt.Format = 3;
  Bytes = encodeHello(BadFmt);
  EXPECT_FALSE(decodeHello(reinterpret_cast<const uint8_t *>(Bytes.data()),
                           Bytes.size(), H, Err));
  EXPECT_NE(Err.find("format"), std::string::npos) << Err;
}

TEST(ServeWireTest, EventsPayloadRoundTripsExactly) {
  Trace T = genTrace(7, 600);
  std::vector<Event> In = eventsOf(T);
  // Encode in uneven frame slices, decode into a fresh table.
  SymbolTable Decoded;
  std::vector<Event> Out;
  size_t VarsDone = 0, LocksDone = 0, LabelsDone = 0;
  std::string Err;
  size_t Pos = 0, Slice = 1;
  while (Pos < In.size()) {
    size_t End = std::min(Pos + Slice, In.size());
    Slice = Slice * 2 + 1;
    std::string Payload;
    encodeEventsPayload(Payload, In, Pos, End, T.symbols(), VarsDone,
                        LocksDone, LabelsDone);
    ASSERT_TRUE(decodeEventsPayload(
        reinterpret_cast<const uint8_t *>(Payload.data()), Payload.size(),
        Decoded, Out, Err))
        << Err;
    Pos = End;
  }
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Out[I].Kind, In[I].Kind) << "event " << I;
    EXPECT_EQ(Out[I].Thread, In[I].Thread) << "event " << I;
    EXPECT_EQ(Out[I].Target, In[I].Target) << "event " << I;
  }
  ASSERT_EQ(Decoded.Vars.size(), VarsDone);
  for (uint32_t I = 0; I < Decoded.Vars.size(); ++I)
    EXPECT_EQ(Decoded.Vars.name(I), T.symbols().Vars.name(I));
  for (uint32_t I = 0; I < Decoded.Locks.size(); ++I)
    EXPECT_EQ(Decoded.Locks.name(I), T.symbols().Locks.name(I));
}

TEST(ServeWireTest, EventsDecodeRejectsNonContiguousSymbols) {
  // A symbol block whose base skips ahead of the table must be refused —
  // it would leave unresolvable ids behind.
  std::string Payload;
  binfmt::appendVarint(Payload, 5); // vars base: table is empty, so bogus
  binfmt::appendVarint(Payload, 1);
  binfmt::appendVarint(Payload, 1);
  Payload += "x";
  binfmt::appendVarint(Payload, 0); // locks
  binfmt::appendVarint(Payload, 0);
  binfmt::appendVarint(Payload, 0); // labels
  binfmt::appendVarint(Payload, 0);
  binfmt::appendVarint(Payload, 0); // events
  SymbolTable Syms;
  std::vector<Event> Out;
  std::string Err;
  EXPECT_FALSE(decodeEventsPayload(
      reinterpret_cast<const uint8_t *>(Payload.data()), Payload.size(), Syms,
      Out, Err));
  EXPECT_NE(Err.find("symbol"), std::string::npos) << Err;
}

TEST(ServeWireTest, EventsDecodeRejectsRepeatedSymbolName) {
  // A lock block defining m twice: the second m is not a new name, so the
  // payload's ids could not be the session table's ids.
  std::string Payload;
  binfmt::appendVarint(Payload, 0); // vars
  binfmt::appendVarint(Payload, 0);
  binfmt::appendVarint(Payload, 0); // locks
  binfmt::appendVarint(Payload, 2);
  for (int I = 0; I < 2; ++I) {
    binfmt::appendVarint(Payload, 1);
    Payload += "m";
  }
  binfmt::appendVarint(Payload, 0); // labels
  binfmt::appendVarint(Payload, 0);
  binfmt::appendVarint(Payload, 0); // events
  SymbolTable Syms;
  std::vector<Event> Out;
  std::string Err;
  EXPECT_FALSE(decodeEventsPayload(
      reinterpret_cast<const uint8_t *>(Payload.data()), Payload.size(), Syms,
      Out, Err));
  EXPECT_EQ(Err, "duplicate lock name in symbol block");
  EXPECT_TRUE(Out.empty());
}

//===----------------------------------------------------------------------===//
// Frame splitter
//===----------------------------------------------------------------------===//

TEST(ServeSplitterTest, ReassemblesByteAtATime) {
  std::string Stream = frameBytes(HelloKind, "abc") +
                       frameBytes(EventsKind, std::string(1000, 'z')) +
                       frameBytes(FinishKind, "");
  FrameSplitter Sp;
  std::vector<std::pair<uint8_t, std::string>> Got;
  for (char C : Stream) {
    Sp.append(&C, 1);
    uint8_t K;
    std::string P;
    while (Sp.next(K, P))
      Got.emplace_back(K, P);
  }
  ASSERT_FALSE(Sp.failed()) << Sp.error();
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0].first, HelloKind);
  EXPECT_EQ(Got[0].second, "abc");
  EXPECT_EQ(Got[1].second.size(), 1000u);
  EXPECT_EQ(Got[2].first, FinishKind);
  EXPECT_FALSE(Sp.midFrame());
}

TEST(ServeSplitterTest, DetectsCorruptChecksum) {
  std::string Frame = frameBytes(EventsKind, "payload-bytes");
  Frame[Frame.size() - 3] ^= 0x40; // flip a payload bit
  FrameSplitter Sp;
  Sp.append(Frame.data(), Frame.size());
  uint8_t K;
  std::string P;
  EXPECT_FALSE(Sp.next(K, P));
  EXPECT_TRUE(Sp.failed());
  EXPECT_NE(Sp.error().find("checksum"), std::string::npos) << Sp.error();
}

TEST(ServeSplitterTest, RejectsLengthBomb) {
  std::string Header;
  Header.push_back(static_cast<char>(EventsKind));
  binfmt::appendU32le(Header, 0xfffffff0u); // 4 GB claimed payload
  binfmt::appendU64le(Header, 0);
  FrameSplitter Sp;
  Sp.append(Header.data(), Header.size());
  uint8_t K;
  std::string P;
  EXPECT_FALSE(Sp.next(K, P));
  EXPECT_TRUE(Sp.failed()) << "oversized frame must fail fast, not buffer";
}

//===----------------------------------------------------------------------===//
// Session: eviction transparency, governor mapping
//===----------------------------------------------------------------------===//

TEST(ServeSessionTest, EvictRehydrateByteIdentical) {
  for (uint64_t Seed : {1u, 2u, 9u, 23u}) {
    Trace T = genTrace(Seed, 500);
    std::string WantReport, GotReport;
    int WantExit = 0;
    refVerdict(T, WantReport, WantExit);

    Session S;
    SessionConfig C;
    C.Name = "sess";
    std::string Err;
    ASSERT_TRUE(S.configure(C, Err)) << Err;
    S.symbols().Vars.syncFrom(T.symbols().Vars);
    S.symbols().Locks.syncFrom(T.symbols().Locks);
    S.symbols().Labels.syncFrom(T.symbols().Labels);
    size_t N = 0;
    for (const Event &E : T) {
      ASSERT_TRUE(S.feed(E, Err)) << Err;
      if (++N % 97 == 0) { // evict at an arbitrary, repeated cadence
        std::string Blob;
        ASSERT_TRUE(S.evict(Blob, Err)) << Err;
        EXPECT_TRUE(S.evicted());
        EXPECT_EQ(S.eventsSeen(), N) << "counters must survive eviction";
        ASSERT_TRUE(S.rehydrate(Blob, Err)) << Err;
      }
    }
    ASSERT_TRUE(S.finish(Err)) << Err;
    EXPECT_EQ(S.report(), WantReport) << "seed " << Seed;
    EXPECT_EQ(S.exitCode(), WantExit) << "seed " << Seed;
  }
}

TEST(ServeSessionTest, EvictAfterReferenceStopKeepsReportAndNotes) {
  // A 3-node cap on --backend=all stops the reference checker early; a
  // session evicted and rehydrated after that must still report the
  // reference's warnings up to the stop and note the stop exactly once.
  for (uint64_t Seed : {3u, 5u, 11u}) {
    Trace T = genTrace(Seed, 500);
    auto run = [&](bool Evict, std::string &Report, std::string &Notes) {
      Session S;
      SessionConfig C;
      C.Name = "sess";
      C.Limits.MaxLiveNodes = 3;
      std::string Err;
      ASSERT_TRUE(S.configure(C, Err)) << Err;
      S.symbols().Vars.syncFrom(T.symbols().Vars);
      S.symbols().Locks.syncFrom(T.symbols().Locks);
      S.symbols().Labels.syncFrom(T.symbols().Labels);
      size_t N = 0;
      for (const Event &E : T) {
        ASSERT_TRUE(S.feed(E, Err)) << Err;
        if (Evict && ++N % 97 == 0) {
          std::string Blob;
          ASSERT_TRUE(S.evict(Blob, Err)) << Err;
          ASSERT_TRUE(S.rehydrate(Blob, Err)) << Err;
        }
      }
      ASSERT_TRUE(S.finish(Err)) << Err;
      Report = S.report();
      Notes = S.notes();
    };
    std::string Straight, StraightNotes, Evicted, EvictedNotes;
    run(false, Straight, StraightNotes);
    run(true, Evicted, EvictedNotes);
    const std::string Stop = "stopped the reference checker";
    ASSERT_NE(StraightNotes.find(Stop), std::string::npos) << StraightNotes;
    EXPECT_EQ(StraightNotes.find(Stop), StraightNotes.rfind(Stop));
    EXPECT_EQ(Evicted, Straight) << "seed " << Seed;
    EXPECT_EQ(EvictedNotes, StraightNotes) << "seed " << Seed;
  }
}

TEST(ServeSessionTest, SparseTidsCostWhatDenseTidsCost) {
  // A tenant may send any tid below the 2^20 cap. Every checker and the
  // sanitizer hold per-thread state by first use, the vector-clock
  // checkers index their clocks by slot and R(x,*) holds only the readers
  // since the last write, so 200 reads by the largest legal tid cost what
  // 200 reads by T1 cost: in memory, in snapshot bytes, and in the report,
  // whose header alone names the thread count.
  auto run = [](const char *Sel, Tid Reader, std::string &Report, int &Exit,
                size_t &Blob) {
    Session S;
    SessionConfig C;
    C.Name = "sess";
    C.BackendSel = Sel;
    std::string Err;
    ASSERT_TRUE(S.configure(C, Err)) << Err;
    for (int I = 0; I < 200; ++I) {
      VarId X = S.symbols().Vars.intern("x" + std::to_string(I));
      ASSERT_TRUE(S.feed(Event::read(Reader, X), Err)) << Err;
      if (I == 100) { // evict and rehydrate mid-stream
        std::string Snap;
        ASSERT_TRUE(S.evict(Snap, Err)) << Err;
        Blob = Snap.size();
        ASSERT_TRUE(S.rehydrate(Snap, Err)) << Err;
      }
    }
    ASSERT_TRUE(S.finish(Err)) << Err;
    Report = S.report().substr(S.report().find('\n') + 1); // drop header
    Exit = S.exitCode();
  };
  for (const char *Sel : {"velodrome", "all"}) {
    SCOPED_TRACE(Sel);
    struct rusage Before {};
    ::getrusage(RUSAGE_SELF, &Before);
    std::string SparseReport, DenseReport;
    int SparseExit = -1, DenseExit = -1;
    size_t SparseBlob = 0, DenseBlob = 0;
    run(Sel, (1u << 20) - 1, SparseReport, SparseExit, SparseBlob);
    struct rusage After {};
    ::getrusage(RUSAGE_SELF, &After);
    run(Sel, 1, DenseReport, DenseExit, DenseBlob);
    EXPECT_EQ(SparseExit, 0);
    EXPECT_EQ(SparseExit, DenseExit);
    EXPECT_EQ(SparseReport, DenseReport);
    EXPECT_EQ(SparseBlob, DenseBlob) << "snapshot bytes independent of tids";
    EXPECT_LE(After.ru_maxrss - Before.ru_maxrss, 64 * 1024)
        << "peak RSS growth in KiB";
  }
}

/// A session asked for --format=json in its Hello renders the verdict
/// report as the structured document — and eviction/rehydration preserves
/// both the choice and the bytes (the format rides in the snapshot).
TEST(ServeSessionTest, JsonFormatSurvivesEvictRehydrate) {
  Trace T = genTrace(9, 500);

  auto runWith = [&](bool Evict, std::string &Report, int &Exit) {
    Session S;
    SessionConfig C;
    C.Name = "sess";
    C.Format = ReportFormat::Json;
    std::string Err;
    ASSERT_TRUE(S.configure(C, Err)) << Err;
    S.symbols().Vars.syncFrom(T.symbols().Vars);
    S.symbols().Locks.syncFrom(T.symbols().Locks);
    S.symbols().Labels.syncFrom(T.symbols().Labels);
    size_t N = 0;
    for (const Event &E : T) {
      ASSERT_TRUE(S.feed(E, Err)) << Err;
      if (Evict && ++N % 97 == 0) {
        std::string Blob;
        ASSERT_TRUE(S.evict(Blob, Err)) << Err;
        ASSERT_TRUE(S.rehydrate(Blob, Err)) << Err;
      }
    }
    ASSERT_TRUE(S.finish(Err)) << Err;
    Report = S.report();
    Exit = S.exitCode();
  };

  std::string Straight, Evicted;
  int StraightExit = 0, EvictedExit = 0;
  runWith(false, Straight, StraightExit);
  runWith(true, Evicted, EvictedExit);

  EXPECT_NE(Straight.find("\"schema\": \"velodrome-report\""),
            std::string::npos);
  EXPECT_NE(Straight.find("\"tool\": \"velodrome-serve\""),
            std::string::npos);
  EXPECT_NE(Straight.find("\"exitCode\": " + std::to_string(StraightExit)),
            std::string::npos);
  EXPECT_EQ(Evicted, Straight)
      << "rehydrated session must render the identical JSON document";
  EXPECT_EQ(EvictedExit, StraightExit);

  // The same trace under the default format renders the historical text
  // report with the same verdict/exit — the format changes bytes only.
  std::string TextReport;
  int TextExit = 0;
  refVerdict(T, TextReport, TextExit);
  EXPECT_EQ(TextExit, StraightExit);
  EXPECT_EQ(TextReport.find("\"schema\""), std::string::npos);
}

TEST(ServeSessionTest, GovernorExhaustionMapsToExit3) {
  // Threads on disjoint variables: serializable by construction, so no
  // Violation can lurk in the analyzed prefix and exhaustion must surface
  // as Unknown (exit 3), not as a Violation carried over from truncation.
  Trace T;
  for (int Round = 0; Round < 100; ++Round)
    for (uint32_t Tid = 0; Tid < 4; ++Tid) {
      T.push(Event::begin(Tid, Tid));
      T.push(Event::read(Tid, Tid));
      T.push(Event::write(Tid, Tid));
      T.push(Event::end(Tid));
    }
  for (uint32_t I = 0; I < 4; ++I) {
    T.symbols().Vars.intern("x" + std::to_string(I));
    T.symbols().Labels.intern("m" + std::to_string(I));
  }
  Session S;
  SessionConfig C;
  C.Name = "sess";
  C.Limits.MaxEvents = 40; // exhaust long before the stream ends
  std::string Err;
  ASSERT_TRUE(S.configure(C, Err)) << Err;
  S.symbols().Vars.syncFrom(T.symbols().Vars);
  S.symbols().Locks.syncFrom(T.symbols().Locks);
  S.symbols().Labels.syncFrom(T.symbols().Labels);
  for (const Event &E : T)
    ASSERT_TRUE(S.feed(E, Err)) << Err;
  ASSERT_TRUE(S.finish(Err)) << Err;
  // A 40-event prefix of a contended trace almost never proves a
  // violation; on these seeds it doesn't, so the verdict is Unknown.
  EXPECT_EQ(S.exitCode(), 3);
  EXPECT_NE(S.notes().find("governor"), std::string::npos) << S.notes();
}

TEST(ServeSessionTest, RejectsUnknownBackend) {
  Session S;
  SessionConfig C;
  C.BackendSel = "quantum";
  std::string Err;
  EXPECT_FALSE(S.configure(C, Err));
  EXPECT_NE(Err.find("quantum"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Server end-to-end (in-process daemon over a temp unix socket)
//===----------------------------------------------------------------------===//

struct TestDaemon {
  ServerOptions Opts;
  std::unique_ptr<Server> Srv;
  std::thread Runner;
  std::string Path;

  explicit TestDaemon(std::function<void(ServerOptions &)> Tune = nullptr) {
    static std::atomic<int> Counter{0};
    Path = "/tmp/velo-serve-test-" + std::to_string(::getpid()) + "-" +
           std::to_string(Counter.fetch_add(1)) + ".sock";
    Opts.SocketPath = Path;
    Opts.Workers = 2;
    Opts.Verbose = false;
    if (Tune)
      Tune(Opts);
    Path = Opts.SocketPath; // Tune may have picked its own socket
    Srv = std::make_unique<Server>(Opts);
    std::string Err;
    if (!Srv->start(Err)) {
      ADD_FAILURE() << "daemon start failed: " << Err;
      return;
    }
    Runner = std::thread([this] { Srv->run(); });
  }

  ~TestDaemon() {
    if (Srv)
      Srv->requestStop();
    if (Runner.joinable())
      Runner.join();
    ::unlink(Path.c_str());
  }
};

/// Stream a whole trace through one client session; expects a verdict.
void runSession(const std::string &Path, const std::string &Name,
                const Trace &T, RunResult &R, size_t EventsPerFrame = 64,
                ClientFaults Faults = ClientFaults(), bool Resume = false,
                uint64_t CheckpointEvery = 0) {
  Client Cl;
  Cl.Faults = Faults;
  std::string Err;
  ASSERT_TRUE(Cl.connectUnix(Path, Err)) << Err;
  HelloMsg H;
  H.Name = Name;
  H.Resume = Resume;
  HelloOkMsg Ok;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  ASSERT_TRUE(Cl.run(T.symbols(), eventsOf(T), Ok, EventsPerFrame,
                     CheckpointEvery, R, Err))
      << Err;
}

TEST(ServeServerTest, VerdictMatchesDirectSession) {
  Trace T = genTrace(11, 700);
  std::string WantReport, WantNotes;
  int WantExit = 0;
  refVerdict(T, WantReport, WantExit, &WantNotes, "t11");

  TestDaemon D;
  RunResult R;
  runSession(D.Path, "t11", T, R, /*EventsPerFrame=*/37);
  ASSERT_TRUE(R.GotVerdict) << (R.GotNak ? R.Nak.Reason : "no reply");
  EXPECT_EQ(R.Verdict.Report, WantReport);
  EXPECT_EQ(R.Verdict.ExitCode, WantExit);
  EXPECT_EQ(R.Verdict.Notes, WantNotes);
}

TEST(ServeServerTest, ClientStartedBeforeDaemonStillConnects) {
  Trace T = genTrace(41, 300);
  std::string WantReport;
  int WantExit = 0;
  refVerdict(T, WantReport, WantExit, nullptr, "early");

  std::string Path =
      "/tmp/velo-serve-early-" + std::to_string(::getpid()) + ".sock";

  // Without a retry budget the connect must fail immediately — nothing is
  // listening yet.
  {
    Client Cl;
    std::string Err;
    EXPECT_FALSE(Cl.connectUnix(Path, Err));
  }

  // Start the daemon only after the client is already inside its connect
  // retry loop; the backoff must bridge the gap.
  std::unique_ptr<TestDaemon> D;
  std::thread Starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    D = std::make_unique<TestDaemon>(
        [&](ServerOptions &O) { O.SocketPath = Path; });
  });

  Client Cl;
  Cl.ConnectTimeoutMillis = 10000;
  std::string Err;
  bool Connected = Cl.connectUnix(Path, Err);
  Starter.join();
  ASSERT_TRUE(Connected) << Err;

  HelloMsg H;
  H.Name = "early";
  HelloOkMsg Ok;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  RunResult R;
  ASSERT_TRUE(Cl.run(T.symbols(), eventsOf(T), Ok, 64, 0, R, Err)) << Err;
  ASSERT_TRUE(R.GotVerdict) << (R.GotNak ? R.Nak.Reason : "no reply");
  EXPECT_EQ(R.Verdict.Report, WantReport);
  EXPECT_EQ(R.Verdict.ExitCode, WantExit);
}

TEST(ServeServerTest, ConcurrentSessionsAllByteIdentical) {
  constexpr int NumSessions = 8;
  std::vector<Trace> Traces;
  std::vector<std::string> Want(NumSessions);
  std::vector<int> WantExit(NumSessions);
  for (int I = 0; I < NumSessions; ++I) {
    Traces.push_back(genTrace(100 + I, 400));
    refVerdict(Traces.back(), Want[I], WantExit[I], nullptr,
               "conc-" + std::to_string(I));
  }
  TestDaemon D([](ServerOptions &O) { O.Workers = 4; });
  std::vector<RunResult> Results(NumSessions);
  std::vector<std::thread> Clients;
  for (int I = 0; I < NumSessions; ++I)
    Clients.emplace_back([&, I] {
      runSession(D.Path, "conc-" + std::to_string(I), Traces[I], Results[I],
                 16 + I * 7);
    });
  for (auto &Th : Clients)
    Th.join();
  for (int I = 0; I < NumSessions; ++I) {
    ASSERT_TRUE(Results[I].GotVerdict)
        << "session " << I << ": "
        << (Results[I].GotNak ? Results[I].Nak.Reason : "no reply");
    EXPECT_EQ(Results[I].Verdict.Report, Want[I]) << "session " << I;
    EXPECT_EQ(Results[I].Verdict.ExitCode, WantExit[I]) << "session " << I;
  }
  EXPECT_EQ(D.Srv->sessionsServed(), static_cast<uint64_t>(NumSessions));
}

TEST(ServeServerTest, TornFrameDetachesButSessionResumes) {
  Trace T = genTrace(21, 500);
  std::string WantReport;
  int WantExit = 0;
  refVerdict(T, WantReport, WantExit, nullptr, "torn");

  TestDaemon D;
  ClientFaults Faults;
  Faults.TornAfterFrames = 4; // HELLO + 3 events frames, then tear
  RunResult R1;
  runSession(D.Path, "torn", T, R1, /*EventsPerFrame=*/50, Faults);
  EXPECT_TRUE(R1.FaultTripped);
  EXPECT_FALSE(R1.GotVerdict);

  // Give the daemon a beat to notice the disconnect, then resume. The
  // server replays its position in HELLO-OK; the client continues from
  // there and the final verdict must not betray the interruption.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RunResult R2;
  runSession(D.Path, "torn", T, R2, 50, ClientFaults(), /*Resume=*/true);
  ASSERT_TRUE(R2.GotVerdict) << (R2.GotNak ? R2.Nak.Reason : "no reply");
  EXPECT_EQ(R2.Verdict.Report, WantReport);
  EXPECT_EQ(R2.Verdict.ExitCode, WantExit);
}

TEST(ServeServerTest, IdleEvictionInvisibleInVerdict) {
  Trace T = genTrace(31, 400);
  std::string WantReport;
  int WantExit = 0;
  refVerdict(T, WantReport, WantExit, nullptr, "idle");

  TestDaemon D([](ServerOptions &O) { O.IdleEvictMillis = 40; });
  std::vector<Event> Events = eventsOf(T);
  size_t Half = Events.size() / 2;
  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connectUnix(D.Path, Err)) << Err;
  HelloMsg H;
  H.Name = "idle";
  HelloOkMsg Ok;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  int Fd = Cl.fd();

  // First half as one raw frame, then go idle past the eviction threshold.
  size_t VarsDone = 0, LocksDone = 0, LabelsDone = 0;
  std::string Payload;
  encodeEventsPayload(Payload, Events, 0, Half, T.symbols(), VarsDone,
                      LocksDone, LabelsDone);
  ASSERT_TRUE(writeWireFrame(Fd, EventsKind, Payload, Err)) << Err;
  uint8_t K = 0;
  std::string P;
  ASSERT_EQ(readWireFrame(Fd, K, P, Err), 1) << Err;
  ASSERT_EQ(K, AckKind);

  // Housekeeping runs every poll cycle (~50 ms); 400 ms of idleness is
  // comfortably past the 40 ms threshold.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_GE(D.Srv->evictions(), 1u) << "session should have been evicted";

  // Rest of the stream: the first frame forces a rehydrate, and the
  // verdict must not betray the round-trip.
  Payload.clear();
  encodeEventsPayload(Payload, Events, Half, Events.size(), T.symbols(),
                      VarsDone, LocksDone, LabelsDone);
  ASSERT_TRUE(writeWireFrame(Fd, EventsKind, Payload, Err)) << Err;
  ASSERT_EQ(readWireFrame(Fd, K, P, Err), 1) << Err;
  ASSERT_EQ(K, AckKind);
  ASSERT_TRUE(writeWireFrame(Fd, FinishKind, std::string_view(), Err)) << Err;
  VerdictMsg V;
  for (;;) {
    ASSERT_EQ(readWireFrame(Fd, K, P, Err), 1) << Err;
    if (K == AckKind)
      continue;
    ASSERT_EQ(K, VerdictKind);
    ASSERT_TRUE(decodeVerdict(reinterpret_cast<const uint8_t *>(P.data()),
                              P.size(), V, Err))
        << Err;
    break;
  }
  EXPECT_GE(D.Srv->rehydrations(), 1u);
  EXPECT_EQ(V.Report, WantReport);
  EXPECT_EQ(V.ExitCode, WantExit);
}

TEST(ServeServerTest, EnomemFaultIsolatesOneSession) {
  Trace T = genTrace(41, 400);
  std::string WantReport;
  int WantExit = 0;
  refVerdict(T, WantReport, WantExit, nullptr, "healthy");

  // Frame counter is daemon-global; run the doomed session first so the
  // fault lands deterministically in it.
  TestDaemon D([](ServerOptions &O) {
    O.Faults.EnomemAtFrame = 3; // third processed frame dies
  });
  RunResult Doomed;
  runSession(D.Path, "doomed", T, Doomed, /*EventsPerFrame=*/32);
  EXPECT_FALSE(Doomed.GotVerdict);
  ASSERT_TRUE(Doomed.GotNak);
  EXPECT_TRUE(Doomed.Nak.Fatal);
  EXPECT_NE(Doomed.Nak.Reason.find("memory"), std::string::npos)
      << Doomed.Nak.Reason;

  // The daemon survived; an unaffected session gets the exact verdict.
  RunResult Healthy;
  runSession(D.Path, "healthy", T, Healthy, 512);
  ASSERT_TRUE(Healthy.GotVerdict)
      << (Healthy.GotNak ? Healthy.Nak.Reason : "no reply");
  EXPECT_EQ(Healthy.Verdict.Report, WantReport);
  EXPECT_EQ(Healthy.Verdict.ExitCode, WantExit);
}

TEST(ServeServerTest, SlowLorisGetsFatalNak) {
  TestDaemon D([](ServerOptions &O) { O.FrameTimeoutMillis = 80; });
  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connectUnix(D.Path, Err)) << Err;
  HelloMsg H;
  H.Name = "loris";
  HelloOkMsg Ok;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  int Fd = Cl.fd();

  // Half a frame header, then silence: the assembly deadline must fire.
  std::string Frame = frameBytes(EventsKind, std::string(100, 'x'));
  ASSERT_EQ(::write(Fd, Frame.data(), 8), 8);
  uint8_t K = 0;
  std::string P;
  ASSERT_EQ(readWireFrame(Fd, K, P, Err), 1) << Err;
  ASSERT_EQ(K, NakKind);
  NakMsg N;
  ASSERT_TRUE(decodeNak(reinterpret_cast<const uint8_t *>(P.data()), P.size(),
                        N, Err))
      << Err;
  EXPECT_TRUE(N.Fatal);
  EXPECT_NE(N.Reason.find("timed out"), std::string::npos) << N.Reason;

  // The daemon sheds the loris and keeps serving honest clients.
  Trace T = genTrace(51, 200);
  std::string WantReport;
  int WantExit = 0;
  refVerdict(T, WantReport, WantExit, nullptr, "honest");
  RunResult R;
  runSession(D.Path, "honest", T, R, 64);
  ASSERT_TRUE(R.GotVerdict) << (R.GotNak ? R.Nak.Reason : "no reply");
  EXPECT_EQ(R.Verdict.Report, WantReport);
}

TEST(ServeServerTest, FlowControlOverrunGetsFatalNak) {
  Trace T = genTrace(61, 300);
  // Wedge the worker on its first frame so queued frames pile up behind
  // it, then blast frames with no regard for credit.
  TestDaemon D([](ServerOptions &O) {
    O.QueueFrames = 2;
    O.Faults.WedgeAtFrame = 1;
    O.Faults.WedgeMillis = 1500;
  });
  Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connectUnix(D.Path, Err)) << Err;
  HelloMsg H;
  H.Name = "flood";
  HelloOkMsg Ok;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  EXPECT_EQ(Ok.Credit, 2u);
  int Fd = Cl.fd();

  std::vector<Event> Events = eventsOf(T);
  size_t VarsDone = 0, LocksDone = 0, LabelsDone = 0;
  for (size_t I = 0; I < 12 && I < Events.size(); ++I) {
    std::string Payload;
    encodeEventsPayload(Payload, Events, I, I + 1, T.symbols(), VarsDone,
                        LocksDone, LabelsDone);
    if (!writeWireFrame(Fd, EventsKind, Payload, Err))
      break; // server may already have closed on us — that's the point
  }
  bool SawFatalNak = false;
  uint8_t K = 0;
  std::string P;
  while (readWireFrame(Fd, K, P, Err) == 1) {
    if (K != NakKind)
      continue;
    NakMsg N;
    ASSERT_TRUE(decodeNak(reinterpret_cast<const uint8_t *>(P.data()),
                          P.size(), N, Err))
        << Err;
    EXPECT_NE(N.Reason.find("flow-control"), std::string::npos) << N.Reason;
    SawFatalNak = N.Fatal;
    break;
  }
  EXPECT_TRUE(SawFatalNak) << "credit overrun must draw a fatal NAK";
}

std::string makeStateDir(const char *Tag) {
  static std::atomic<int> Counter{0};
  std::string Dir = "/tmp/velo-serve-test-" + std::string(Tag) + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(Counter.fetch_add(1));
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

size_t countStateFiles(const std::string &Dir) {
  size_t N = 0;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 8 && Name.rfind(".session") == Name.size() - 8)
        ++N;
    }
    ::closedir(D);
  }
  return N;
}

void removeStateDir(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

TEST(ServeServerTest, CollidingNamesGetDistinctStateFiles) {
  // 'a/b' and 'a_b' must never share a state file: a lossy flattening
  // would let one tenant's eviction overwrite — and its resume read —
  // the other tenant's snapshot.
  Trace TA = genTrace(71, 400), TB = genTrace(72, 400);
  std::string WantA, WantB;
  int ExitA = 0, ExitB = 0;
  refVerdict(TA, WantA, ExitA, nullptr, "a/b");
  refVerdict(TB, WantB, ExitB, nullptr, "a_b");

  std::string Dir = makeStateDir("collide");
  {
    TestDaemon D([&](ServerOptions &O) { O.StateDir = Dir; });
    ClientFaults Faults;
    Faults.TornAfterFrames = 3; // detach mid-stream -> evict to disk
    RunResult R1, R2;
    runSession(D.Path, "a/b", TA, R1, /*EventsPerFrame=*/50, Faults);
    runSession(D.Path, "a_b", TB, R2, 50, Faults);
    for (int I = 0; I < 200 && D.Srv->evictions() < 2; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(D.Srv->evictions(), 2u);
    EXPECT_EQ(countStateFiles(Dir), 2u)
        << "colliding session names flattened onto one state file";

    // Each resume must rehydrate its *own* snapshot and land its own
    // verdict, byte-identical to the uninterrupted reference.
    RunResult R3, R4;
    runSession(D.Path, "a/b", TA, R3, 50, ClientFaults(), /*Resume=*/true);
    runSession(D.Path, "a_b", TB, R4, 50, ClientFaults(), /*Resume=*/true);
    ASSERT_TRUE(R3.GotVerdict) << (R3.GotNak ? R3.Nak.Reason : "no reply");
    ASSERT_TRUE(R4.GotVerdict) << (R4.GotNak ? R4.Nak.Reason : "no reply");
    EXPECT_EQ(R3.Verdict.Report, WantA);
    EXPECT_EQ(R3.Verdict.ExitCode, ExitA);
    EXPECT_EQ(R4.Verdict.Report, WantB);
    EXPECT_EQ(R4.Verdict.ExitCode, ExitB);
  }
  removeStateDir(Dir);
}

TEST(ServeServerTest, ResumeFromDiskRespectsSessionCap) {
  // The Ring is sized to MaxSessions + Workers on the promise that the
  // session table never exceeds the cap; a resume-from-disk that slipped
  // past the check would break that and unbound session memory.
  Trace TA = genTrace(81, 300), TB = genTrace(82, 300);
  std::string WantA;
  int ExitA = 0;
  refVerdict(TA, WantA, ExitA, nullptr, "one");

  std::string Dir = makeStateDir("cap");
  {
    TestDaemon D([&](ServerOptions &O) { O.StateDir = Dir; });
    ClientFaults Faults;
    Faults.TornAfterFrames = 3;
    RunResult R1, R2;
    runSession(D.Path, "one", TA, R1, 50, Faults);
    runSession(D.Path, "two", TB, R2, 50, Faults);
    for (int I = 0; I < 200 && D.Srv->evictions() < 2; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(D.Srv->evictions(), 2u);
  } // graceful stop persists both sessions under Dir

  TestDaemon D2([&](ServerOptions &O) {
    O.StateDir = Dir;
    O.MaxSessions = 1;
  });
  Client C1;
  std::string Err;
  ASSERT_TRUE(C1.connectUnix(D2.Path, Err)) << Err;
  HelloMsg H1;
  H1.Name = "one";
  H1.Resume = true;
  HelloOkMsg Ok1;
  ASSERT_TRUE(C1.hello(H1, Ok1, Err)) << Err; // fills the only slot

  Client C2;
  ASSERT_TRUE(C2.connectUnix(D2.Path, Err)) << Err;
  HelloMsg H2;
  H2.Name = "two";
  H2.Resume = true;
  HelloOkMsg Ok2;
  NakMsg Nak;
  ASSERT_FALSE(C2.hello(H2, Ok2, Err, &Nak))
      << "resume-from-disk must respect the session cap";
  EXPECT_NE(Err.find("session limit"), std::string::npos) << Err;

  // The admitted session still completes cleanly.
  RunResult R;
  ASSERT_TRUE(C1.run(TA.symbols(), eventsOf(TA), Ok1, 50, 0, R, Err)) << Err;
  ASSERT_TRUE(R.GotVerdict) << (R.GotNak ? R.Nak.Reason : "no reply");
  EXPECT_EQ(R.Verdict.Report, WantA);
  EXPECT_EQ(R.Verdict.ExitCode, ExitA);
  removeStateDir(Dir);
}

/// Write one frame and read the server's next frame.
uint8_t exchange(int Fd, uint8_t Kind, const std::string &Payload,
                 std::string &Reply) {
  std::string Err;
  EXPECT_TRUE(writeWireFrame(Fd, Kind, Payload, Err)) << Err;
  uint8_t K = 0;
  EXPECT_EQ(readWireFrame(Fd, K, Reply, Err), 1) << Err;
  return K;
}

uint64_t durableOf(const std::string &AckPayload) {
  AckMsg A;
  std::string Err;
  EXPECT_TRUE(decodeAck(reinterpret_cast<const uint8_t *>(AckPayload.data()),
                        AckPayload.size(), A, Err))
      << Err;
  return A.Durable;
}

/// The ACK a CHECKPOINT draws after the whole of a 300-event stream.
uint64_t durableAfterCheckpoint(const std::string &StateDir) {
  TestDaemon D([&](ServerOptions &O) { O.StateDir = StateDir; });
  Trace T = genTrace(91, 300);
  std::vector<Event> Events = eventsOf(T);
  Client Cl;
  std::string Err;
  EXPECT_TRUE(Cl.connectUnix(D.Path, Err)) << Err;
  HelloMsg H;
  H.Name = "durable";
  HelloOkMsg Ok;
  EXPECT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  size_t Vars = 0, Locks = 0, Labels = 0;
  std::string Payload, Reply;
  encodeEventsPayload(Payload, Events, 0, Events.size(), T.symbols(), Vars,
                      Locks, Labels);
  EXPECT_EQ(exchange(Cl.fd(), EventsKind, Payload, Reply), AckKind);
  EXPECT_EQ(durableOf(Reply), 0u) << "nothing was stored yet";
  EXPECT_EQ(exchange(Cl.fd(), CheckpointKind, "", Reply), AckKind);
  return durableOf(Reply);
}

TEST(ServeServerTest, CheckpointWithoutStateDirIsNotDurable) {
  // Nothing survives a crash without a state directory, so the ACK must
  // not claim any event is durable.
  EXPECT_EQ(durableAfterCheckpoint(""), 0u);
}

TEST(ServeServerTest, CheckpointWithStateDirCountsTheStateFile) {
  std::string Dir = makeStateDir("durable");
  EXPECT_EQ(durableAfterCheckpoint(Dir), genTrace(91, 300).size());
  EXPECT_EQ(countStateFiles(Dir), 1u);
  removeStateDir(Dir);
}

/// How a checkpointed session ends in expectEndIsFinal.
enum class Ending { StrictRejection, Enomem, Finish };

/// With a state dir, a session streams two events, CHECKPOINTs them to its
/// state file, and then ends. Whatever ends it, the end is final: the
/// state file goes with the session, and a resume HELLO is refused rather
/// than rehydrating the checkpoint, whose later VERDICT would describe a
/// stream the client never sent.
void expectEndIsFinal(Ending How) {
  std::string Dir = makeStateDir("ended");
  {
    TestDaemon D([&](ServerOptions &O) {
      O.StateDir = Dir;
      if (How == Ending::Enomem)
        O.Faults.EnomemAtFrame = 3; // EVENTS, CHECKPOINT, then this frame
    });
    // Strict mode rejects releasing a lock T1 does not hold.
    Trace T;
    std::string Err;
    ASSERT_TRUE(parseTrace(How == Ending::StrictRejection
                               ? "T1 wr x\nT1 wr y\nT1 rel m\n"
                               : "T1 wr x\nT1 wr y\nT1 wr z\n",
                           T, Err))
        << Err;
    std::vector<Event> Events = eventsOf(T);
    Client Cl;
    ASSERT_TRUE(Cl.connectUnix(D.Path, Err)) << Err;
    HelloMsg H;
    H.Name = "ended";
    HelloOkMsg Ok;
    ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
    size_t Vars = 0, Locks = 0, Labels = 0;
    std::string Payload, Reply;
    encodeEventsPayload(Payload, Events, 0, 2, T.symbols(), Vars, Locks,
                        Labels);
    ASSERT_EQ(exchange(Cl.fd(), EventsKind, Payload, Reply), AckKind);
    ASSERT_EQ(exchange(Cl.fd(), CheckpointKind, "", Reply), AckKind);
    EXPECT_EQ(durableOf(Reply), 2u);
    ASSERT_EQ(countStateFiles(Dir), 1u);

    if (How == Ending::Finish) {
      EXPECT_EQ(exchange(Cl.fd(), FinishKind, "", Reply), VerdictKind);
    } else {
      Payload.clear();
      encodeEventsPayload(Payload, Events, 2, 3, T.symbols(), Vars, Locks,
                          Labels);
      ASSERT_EQ(exchange(Cl.fd(), EventsKind, Payload, Reply), NakKind);
      NakMsg N;
      ASSERT_TRUE(decodeNak(reinterpret_cast<const uint8_t *>(Reply.data()),
                            Reply.size(), N, Err))
          << Err;
      EXPECT_TRUE(N.Fatal);
      EXPECT_NE(N.Reason.find(How == Ending::Enomem ? "out of memory"
                                                    : "not well formed"),
                std::string::npos)
          << N.Reason;
    }
    EXPECT_EQ(countStateFiles(Dir), 0u) << "the ended session kept its file";

    Client Again;
    ASSERT_TRUE(Again.connectUnix(D.Path, Err)) << Err;
    H.Resume = true;
    EXPECT_FALSE(Again.hello(H, Ok, Err))
        << "an ended session resumed at " << Ok.Events << " events";
  }
  removeStateDir(Dir);
}

TEST(ServeServerTest, StrictRejectionEndsACheckpointedSessionForGood) {
  expectEndIsFinal(Ending::StrictRejection);
}

TEST(ServeServerTest, EnomemEndsACheckpointedSessionForGood) {
  expectEndIsFinal(Ending::Enomem);
}

TEST(ServeServerTest, FinishEndsACheckpointedSessionForGood) {
  expectEndIsFinal(Ending::Finish);
}

TEST(ServeServerTest, ConnectionFatalNakDetachesToTheStateDir) {
  // A connection-fatal NAK detaches the session as a disconnect does:
  // under a state dir it is evicted to its file, so it would survive a
  // daemon crash, and it resumes to the uninterrupted verdict.
  Trace T = genTrace(35, 400);
  std::string WantReport;
  int WantExit = 0;
  refVerdict(T, WantReport, WantExit, nullptr, "loris");
  std::vector<Event> Events = eventsOf(T);
  std::string Dir = makeStateDir("loris");
  {
    TestDaemon D([&](ServerOptions &O) {
      O.StateDir = Dir;
      O.FrameTimeoutMillis = 80;
    });
    Client Cl;
    std::string Err;
    ASSERT_TRUE(Cl.connectUnix(D.Path, Err)) << Err;
    HelloMsg H;
    H.Name = "loris";
    HelloOkMsg Ok;
    ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
    size_t Vars = 0, Locks = 0, Labels = 0;
    std::string Payload, Reply;
    encodeEventsPayload(Payload, Events, 0, Events.size() / 2, T.symbols(),
                        Vars, Locks, Labels);
    ASSERT_EQ(exchange(Cl.fd(), EventsKind, Payload, Reply), AckKind);
    // Half a frame header, then silence: the assembly deadline NAKs.
    std::string Frame = frameBytes(EventsKind, std::string(100, 'x'));
    ASSERT_EQ(::write(Cl.fd(), Frame.data(), 8), 8);
    uint8_t K = 0;
    ASSERT_EQ(readWireFrame(Cl.fd(), K, Reply, Err), 1) << Err;
    ASSERT_EQ(K, NakKind);
    for (int I = 0; I < 200 && countStateFiles(Dir) == 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(countStateFiles(Dir), 1u)
        << "the detached session is not on disk";

    // Let the worker release the session it just evicted.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    RunResult R;
    runSession(D.Path, "loris", T, R, 64, ClientFaults(), /*Resume=*/true);
    ASSERT_TRUE(R.GotVerdict) << (R.GotNak ? R.Nak.Reason : "no reply");
    EXPECT_EQ(R.Verdict.Report, WantReport);
    EXPECT_EQ(R.Verdict.ExitCode, WantExit);
  }
  removeStateDir(Dir);
}

TEST(ServeServerTest, FailedEvictionKeepsTheSessionInMemory) {
  // An idle eviction whose state file cannot be written must not leave
  // the session behind its older CHECKPOINT file: the next frame would
  // rehydrate that and lose every event since.
  Trace T = genTrace(33, 400);
  std::string WantReport;
  int WantExit = 0;
  refVerdict(T, WantReport, WantExit, nullptr, "stuck");
  std::vector<Event> Events = eventsOf(T);
  const size_t Third = Events.size() / 3;
  std::string Dir = makeStateDir("stuck");
  // The writer's temporary file: as a directory it cannot be opened.
  const std::string Tmp = Dir + "/stuck.session.tmp";
  {
    TestDaemon D([&](ServerOptions &O) {
      O.StateDir = Dir;
      O.IdleEvictMillis = 40;
    });
    Client Cl;
    std::string Err;
    ASSERT_TRUE(Cl.connectUnix(D.Path, Err)) << Err;
    HelloMsg H;
    H.Name = "stuck";
    HelloOkMsg Ok;
    ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
    size_t Vars = 0, Locks = 0, Labels = 0;
    auto Send = [&](size_t Begin, size_t End) {
      std::string Payload, Reply;
      encodeEventsPayload(Payload, Events, Begin, End, T.symbols(), Vars,
                          Locks, Labels);
      return exchange(Cl.fd(), EventsKind, Payload, Reply);
    };
    ASSERT_EQ(Send(0, Third), AckKind);
    std::string Reply;
    ASSERT_EQ(exchange(Cl.fd(), CheckpointKind, "", Reply), AckKind);
    ASSERT_EQ(Send(Third, 2 * Third), AckKind);
    ASSERT_EQ(::mkdir(Tmp.c_str(), 0755), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(D.Srv->evictions(), 0u);
    ASSERT_EQ(Send(2 * Third, Events.size()), AckKind);
    ASSERT_EQ(exchange(Cl.fd(), FinishKind, "", Reply), VerdictKind);
    VerdictMsg V;
    ASSERT_TRUE(decodeVerdict(reinterpret_cast<const uint8_t *>(Reply.data()),
                              Reply.size(), V, Err))
        << Err;
    EXPECT_EQ(V.Report, WantReport);
    EXPECT_EQ(V.ExitCode, WantExit);
  }
  ::rmdir(Tmp.c_str());
  removeStateDir(Dir);
}

} // namespace
} // namespace serve
} // namespace velo
