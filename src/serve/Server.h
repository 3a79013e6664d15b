//===- serve/Server.h - Multi-tenant analysis daemon ------------*- C++ -*-===//
//
// The long-lived core of velodrome-serve: one I/O thread multiplexing
// every connection through poll(), plus a bounded worker pool draining a
// BoundedRing of runnable sessions (src/parallel/Ring.h — the same
// backpressure primitive the parallel pipeline uses). The invariants the
// fault-injection matrix holds us to:
//
//  * Bounded buffering. Per-session frame queues are capped; a client that
//    overruns its advertised credit gets a fatal NAK and a disconnect.
//    Nothing in the server buffers proportionally to a client's appetite.
//
//  * Fault isolation. A parse error, governor exhaustion, simulated
//    ENOMEM, or backend wedge terminates (or degrades) exactly one
//    session; the accept loop and every other session keep running.
//
//  * Eviction transparency. Idle sessions serialize to snapshots (disk
//    when --state-dir is set, in-memory otherwise) and rehydrate on their
//    next frame; an evicted-then-rehydrated session's verdict is
//    byte-identical to a never-evicted one.
//
//  * A dead session stays dead. A session ends at its VERDICT or at a
//    session-fatal NAK, and both take one path (retireLocked): the
//    session leaves the table and its state file is deleted, so a later
//    resume is refused instead of bringing back a checkpoint whose
//    verdict would describe a stream nobody sent.
//
//  * Durable means on disk. CHECKPOINT and graceful shutdown write the
//    state file under --state-dir and store nothing without one, so an
//    ACK's durable count covers only events a state file holds: 0
//    without --state-dir.
//
//  * Caps that bind. A session's caps, from its HELLO or the daemon's
//    flags, go through the analysis plan, which refuses the ones its
//    selector cannot enforce, and the HELLO draws a NAK: velodrome and
//    all enforce every cap; basic and aero the event budget and the
//    deadline; atomizer, eraser, hb and deadlock only the defaults.
//
//  * Crash recovery. The kill-worker fault SIGKILLs the daemon process
//    mid-frame; under `velodrome-serve --supervise` it restarts with
//    exponential backoff and clients resume named sessions from the state
//    directory.
//
// Threading/ownership protocol: Mu guards the connection and session
// tables, per-session frame queues, and outbound byte buffers. A
// session's *pipeline* (Session object) is owned by whichever worker
// holds its InFlight flag; the I/O thread touches a pipeline only during
// HELLO (before the session is ever enqueued) and after the workers are
// joined. Workers never touch sockets — replies are appended to the
// connection's outbound buffer under Mu and the I/O thread is woken
// through a self-pipe.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SERVE_SERVER_H
#define VELO_SERVE_SERVER_H

#include "parallel/Ring.h"
#include "serve/FaultInject.h"
#include "serve/Session.h"
#include "serve/Wire.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace velo {
namespace serve {

struct ServerOptions {
  std::string SocketPath; ///< unix-domain listener ("" = none)
  int TcpPort = -1;       ///< loopback TCP listener (-1 = none, 0 = ephemeral)
  unsigned Workers = 2;
  size_t MaxSessions = 64;
  size_t QueueFrames = 8;          ///< per-session frame queue bound = credit
  uint64_t IdleEvictMillis = 0;    ///< 0 = no idle eviction
  uint64_t FrameTimeoutMillis = 10000; ///< slow-loris: partial-frame deadline
  std::string StateDir;            ///< session snapshots for resume ("" = off)
  /// Default per-session caps (a HELLO with explicit caps overrides).
  GovernorLimits SessionLimits = SessionConfig().Limits;
  FaultPlan Faults;
  bool Verbose = false; ///< log session lifecycle to stderr
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Bind listeners and spawn the worker pool. Returns false with Err set
  /// (nothing runs) on any setup failure.
  bool start(std::string &Err);

  /// The I/O loop; blocks until requestStop(). On return every session has
  /// been snapshotted to the state directory (when configured) and every
  /// connection closed.
  void run();

  /// Async-signal-safe stop request (SIGTERM/SIGINT handlers call this).
  void requestStop();

  /// Bound TCP port (after start(), when TcpPort was requested; 0 = none).
  int tcpPort() const { return BoundTcpPort; }

  // Observability for tests and the load generator.
  uint64_t sessionsServed() const { return StatSessions.load(); }
  uint64_t framesProcessed() const { return StatFrames.load(); }
  uint64_t naksSent() const { return StatNaks.load(); }
  uint64_t evictions() const { return StatEvictions.load(); }
  uint64_t rehydrations() const { return StatRehydrations.load(); }

private:
  using Clock = std::chrono::steady_clock;

  struct PendingFrame {
    uint8_t Kind = 0;
    std::string Payload;
  };

  /// One named tenant. Lifetime: created at HELLO, retired at its
  /// VERDICT or a session-fatal NAK (or kept, detached, after a
  /// mid-stream disconnect so the client can resume).
  struct SessionState {
    std::string Key;
    Session Sess;
    std::deque<PendingFrame> Queue; ///< guarded by Server::Mu
    bool InFlight = false;          ///< a worker owns the pipeline
    bool EvictRequested = false;
    bool Dead = false;   ///< retired; set with the erase from Sessions
    uint64_t ConnId = 0; ///< attached connection (0 = detached)
    Clock::time_point LastActivity;
    // Owned with the pipeline:
    std::string MemBlob;  ///< in-memory evicted state (no state dir)
    uint64_t Durable = 0; ///< events in the state file
  };

  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    FrameSplitter In;
    std::string Out; ///< guarded by Server::Mu
    std::shared_ptr<SessionState> S; ///< guarded by Server::Mu
    /// Atomic: workers set it under Mu but the I/O thread polls it in
    /// readReady's frame-drain loop without taking the lock.
    std::atomic<bool> WantClose{false};
    bool MidFrame = false;
    Clock::time_point FrameStart;
  };

  void ioLoop();
  void workerLoop();
  void acceptReady(int ListenFd);
  void readReady(Conn &C);
  void writeReady(Conn &C);
  /// Handle one complete frame on the I/O thread (HELLO inline; the rest
  /// queue to the session).
  void handleFrame(Conn &C, uint8_t Kind, std::string Payload);
  void handleHello(Conn &C, const std::string &Payload);
  void disconnect(Conn &C);
  void housekeeping();
  /// Locked Conns lookup. The returned pointer is stable for the I/O
  /// thread (the only thread that erases conns) until it disconnects
  /// that conn itself.
  Conn *findConn(int Fd);

  /// Drain one session's queue on a worker; returns when the queue is
  /// empty (or the session has ended) and InFlight has been released.
  void serveSession(std::shared_ptr<SessionState> S);
  bool processFrame(SessionState &S, const PendingFrame &F,
                    std::string &FatalErr);

  // A session's life, one transition each. The caller owns the pipeline.
  /// The only writer of S's snapshot. An eviction drops the pipeline and
  /// keeps the blob: in the state file under a state directory, in
  /// memory otherwise. CHECKPOINT and shutdown keep it only in a state
  /// file, so without a state directory they store nothing. A failed
  /// eviction leaves S in memory.
  bool storeSession(SessionState &S, bool Evict, std::string &Err);
  /// The only reader: rehydrate an evicted S from its in-memory blob or
  /// its state file.
  bool restoreSession(SessionState &S, std::string &Err);
  /// Mu held: end S with its final frame (VERDICT or a session-fatal
  /// NAK). S leaves the table and its state file is deleted, so nothing
  /// can resume it; the attached connection sends the frame and closes.
  void retireLocked(SessionState &S, uint8_t Kind,
                    const std::string &Payload);

  // Reply helpers; the Locked ones run under Mu.
  /// The connection with this id; null when detached (0) or gone.
  Conn *connLocked(uint64_t Id);
  void sendLocked(Conn &C, uint8_t Kind, std::string_view Payload);
  /// Connection-fatal NAK: C closes, its session stays resumable.
  void fatalNak(Conn &C, const std::string &Reason);
  void fatalNakLocked(Conn &C, const std::string &Reason);
  /// Detach C's session (if any) so a later HELLO can resume it.
  void detachLocked(Conn &C);
  /// Queue S for a worker to evict once its frames are processed.
  void requestEvictLocked(const std::shared_ptr<SessionState> &S);
  void wakeIo();

  std::string statePath(const std::string &Key) const;
  /// Simulated-EAGAIN gate: returns true when this I/O op should be
  /// skipped this iteration (the poll loop retries it next time around).
  bool simulatedEagain();

  ServerOptions Opts;
  int UnixFd = -1, TcpFd = -1, BoundTcpPort = 0;
  int WakePipe[2] = {-1, -1};
  std::atomic<bool> Stop{false};
  bool Started = false;

  mutable std::mutex Mu;
  std::map<int, std::unique_ptr<Conn>> Conns;         ///< by fd
  std::map<std::string, std::shared_ptr<SessionState>> Sessions; ///< by name
  uint64_t NextConnId = 1;

  BoundedRing<std::shared_ptr<SessionState>> Ring;
  std::vector<std::thread> Pool;

  std::atomic<uint64_t> StatSessions{0}, StatFrames{0}, StatNaks{0},
      StatEvictions{0}, StatRehydrations{0}, IoOps{0};
};

} // namespace serve
} // namespace velo

#endif // VELO_SERVE_SERVER_H
