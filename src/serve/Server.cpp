//===- serve/Server.cpp - Multi-tenant analysis daemon --------------------===//

#include "serve/Server.h"

#include "analysis/Snapshot.h"
#include "support/Syscalls.h"

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace velo {
namespace serve {

namespace {

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// Session names become state-file names. Percent-encode everything
/// outside [A-Za-z0-9._-] so distinct names can never collide on one
/// state file — a lossy flattening would let tenant 'a/b' overwrite or
/// resume tenant 'a_b's snapshot — and nothing can escape the directory.
std::string sanitizeKey(const std::string &Key) {
  static const char Hex[] = "0123456789ABCDEF";
  std::string Out;
  Out.reserve(Key.size());
  for (char C : Key) {
    unsigned char U = static_cast<unsigned char>(C);
    if (std::isalnum(U) || C == '.' || C == '-' || C == '_') {
      Out += C;
    } else {
      Out += '%';
      Out += Hex[U >> 4];
      Out += Hex[U & 0xF];
    }
  }
  return Out;
}

} // namespace

Server::Server(ServerOptions O)
    : Opts(std::move(O)),
      // Each session sits in the ring at most once (the InFlight flag), so
      // a capacity of sessions + workers guarantees push() never blocks —
      // which matters because the I/O thread pushes while holding Mu.
      Ring(std::max<size_t>(Opts.MaxSessions, 1) +
           std::max<unsigned>(Opts.Workers, 1) + 1) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
  if (Opts.QueueFrames == 0)
    Opts.QueueFrames = 1;
  if (Opts.MaxSessions == 0)
    Opts.MaxSessions = 1;
}

Server::~Server() {
  Ring.abortAll();
  for (std::thread &T : Pool)
    if (T.joinable())
      T.join();
  for (auto &KV : Conns)
    sys::closeQuiet(KV.second->Fd);
  sys::closeQuiet(UnixFd);
  sys::closeQuiet(TcpFd);
  sys::closeQuiet(WakePipe[0]);
  sys::closeQuiet(WakePipe[1]);
  if (UnixFd >= 0 && !Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}

bool Server::start(std::string &Err) {
  if (Opts.SocketPath.empty() && Opts.TcpPort < 0) {
    Err = "no listener configured (need a socket path or a TCP port)";
    return false;
  }
  if (::pipe(WakePipe) != 0) {
    Err = "cannot create wake pipe: " + std::string(std::strerror(errno));
    return false;
  }
  setNonBlocking(WakePipe[0]);
  setNonBlocking(WakePipe[1]);

  if (!Opts.SocketPath.empty()) {
    sockaddr_un Addr = {};
    if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
      Err = "socket path too long: " + Opts.SocketPath;
      return false;
    }
    UnixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (UnixFd < 0) {
      Err = "cannot create unix socket: " + std::string(std::strerror(errno));
      return false;
    }
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ::unlink(Opts.SocketPath.c_str()); // stale socket from a crashed daemon
    if (::bind(UnixFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::listen(UnixFd, 64) != 0 || !setNonBlocking(UnixFd)) {
      Err = "cannot listen on " + Opts.SocketPath + ": " +
            std::strerror(errno);
      return false;
    }
  }

  if (Opts.TcpPort >= 0) {
    TcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (TcpFd < 0) {
      Err = "cannot create TCP socket: " + std::string(std::strerror(errno));
      return false;
    }
    int One = 1;
    ::setsockopt(TcpFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr = {};
    Addr.sin_family = AF_INET;
    // Loopback only: the daemon has no authentication; remote exposure is
    // a deployment decision that belongs in front of it, not in it.
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.TcpPort));
    if (::bind(TcpFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::listen(TcpFd, 64) != 0 || !setNonBlocking(TcpFd)) {
      Err = "cannot listen on TCP port " + std::to_string(Opts.TcpPort) +
            ": " + std::strerror(errno);
      return false;
    }
    sockaddr_in Bound = {};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(TcpFd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0)
      BoundTcpPort = ntohs(Bound.sin_port);
  }

  for (unsigned I = 0; I < Opts.Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
  Started = true;
  return true;
}

void Server::requestStop() {
  Stop.store(true);
  // Async-signal-safe wake: write(2) on the nonblocking pipe.
  char B = 1;
  (void)!::write(WakePipe[1], &B, 1);
}

void Server::wakeIo() {
  char B = 1;
  (void)!::write(WakePipe[1], &B, 1);
}

bool Server::simulatedEagain() {
  if (Opts.Faults.EagainEveryIo == 0)
    return false;
  return (IoOps.fetch_add(1) + 1) % Opts.Faults.EagainEveryIo == 0;
}

std::string Server::statePath(const std::string &Key) const {
  return Opts.StateDir + "/" + sanitizeKey(Key) + ".session";
}

//===----------------------------------------------------------------------===//
// I/O thread
//===----------------------------------------------------------------------===//

void Server::run() {
  if (!Started)
    return;
  ioLoop();

  // Shutdown: stop the workers first (they own in-flight pipelines), then
  // persist every surviving session so clients can resume after restart.
  Ring.close();
  for (std::thread &T : Pool)
    if (T.joinable())
      T.join();
  Pool.clear();

  // Every session in the table is live: retiring erases a session in the
  // critical section that ends it.
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &KV : Sessions) {
    std::string Err;
    if (!storeSession(*KV.second, /*Evict=*/false, Err))
      std::fprintf(stderr, "serve: cannot persist session '%s': %s\n",
                   KV.first.c_str(), Err.c_str());
  }
  for (auto &KV : Conns)
    sys::closeQuiet(KV.second->Fd);
  Conns.clear();
  if (UnixFd >= 0) {
    sys::closeQuiet(UnixFd);
    UnixFd = -1;
    ::unlink(Opts.SocketPath.c_str());
  }
  if (TcpFd >= 0) {
    sys::closeQuiet(TcpFd);
    TcpFd = -1;
  }
}

void Server::ioLoop() {
  std::vector<pollfd> Fds;
  std::vector<int> ConnFds;
  while (!Stop.load()) {
    Fds.clear();
    ConnFds.clear();
    Fds.push_back({WakePipe[0], POLLIN, 0});
    if (UnixFd >= 0)
      Fds.push_back({UnixFd, POLLIN, 0});
    if (TcpFd >= 0)
      Fds.push_back({TcpFd, POLLIN, 0});
    size_t FirstConn = Fds.size();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      for (auto &KV : Conns) {
        Conn &C = *KV.second;
        short Events = 0;
        if (!C.WantClose)
          Events |= POLLIN;
        if (!C.Out.empty())
          Events |= POLLOUT;
        Fds.push_back({C.Fd, Events, 0});
        ConnFds.push_back(C.Fd);
      }
    }

    int N = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), 50);
    if (N < 0 && errno != EINTR)
      break; // poll itself failing is unrecoverable
    if (Stop.load())
      break;

    if (Fds[0].revents & POLLIN) { // drain wake tokens
      char Buf[256];
      while (sys::readRetry(WakePipe[0], Buf, sizeof(Buf)) > 0)
        ;
    }
    for (size_t I = 1; I < FirstConn; ++I)
      if (Fds[I].revents & POLLIN)
        acceptReady(Fds[I].fd);

    for (size_t I = FirstConn; I < Fds.size(); ++I) {
      int Fd = ConnFds[I - FirstConn];
      Conn *C = findConn(Fd);
      if (!C)
        continue;
      if (Fds[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Let a pending read drain first: POLLHUP often accompanies the
        // final bytes of a clean shutdown.
        if (Fds[I].revents & POLLIN)
          readReady(*C);
        if ((C = findConn(Fd)))
          disconnect(*C);
        continue;
      }
      if (Fds[I].revents & POLLIN)
        readReady(*C);
      if ((C = findConn(Fd)) && (Fds[I].revents & POLLOUT))
        writeReady(*C);
    }

    // Flush-and-close: a conn marked WantClose dies once its NAK/verdict
    // bytes are out (or immediately if the buffer is already empty).
    std::vector<int> Doomed;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      for (auto &KV : Conns)
        if (KV.second->WantClose && KV.second->Out.empty())
          Doomed.push_back(KV.first);
    }
    for (int Fd : Doomed)
      if (Conn *C = findConn(Fd))
        disconnect(*C);

    housekeeping();
  }
}

void Server::acceptReady(int ListenFd) {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or a transient accept error: poll again
    }
    std::lock_guard<std::mutex> Lock(Mu);
    if (Conns.size() >= Opts.MaxSessions * 2 + 8) {
      // Connection flood: shed load before allocating anything.
      sys::closeQuiet(Fd);
      continue;
    }
    setNonBlocking(Fd);
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    C->Id = NextConnId++;
    Conns[Fd] = std::move(C);
  }
}

void Server::readReady(Conn &C) {
  if (simulatedEagain())
    return; // poll reports readiness again next iteration
  char Buf[65536];
  for (;;) {
    ssize_t N = sys::readRetry(C.Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      disconnect(C);
      return;
    }
    if (N == 0) {
      // Peer closed. Process what already arrived, then detach.
      uint8_t Kind = 0;
      std::string Payload;
      while (!C.WantClose && C.In.next(Kind, Payload))
        handleFrame(C, Kind, std::move(Payload));
      disconnect(C);
      return;
    }
    C.In.append(Buf, static_cast<size_t>(N));
    if (static_cast<size_t>(N) < sizeof(Buf))
      break; // don't starve other connections
  }

  uint8_t Kind = 0;
  std::string Payload;
  while (!C.WantClose && C.In.next(Kind, Payload))
    handleFrame(C, Kind, std::move(Payload));
  if (C.In.failed()) {
    fatalNak(C, C.In.error());
    return;
  }
  // Slow-loris bookkeeping: a partial frame starts (or keeps) the
  // assembly clock; a clean boundary resets it.
  if (C.In.midFrame()) {
    if (!C.MidFrame) {
      C.MidFrame = true;
      C.FrameStart = Clock::now();
    }
  } else {
    C.MidFrame = false;
  }
}

void Server::writeReady(Conn &C) {
  if (simulatedEagain())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  while (!C.Out.empty()) {
    ssize_t N = sys::writeRetry(C.Fd, C.Out.data(), C.Out.size());
    if (N < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK)
        C.WantClose = true; // EPIPE etc.: drop on next sweep
      return;
    }
    C.Out.erase(0, static_cast<size_t>(N));
  }
}

void Server::handleFrame(Conn &C, uint8_t Kind, std::string Payload) {
  switch (Kind) {
  case HelloKind:
    handleHello(C, Payload);
    return;
  case EventsKind:
  case CheckpointKind:
  case FinishKind: {
    // C.S is reset by workers under Mu (FINISH verdict, session-fatal
    // NAK), so it may only be inspected — let alone dereferenced — while
    // holding the lock: a client that pipelines a frame right behind its
    // FINISH must get a clean NAK, not a torn shared_ptr.
    std::lock_guard<std::mutex> Lock(Mu);
    if (!C.S) {
      fatalNakLocked(C, "protocol error: HELLO required before " +
                            std::to_string(Kind));
      return;
    }
    SessionState &S = *C.S;
    // Hard bound: the advertised credit plus slack for frames already on
    // the wire when an ACK was in flight. Beyond that the client is
    // ignoring flow control.
    if (S.Queue.size() >= Opts.QueueFrames * 2) {
      fatalNakLocked(C, "flow-control violation: " +
                            std::to_string(S.Queue.size()) +
                            " frames queued against a credit of " +
                            std::to_string(Opts.QueueFrames));
      return;
    }
    S.Queue.push_back(PendingFrame{Kind, std::move(Payload)});
    S.LastActivity = Clock::now();
    if (!S.InFlight) {
      S.InFlight = true;
      Ring.push(C.S);
    }
    return;
  }
  default:
    fatalNak(C, "unknown frame kind " + std::to_string(Kind));
  }
}

void Server::handleHello(Conn &C, const std::string &Payload) {
  HelloMsg M;
  std::string Err;
  if (!decodeHello(reinterpret_cast<const uint8_t *>(Payload.data()),
                   Payload.size(), M, Err)) {
    fatalNak(C, Err);
    return;
  }
  if (M.Version != ProtocolVersion) {
    fatalNak(C, "protocol version " + std::to_string(M.Version) +
                    " not supported (server speaks " +
                    std::to_string(ProtocolVersion) + ")");
    return;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  // Checked under Mu: workers reset C.S when they retire a session.
  if (C.S) {
    fatalNakLocked(C, "protocol error: session already established");
    return;
  }
  // A session in the table is live (retiring erases it); a resume may
  // also find the session only in the state directory (e.g. after a
  // supervised restart).
  auto It = Sessions.find(M.Name);
  std::shared_ptr<SessionState> S =
      It == Sessions.end() ? nullptr : It->second;
  if (S && !M.Resume) {
    fatalNakLocked(C, "session '" + M.Name +
                          "' already exists (reconnect with resume)");
    return;
  }
  if (S && (S->ConnId != 0 || S->InFlight)) {
    fatalNakLocked(C, "session '" + M.Name + "' is busy");
    return;
  }
  if (!S && M.Resume && Opts.StateDir.empty()) {
    fatalNakLocked(C, "unknown session '" + M.Name + "'");
    return;
  }
  // The cap applies to resumed sessions too: Ring capacity is sized to
  // MaxSessions + Workers, which only bounds push() if the table never
  // exceeds the cap.
  if (!S && Sessions.size() >= Opts.MaxSessions) {
    fatalNakLocked(C, "session limit reached (" +
                          std::to_string(Opts.MaxSessions) + ")");
    return;
  }
  if (!S) {
    S = std::make_shared<SessionState>();
    S->Key = M.Name;
    S->LastActivity = Clock::now();
  }
  // A session created here has no pipeline yet, so it counts as evicted.
  if (M.Resume) {
    if (S->Sess.evicted() && !restoreSession(*S, Err)) {
      fatalNakLocked(C, "cannot resume session '" + M.Name + "': " + Err);
      return;
    }
  } else {
    SessionConfig Config;
    Config.Name = M.Name;
    Config.BackendSel = M.BackendSel;
    Config.Lenient = M.Lenient;
    Config.Format = static_cast<ReportFormat>(M.Format);
    Config.Limits = M.Limits.any() ? M.Limits : Opts.SessionLimits;
    if (Config.Limits.CheckIntervalEvents == 0)
      Config.Limits.CheckIntervalEvents = GovernorLimits().CheckIntervalEvents;
    if (!S->Sess.configure(Config, Err)) {
      fatalNakLocked(C, Err);
      return;
    }
    ++StatSessions;
  }

  Sessions[M.Name] = S;
  S->ConnId = C.Id;
  C.S = S;
  HelloOkMsg Ok;
  Ok.Events = S->Sess.eventsSeen();
  Ok.Credit = Opts.QueueFrames;
  SymbolTable &Syms = S->Sess.symbols();
  Ok.VarsDone = Syms.Vars.size();
  Ok.LocksDone = Syms.Locks.size();
  Ok.LabelsDone = Syms.Labels.size();
  sendLocked(C, HelloOkKind, encodeHelloOk(Ok));
  if (Opts.Verbose)
    std::fprintf(stderr, "serve: session '%s' %s (%llu events)\n",
                 M.Name.c_str(), M.Resume ? "resumed" : "opened",
                 static_cast<unsigned long long>(Ok.Events));
}

void Server::disconnect(Conn &C) {
  int Fd = C.Fd;
  // The conn is unlinked from the table while holding Mu — workers
  // look conns up under Mu (connLocked), so the erase must not race
  // them. The fd itself is closed after the lock drops so a slow close
  // can't stall the worker pool.
  std::unique_ptr<Conn> Owned;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    detachLocked(C); // a mid-stream disconnect
    auto It = Conns.find(Fd);
    if (It != Conns.end()) {
      Owned = std::move(It->second);
      Conns.erase(It);
    }
  }
  sys::closeQuiet(Fd);
}

void Server::housekeeping() {
  Clock::time_point Now = Clock::now();
  std::vector<int> SlowFds;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Opts.FrameTimeoutMillis != 0)
      for (auto &KV : Conns) {
        Conn &C = *KV.second;
        if (C.MidFrame && !C.WantClose &&
            Now - C.FrameStart >
                std::chrono::milliseconds(Opts.FrameTimeoutMillis))
          SlowFds.push_back(KV.first);
      }
    if (Opts.IdleEvictMillis != 0)
      for (auto &KV : Sessions) {
        SessionState &S = *KV.second;
        if (!S.InFlight && S.Queue.empty() && !S.Sess.evicted() &&
            Now - S.LastActivity >
                std::chrono::milliseconds(Opts.IdleEvictMillis))
          requestEvictLocked(KV.second);
      }
  }
  for (int Fd : SlowFds)
    if (Conn *C = findConn(Fd))
      fatalNak(*C,
               "frame assembly timed out (slow client); reconnect and "
               "resume");
}

Server::Conn *Server::findConn(int Fd) {
  // Only the I/O thread ever inserts or erases conns (both under Mu), so
  // a pointer handed back to the I/O thread stays valid until the I/O
  // thread itself disconnects that conn; the lock orders the lookup
  // against worker iteration of the table in sendFrameLocked.
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Conns.find(Fd);
  return It == Conns.end() ? nullptr : It->second.get();
}

Server::Conn *Server::connLocked(uint64_t Id) {
  for (auto &KV : Conns)
    if (KV.second->Id == Id)
      return KV.second.get();
  return nullptr; // detached: the client learns its position on resume
}

void Server::sendLocked(Conn &C, uint8_t Kind, std::string_view Payload) {
  C.Out += frameBytes(Kind, Payload);
  wakeIo();
}

void Server::requestEvictLocked(const std::shared_ptr<SessionState> &S) {
  S->EvictRequested = true;
  if (!S->InFlight) {
    S->InFlight = true;
    Ring.push(S);
  }
}

void Server::fatalNak(Conn &C, const std::string &Reason) {
  std::lock_guard<std::mutex> Lock(Mu);
  fatalNakLocked(C, Reason);
}

void Server::fatalNakLocked(Conn &C, const std::string &Reason) {
  ++StatNaks;
  sendLocked(C, NakKind, encodeNak({true, Reason}));
  C.WantClose = true;
  // Connection-level failure: the session state is still consistent
  // (only fully processed frames ever reached it), so detach rather than
  // destroy — the client may reconnect and resume.
  detachLocked(C);
}

void Server::detachLocked(Conn &C) {
  if (!C.S)
    return;
  // An attached session is live. With a state directory it is evicted to
  // disk, so it also survives a daemon crash before the client resumes.
  C.S->ConnId = 0;
  C.S->LastActivity = Clock::now();
  if (!Opts.StateDir.empty())
    requestEvictLocked(C.S);
  if (Opts.Verbose)
    std::fprintf(stderr, "serve: session '%s' detached\n", C.S->Key.c_str());
  C.S.reset();
}

void Server::retireLocked(SessionState &S, uint8_t Kind,
                          const std::string &Payload) {
  S.Dead = true;
  Sessions.erase(S.Key);
  if (!Opts.StateDir.empty())
    ::unlink(statePath(S.Key).c_str());
  if (Conn *C = connLocked(S.ConnId)) {
    sendLocked(*C, Kind, Payload);
    C->WantClose = true;
    C->S.reset();
  }
  S.ConnId = 0;
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

void Server::workerLoop() {
  std::shared_ptr<SessionState> S;
  while (Ring.pop(S)) {
    serveSession(std::move(S));
    S.reset();
  }
}

void Server::serveSession(std::shared_ptr<SessionState> S) {
  // Dead is written only under Mu by the worker that holds InFlight, this
  // one, so reading it here needs no lock.
  for (;;) {
    std::vector<PendingFrame> Local;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (S->Dead || (S->Queue.empty() && !S->EvictRequested)) {
        S->EvictRequested = false;
        S->InFlight = false;
        return;
      }
      Local.assign(std::make_move_iterator(S->Queue.begin()),
                   std::make_move_iterator(S->Queue.end()));
      S->Queue.clear();
    }

    if (Local.empty()) { // an eviction request, and nothing queued
      std::string Err;
      const bool Stored = storeSession(*S, /*Evict=*/true, Err);
      if (!Stored)
        std::fprintf(stderr, "serve: cannot evict session '%s': %s\n",
                     S->Key.c_str(), Err.c_str());
      std::lock_guard<std::mutex> Lock(Mu);
      S->EvictRequested = false;
      if (!Stored) // retry after another idle spell, not every poll
        S->LastActivity = Clock::now();
      continue; // re-check the queue before releasing InFlight
    }

    for (const PendingFrame &F : Local) {
      std::string FatalErr;
      if (!processFrame(*S, F, FatalErr)) {
        // Session-fatal fault: it ends this session and nothing else. The
        // daemon and every other session keep running.
        ++StatNaks;
        std::lock_guard<std::mutex> Lock(Mu);
        retireLocked(*S, NakKind, encodeNak({true, FatalErr}));
      }
      if (S->Dead)
        break; // frames pipelined behind the end are dropped
    }
  }
}

bool Server::processFrame(SessionState &S, const PendingFrame &F,
                          std::string &FatalErr) {
  uint64_t FrameNo = StatFrames.fetch_add(1) + 1;

  // Deterministic faults, counted daemon-wide in processing order.
  const FaultPlan &Faults = Opts.Faults;
  if (Faults.KillWorkerAtFrame != 0 && FrameNo == Faults.KillWorkerAtFrame) {
    std::fflush(nullptr);
    ::raise(SIGKILL); // worker crash: the supervisor restarts the daemon
  }
  if (Faults.WedgeAtFrame != 0 && FrameNo == Faults.WedgeAtFrame)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Faults.WedgeMillis));
  if (Faults.EnomemAtFrame != 0 && FrameNo == Faults.EnomemAtFrame) {
    FatalErr = "out of memory processing frame (simulated)";
    return false;
  }

  std::string Err;
  if (S.Sess.evicted() && !restoreSession(S, Err)) {
    FatalErr = "cannot rehydrate session: " + Err;
    return false;
  }

  switch (F.Kind) {
  case EventsKind: {
    std::vector<Event> Events;
    if (!decodeEventsPayload(
            reinterpret_cast<const uint8_t *>(F.Payload.data()),
            F.Payload.size(), S.Sess.symbols(), Events, Err)) {
      FatalErr = "bad events frame: " + Err;
      return false;
    }
    for (const Event &E : Events)
      if (!S.Sess.feed(E, Err)) {
        FatalErr = Err;
        return false;
      }
    break;
  }
  case CheckpointKind:
    if (!storeSession(S, /*Evict=*/false, Err)) {
      FatalErr = "cannot checkpoint session: " + Err;
      return false;
    }
    break;
  case FinishKind: {
    if (!S.Sess.finish(Err)) {
      FatalErr = Err;
      return false;
    }
    VerdictMsg V;
    V.ExitCode = static_cast<uint8_t>(S.Sess.exitCode());
    V.Report = S.Sess.report();
    V.Notes = S.Sess.notes();
    std::lock_guard<std::mutex> Lock(Mu);
    retireLocked(S, VerdictKind, encodeVerdict(V));
    if (Opts.Verbose)
      std::fprintf(stderr, "serve: session '%s' finished (exit %d)\n",
                   S.Key.c_str(), S.Sess.exitCode());
    return true;
  }
  default:
    FatalErr = "unexpected frame kind " + std::to_string(F.Kind) +
               " in session stream";
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Conn *C = connLocked(S.ConnId))
      sendLocked(*C, AckKind,
                 encodeAck({S.Sess.eventsSeen(), Opts.QueueFrames,
                            S.Durable}));
  }

  // The evict fault fires after the frame completes, so the next frame
  // exercises the rehydrate path under load.
  if (Faults.EvictAtFrame != 0 && FrameNo == Faults.EvictAtFrame &&
      !storeSession(S, /*Evict=*/true, Err))
    std::fprintf(stderr, "serve: fault-evict of '%s' failed: %s\n",
                 S.Key.c_str(), Err.c_str());
  return true;
}

bool Server::storeSession(SessionState &S, bool Evict, std::string &Err) {
  // An evicted session is stored already; without a state directory only
  // an eviction keeps its blob, in memory.
  if (S.Sess.evicted() || (!Evict && Opts.StateDir.empty()))
    return true;
  std::string Blob;
  if (Evict ? !S.Sess.evict(Blob, Err) : !S.Sess.snapshot(Blob, Err))
    return false;
  if (Opts.StateDir.empty()) {
    S.MemBlob = std::move(Blob);
  } else {
    SnapshotWriter W;
    W.str(Blob);
    if (!W.writeFile(statePath(S.Key), Err)) {
      // The next frame would rehydrate from an older state file, so a
      // failed eviction keeps the session in memory.
      std::string Ignored;
      if (Evict)
        S.Sess.rehydrate(Blob, Ignored);
      return false;
    }
    S.Durable = S.Sess.eventsSeen();
  }
  if (Evict) {
    ++StatEvictions;
    if (Opts.Verbose)
      std::fprintf(stderr, "serve: session '%s' evicted (%llu events)\n",
                   S.Key.c_str(),
                   static_cast<unsigned long long>(S.Sess.eventsSeen()));
  }
  return true;
}

bool Server::restoreSession(SessionState &S, std::string &Err) {
  std::string Blob = std::exchange(S.MemBlob, std::string());
  const bool FromFile = Blob.empty();
  if (FromFile) {
    if (Opts.StateDir.empty()) {
      Err = "no snapshot available";
      return false;
    }
    SnapshotReader R;
    if (!SnapshotReader::readFile(statePath(S.Key), R, Err))
      return false;
    Blob = R.str();
    if (R.failed()) {
      Err = "corrupt session state file";
      return false;
    }
  }
  if (!S.Sess.rehydrate(Blob, Err))
    return false;
  if (FromFile)
    S.Durable = S.Sess.eventsSeen();
  ++StatRehydrations;
  if (Opts.Verbose)
    std::fprintf(stderr, "serve: session '%s' rehydrated (%llu events)\n",
                 S.Key.c_str(),
                 static_cast<unsigned long long>(S.Sess.eventsSeen()));
  return true;
}

} // namespace serve
} // namespace velo
