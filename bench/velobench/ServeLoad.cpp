//===- bench/velobench/ServeLoad.cpp - velodrome-serve load generator -----===//

#include "ServeLoad.h"

#include "Harness.h"

#include "serve/Wire.h"
#include "support/Syscalls.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace velo;
using namespace velo::serve;

namespace velobench {

namespace {

enum class Phase { Idle, Hello, Streaming, Finished };

struct Slot {
  const TenantStream *T = nullptr;
  int Fd = -1;
  Phase State = Phase::Idle;
  double NextStart = 0;    ///< due time of the next session's HELLO
  double SessionStart = 0; ///< due time of this session's HELLO
  size_t NextFrame = 0;
  bool FinishSent = false;
  uint64_t Credit = 1, InFlight = 0, AckedEvents = 0, Sessions = 0;
  double BlockedSince = -1; ///< a due frame waiting for credit since
  std::deque<double> AckFrom;
  std::string Out;
  FrameSplitter In;
};

bool connectSocket(const std::string &Path, int &Fd, std::string &Err) {
  sockaddr_un Addr = {};
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return false;
  }
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0 || ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr)) != 0) {
    Err = "cannot connect to " + Path + ": " + std::strerror(errno);
    if (Fd >= 0)
      sys::closeQuiet(Fd);
    Fd = -1;
    return false;
  }
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
  return true;
}

} // namespace

bool runLoad(const std::vector<TenantStream> &Tenants, const LoadPlan &Plan,
             LoadResult &R, std::string &Err) {
  R = LoadResult();
  if (Tenants.empty()) {
    Err = "no tenants";
    return false;
  }
  const double SlotRate =
      Plan.OpenLoop ? Plan.RateEvs / static_cast<double>(Tenants.size()) : 0;
  std::vector<Slot> Slots(Tenants.size());
  const double Start = now();
  const double WindowEnd = Start + Plan.Seconds;
  const double Deadline = WindowEnd + 30;
  // Offsets[I][K]: events up to and including frame K of tenant I.
  std::vector<std::vector<uint64_t>> Offsets(Tenants.size());
  for (size_t I = 0; I < Slots.size(); ++I) {
    Slots[I].T = &Tenants[I];
    Slots[I].NextStart = Start;
    uint64_t Sum = 0;
    for (uint64_t N : Tenants[I].FrameEvents)
      Offsets[I].push_back(Sum += N);
  }

  // Open-loop due time of frame K (and of FINISH when K == #frames): one
  // frame interval after the previous frame, plus the pause from the middle
  // frame on.
  auto DueOf = [&](const Slot &S, size_t K) {
    const std::vector<uint64_t> &Off = Offsets[S.T - Tenants.data()];
    double Due = S.SessionStart +
                 static_cast<double>(Off[std::min(K, Off.size() - 1)]) /
                     SlotRate;
    if (K >= Off.size() / 2)
      Due += Plan.PauseSec;
    return Due;
  };

  auto Fail = [&](Slot &S, const std::string &Why) {
    ++R.Failed;
    if (R.Errors.size() < 5)
      R.Errors.push_back(S.T->Name + ": " + Why);
    if (S.Fd >= 0)
      sys::closeQuiet(S.Fd);
    S.Fd = -1;
    S.State = Phase::Idle;
    S.NextStart = now();
  };

  auto StartSession = [&](Slot &S, double T) {
    std::string CErr;
    if (!connectSocket(Plan.Socket, S.Fd, CErr)) {
      ++R.Sessions;
      ++S.Sessions;
      Fail(S, CErr);
      return;
    }
    HelloMsg H;
    H.Name = S.T->Name;
    H.BackendSel = "velodrome";
    S.Out = frameBytes(HelloKind, encodeHello(H));
    S.In = FrameSplitter();
    S.State = Phase::Hello;
    S.SessionStart = Plan.OpenLoop ? S.NextStart : T;
    S.NextFrame = 0;
    S.FinishSent = false;
    S.InFlight = 0;
    S.AckedEvents = 0;
    S.BlockedSince = -1;
    S.AckFrom.clear();
    ++R.Sessions;
    ++S.Sessions;
  };

  for (;;) {
    double T = now();
    bool AnyActive = false;
    for (Slot &S : Slots) {
      if (S.State == Phase::Idle) {
        bool MayStart = T < WindowEnd && (Plan.MaxSessionsPerSlot == 0 ||
                                          S.Sessions < Plan.MaxSessionsPerSlot);
        if (!MayStart) {
          S.State = Phase::Finished;
          continue;
        }
        if (Plan.OpenLoop && T < S.NextStart) {
          AnyActive = true;
          continue;
        }
        StartSession(S, T);
      }
      if (S.State == Phase::Finished)
        continue;
      AnyActive = true;
      const TenantStream &Tn = *S.T;
      if (S.State == Phase::Streaming) {
        while (S.NextFrame < Tn.Frames.size()) {
          double Due = Plan.OpenLoop ? DueOf(S, S.NextFrame) : T;
          if (T < Due)
            break;
          if (S.InFlight >= S.Credit) {
            if (S.BlockedSince < 0)
              S.BlockedSince = std::max(Due, T);
            break;
          }
          if (S.BlockedSince >= 0) {
            if (Plan.OpenLoop)
              R.CreditWaitSec += T - S.BlockedSince;
            S.BlockedSince = -1;
          }
          S.Out += Tn.Frames[S.NextFrame];
          if (Plan.OpenLoop)
            R.LagMs.push_back((T - Due) * 1e3);
          S.AckFrom.push_back(Plan.OpenLoop ? Due : T);
          ++S.InFlight;
          ++S.NextFrame;
          ++R.Frames;
        }
        if (S.NextFrame == Tn.Frames.size() && !S.FinishSent) {
          S.Out += frameBytes(FinishKind, std::string());
          S.FinishSent = true;
        }
      }
      while (!S.Out.empty()) {
        ssize_t N = ::write(S.Fd, S.Out.data(), S.Out.size());
        if (N > 0) {
          S.Out.erase(0, static_cast<size_t>(N));
          continue;
        }
        if (N < 0 && errno == EINTR)
          continue;
        if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          break;
        Fail(S, std::string("write: ") + std::strerror(errno));
        break;
      }
    }
    if (!AnyActive)
      break;
    if (T > Deadline) {
      for (Slot &S : Slots)
        if (S.State == Phase::Hello || S.State == Phase::Streaming)
          Fail(S, "no verdict before the drain deadline");
      break;
    }

    // Sleep until a socket is ready or the next frame falls due.
    double Wake = T + 0.05;
    std::vector<pollfd> Fds;
    std::vector<Slot *> Owners;
    for (Slot &S : Slots) {
      if (Plan.OpenLoop && S.State == Phase::Idle)
        Wake = std::min(Wake, S.NextStart);
      if (Plan.OpenLoop && S.State == Phase::Streaming &&
          S.NextFrame < S.T->Frames.size() && S.InFlight < S.Credit)
        Wake = std::min(Wake, DueOf(S, S.NextFrame));
      if (S.Fd < 0)
        continue;
      short Events = POLLIN;
      if (!S.Out.empty())
        Events |= POLLOUT;
      Fds.push_back({S.Fd, Events, 0});
      Owners.push_back(&S);
    }
    double Wait = std::max(0.0, Wake - now());
    timespec Ts;
    Ts.tv_sec = static_cast<time_t>(Wait);
    Ts.tv_nsec = static_cast<long>((Wait - std::floor(Wait)) * 1e9);
    int N = ::ppoll(Fds.data(), Fds.size(), &Ts, nullptr);
    if (N < 0 && errno != EINTR) {
      Err = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    for (size_t I = 0; N > 0 && I < Fds.size(); ++I) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Slot &S = *Owners[I];
      char Buf[65536];
      ssize_t Got = ::read(S.Fd, Buf, sizeof(Buf));
      if (Got < 0 && (errno == EAGAIN || errno == EINTR))
        continue;
      if (Got <= 0) {
        Fail(S, "connection closed before the verdict");
        continue;
      }
      S.In.append(Buf, static_cast<size_t>(Got));
      uint8_t Kind = 0;
      std::string Payload;
      double Arrived = now();
      while (S.Fd >= 0 && S.In.next(Kind, Payload)) {
        const uint8_t *P = reinterpret_cast<const uint8_t *>(Payload.data());
        std::string DErr;
        if (Kind == HelloOkKind && S.State == Phase::Hello) {
          HelloOkMsg Ok;
          if (!decodeHelloOk(P, Payload.size(), Ok, DErr)) {
            Fail(S, DErr);
            break;
          }
          S.Credit = std::max<uint64_t>(Ok.Credit, 1);
          S.State = Phase::Streaming;
        } else if (Kind == AckKind && !S.AckFrom.empty()) {
          AckMsg A;
          if (!decodeAck(P, Payload.size(), A, DErr)) {
            Fail(S, DErr);
            break;
          }
          R.Acks.push_back({Arrived - Start,
                            (Arrived - S.AckFrom.front()) * 1e3,
                            A.Events - S.AckedEvents});
          S.AckFrom.pop_front();
          --S.InFlight;
          if (A.Credit)
            S.Credit = A.Credit;
          S.AckedEvents = A.Events;
        } else if (Kind == VerdictKind && S.FinishSent) {
          VerdictMsg V;
          if (!decodeVerdict(P, Payload.size(), V, DErr)) {
            Fail(S, DErr);
            break;
          }
          if (V.Report != S.T->WantReport || V.ExitCode != S.T->WantExit) {
            Fail(S, "VERDICT differs from the directly fed Session");
            break;
          }
          sys::closeQuiet(S.Fd);
          S.Fd = -1;
          S.State = Phase::Idle;
          S.NextStart = Plan.OpenLoop ? DueOf(S, S.T->Frames.size()) : now();
        } else if (Kind == NakKind) {
          NakMsg M;
          decodeNak(P, Payload.size(), M, DErr);
          Fail(S, "NAK: " + M.Reason);
          break;
        } else {
          Fail(S, "unexpected frame kind " + std::to_string(Kind));
          break;
        }
      }
      if (S.Fd >= 0 && S.In.failed())
        Fail(S, "bad frame from the daemon: " + S.In.error());
    }
  }
  return true;
}

} // namespace velobench
