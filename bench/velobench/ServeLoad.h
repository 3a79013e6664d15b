//===- bench/velobench/ServeLoad.h - Serve load generator -------*- C++ -*-===//
//
// One thread drives every tenant connection through poll(). Each slot runs
// back-to-back sessions of its pre-encoded stream: connect, HELLO, EVENTS
// frames within the credit window, FINISH, VERDICT (the daemon closes the
// connection after the verdict, so every session has its own).
//
// Closed loop: a frame is sent as soon as credit allows, so a slower daemon
// receives less load. Open loop: frames fall due on a fixed schedule at the
// aggregate rate regardless of how the daemon keeps up; each session pauses
// once halfway, with no frame due, long enough for idle eviction. ACK
// latency is timed from each frame's due time, so a stall is charged to
// every frame it delays, and the generator's own lateness is reported.
//
//===----------------------------------------------------------------------===//

#ifndef VELOBENCH_SERVELOAD_H
#define VELOBENCH_SERVELOAD_H

#include <cstdint>
#include <string>
#include <vector>

namespace velobench {

/// One tenant: a session name, its stream as wire-ready EVENTS frames, and
/// the VERDICT a directly fed Session renders for it.
struct TenantStream {
  std::string Name;
  std::vector<std::string> Frames; ///< complete wire frames (header+payload)
  std::vector<uint64_t> FrameEvents;
  std::string WantReport;
  int WantExit = 0;
};

struct LoadPlan {
  std::string Socket;
  double Seconds = 0;   ///< sessions start only within this window
  bool OpenLoop = false;
  double RateEvs = 0;   ///< open loop: aggregate events per second
  double PauseSec = 0;  ///< open loop: mid-session pause
  uint64_t MaxSessionsPerSlot = 0; ///< 0 = unlimited (warm-up uses 1)
};

struct LoadResult {
  struct Ack {
    double At;      ///< arrival, seconds since the plan started
    double Ms;      ///< from due (open loop) or send (closed loop)
    uint64_t Events; ///< events this ACK newly acknowledged
  };
  uint64_t Sessions = 0, Failed = 0;
  uint64_t Frames = 0;
  std::vector<Ack> Acks;
  std::vector<double> LagMs; ///< open loop: due to send
  double CreditWaitSec = 0;  ///< frames due but held back by credit
  std::vector<std::string> Errors; ///< first few failure reasons
};

/// Run the plan against the daemon listening on Plan.Socket. Returns false
/// only for a setup error; per-session failures are counted in R.
bool runLoad(const std::vector<TenantStream> &Tenants, const LoadPlan &Plan,
             LoadResult &R, std::string &Err);

} // namespace velobench

#endif // VELOBENCH_SERVELOAD_H
