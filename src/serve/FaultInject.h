//===- serve/FaultInject.h - Deterministic fault injection ------*- C++ -*-===//
//
// The serve robustness contract ("a fault in one session never takes the
// daemon or its neighbors down") is only testable if faults can be raised
// deterministically. This plan is parsed from repeated `--fault-at=` flags
// and/or the VELO_SERVE_FAULT environment variable (comma-separated specs,
// flags win on conflict) and consulted at fixed points in the server:
//
//   kill-worker:N   raise SIGKILL while processing the Nth events/finish
//                   frame (1-based, daemon-wide) — simulates a worker crash;
//                   under --supervise the daemon restarts and sessions
//                   resume from their state-dir snapshots
//   enomem:N        the Nth frame's processing fails as if allocation
//                   failed; that session gets a fatal NAK, others continue
//   eagain:N        every Nth socket read/write first returns as if EAGAIN —
//                   exercises the poll loop's partial-progress paths
//   wedge:N:MS      sleep MS milliseconds while processing the Nth frame —
//                   simulates a backend wedge; the session's governor
//                   deadline turns it into an isolated Unknown verdict
//   evict:N         force-evict the frame's session right after the Nth
//                   frame — exercises snapshot/rehydrate under load
//
// Client-side faults (torn frames, mid-session disconnects, slow-loris
// writes) live in serve/Client.h — they are the peer's misbehavior, not
// the daemon's.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SERVE_FAULTINJECT_H
#define VELO_SERVE_FAULTINJECT_H

#include <cstdint>
#include <string>

namespace velo {
namespace serve {

struct FaultPlan {
  uint64_t KillWorkerAtFrame = 0; ///< 0 = never
  uint64_t EnomemAtFrame = 0;
  uint64_t EagainEveryIo = 0;
  uint64_t WedgeAtFrame = 0;
  uint64_t WedgeMillis = 0;
  uint64_t EvictAtFrame = 0;

  bool any() const {
    return KillWorkerAtFrame || EnomemAtFrame || EagainEveryIo ||
           WedgeAtFrame || EvictAtFrame;
  }
};

/// Parse one comma-separated fault spec ("kill-worker:3,wedge:2:500") into
/// Plan, overriding only the categories the spec mentions. Returns false
/// with Err set on a malformed spec.
bool parseFaultSpec(const std::string &Spec, FaultPlan &Plan,
                    std::string &Err);

/// Fold VELO_SERVE_FAULT (if set) into Plan. Returns false with Err set on
/// a malformed spec, and velodrome-serve then exits 2. The daemon applies
/// it before its --fault-at flags, so the flags win.
bool applyFaultEnv(FaultPlan &Plan, std::string &Err);

} // namespace serve
} // namespace velo

#endif // VELO_SERVE_FAULTINJECT_H
