//===- serve/Client.h - velodrome-serve protocol client ---------*- C++ -*-===//
//
// Blocking-socket client for the serve wire protocol, used by the load
// generator and the test suite. Also the home of the *client-side* fault
// injection (torn frames, abrupt disconnects, slow-loris dribbling) —
// faults a hostile or unlucky client inflicts on the daemon, as opposed to
// the server-side FaultPlan the daemon inflicts on itself.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SERVE_CLIENT_H
#define VELO_SERVE_CLIENT_H

#include "serve/Wire.h"

#include <cstddef>
#include <string>
#include <vector>

namespace velo {
namespace serve {

/// Client-side fault plan. Frame counts include HELLO.
struct ClientFaults {
  /// After N complete frames, write half of the next frame and close —
  /// the server must discard the partial frame and keep the session
  /// resumable.
  uint64_t TornAfterFrames = 0;
  /// Close the socket abruptly after N complete frames (mid-session
  /// disconnect; no torn bytes).
  uint64_t DisconnectAfterFrames = 0;
  /// Slow-loris: dribble every frame this many bytes per write() with
  /// SlowDelayMillis between writes. 0 = whole frames at once.
  size_t SlowBytesPerWrite = 0;
  unsigned SlowDelayMillis = 0;
};

/// Outcome of one streamed session.
struct RunResult {
  bool GotVerdict = false;
  VerdictMsg Verdict;
  bool GotNak = false;
  NakMsg Nak;
  uint64_t FramesSent = 0; ///< complete frames written (incl. HELLO)
  /// True when a client-side fault cut the stream short (the session may
  /// still be resumable server-side).
  bool FaultTripped = false;
};

class Client {
public:
  Client() = default;
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connectUnix(const std::string &Path, std::string &Err);
  bool connectTcp(int Port, std::string &Err);

  /// Connect-time retry budget in milliseconds. 0 = one attempt. When
  /// set, connectUnix/connectTcp retry "daemon not up yet" failures
  /// (ECONNREFUSED, and ENOENT for a unix socket not created yet) with
  /// exponential backoff until the budget runs out; any other errno
  /// fails immediately. Lets a client start before the daemon.
  unsigned ConnectTimeoutMillis = 0;
  void close();
  bool connected() const { return Fd >= 0; }
  /// Raw socket (tests drive torn/slow frames through it directly).
  int fd() const { return Fd; }

  /// Send HELLO, await HELLO-OK. On a server NAK, returns false with the
  /// refusal reason in Err (and NakOut when non-null).
  bool hello(const HelloMsg &M, HelloOkMsg &Ok, std::string &Err,
             NakMsg *NakOut = nullptr);

  /// Stream Events through the session opened by hello(): skip the
  /// Ok.Events already absorbed, frame EventsPerFrame events at a time
  /// honoring the credit window, CHECKPOINT every CheckpointEveryFrames
  /// events frames (0 = never), then FINISH and await the VERDICT.
  /// Returns false only on a transport/protocol error; a server NAK or a
  /// tripped client fault is reported through R.
  bool run(const SymbolTable &Syms, const std::vector<Event> &Events,
           const HelloOkMsg &Ok, size_t EventsPerFrame,
           uint64_t CheckpointEveryFrames, RunResult &R, std::string &Err);

  ClientFaults Faults;

private:
  /// Frame writer honoring the fault plan. Returns false when the stream
  /// must stop: *Tripped distinguishes an injected fault from a transport
  /// error (Err set only for the latter).
  bool sendFrame(uint8_t Kind, std::string_view Payload, bool &Tripped,
                 std::string &Err);
  bool writeSlice(const char *Data, size_t N, std::string &Err);
  /// One socket()+connect() attempt per call from the retry loop; fills
  /// Fd on success. RetryableOut reports whether the failure looks like
  /// "daemon not up yet".
  bool connectOnce(int Domain, const void *Addr, size_t AddrLen,
                   bool &RetryableOut, std::string &Err);

  int Fd = -1;
  uint64_t FramesOut = 0;
};

} // namespace serve
} // namespace velo

#endif // VELO_SERVE_CLIENT_H
