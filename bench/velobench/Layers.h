//===- bench/velobench/Layers.h - Traced in-process runs --------*- C++ -*-===//
//
// The per-layer half of velobench. A traced run drives each module's
// public functions in-process, in the order velodrome-check's sequential
// loop (or the serve daemon, for one session) calls them, batch-major: 4096
// events pass through one layer before the next layer sees them, so the
// clock is read once per layer per batch rather than per event (a serve
// pass goes frame by frame, 4096 events each). Each call is wrapped in a
// span; a layer's self time is its spans' durations minus their children's.
//
// A traced run counts only when it renders a report byte-identical to the
// real tool's output for the same job, which is what ties the layer numbers
// to the end-to-end ones.
//
//===----------------------------------------------------------------------===//

#ifndef VELOBENCH_LAYERS_H
#define VELOBENCH_LAYERS_H

#include "events/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace velobench {

/// Layer (span) names. "pass" is the root of one traced pass and is not a
/// layer. On a serve pass, events.decode is the daemon's decode of EVENTS
/// frame payloads, and sanitizing and analysis happen inside
/// serve.session.feed.
namespace layer {
inline constexpr const char *Pass = "pass";
inline constexpr const char *Decode = "events.decode";
inline constexpr const char *Sanitize = "events.sanitize";
inline constexpr const char *Classify = "staticpass.classify";
inline constexpr const char *Filter = "staticpass.filter";
inline constexpr const char *Backend = "analysis.backend";
inline constexpr const char *Render = "report.render";
inline constexpr const char *Parallel = "parallel.pipeline";
inline constexpr const char *Encode = "serve.wire.encode";
inline constexpr const char *Configure = "serve.session.configure";
inline constexpr const char *Feed = "serve.session.feed";
inline constexpr const char *Evict = "serve.session.evict";
inline constexpr const char *Rehydrate = "serve.session.rehydrate";
inline constexpr const char *Finish = "serve.session.finish";
} // namespace layer

/// In-memory span recorder. Disabled, it never reads the clock, which is
/// how the untraced twin of a traced pass runs the identical code.
class Tracer {
public:
  struct Span {
    const char *Name;
    double Start, End;
    int32_t Parent; ///< index of the enclosing span, -1 for a root
    uint32_t Run;
  };

  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Index = -1;
  };

  void setEnabled(bool On) { Enabled = On; }
  /// Start a new run id; spans opened afterwards belong to it.
  uint32_t beginRun() { return ++CurRun; }

  /// Self seconds per span name over one run.
  std::map<std::string, double> selfTimes(uint32_t Run) const;

  /// Write every span as one JSON object per line.
  bool writeJsonl(const std::string &Path, std::string &Err) const;

private:
  bool Enabled = false;
  uint32_t CurRun = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Work counted at the layer boundaries of one traced pass.
struct LayerCounts {
  uint64_t Decoded = 0;
  uint64_t Offered = 0, Kept = 0; ///< reduction filter
  uint64_t Delivered = 0;         ///< events onEvent'ed to the delivery set
  uint64_t GraphAllocated = 0, GraphMaxAlive = 0, GraphEdges = 0,
           GraphMerged = 0;
  uint64_t ReportBytes = 0;
  uint64_t PipelineBatches = 0, ReaderRingHigh = 0, WorkerRingHigh = 0;
  uint64_t PipelineEvents = 0;
  double PipelineWall = 0;
  uint64_t WireBytes = 0, WireEvents = 0, SnapshotBytes = 0;
};

/// One velodrome-check invocation, as both an argv and an in-process plan.
struct CheckJob {
  std::string Trace;   ///< path exactly as passed to the tool
  std::string Backend; ///< "velodrome" or "aero"
  std::string Format;  ///< "text", "json" or "sarif"
  bool UnlimitedWarnings = false; ///< --max-warnings=0
  bool Reduce = false;            ///< --reduce=all
  bool Parallel = false;          ///< --parallel
  uint64_t Events = 0;            ///< events in the trace

  std::vector<std::string> argv(const std::string &Tool) const;
};

/// The job in-process: velodrome-check's sequential loop (classify sweep
/// first under Reduce), then, under Parallel, a ParallelPipeline run whose
/// report must match. Report/Exit are what the tool would print/return.
bool runCheckInProcess(const CheckJob &J, Tracer &T, LayerCounts &C,
                       std::string &Report, int &Exit, std::string &Err);

/// One serve session in-process, as the daemon runs it: the client's wire
/// encoding, then a serve::Session configured for Velodrome that decodes
/// and feeds every frame, is evicted and rehydrated before the middle frame
/// (the workload's pause), and finishes with the VERDICT report under
/// session name Name.
bool runServeInProcess(const std::string &Name, const velo::Trace &Stream,
                       size_t FrameEvents, Tracer &T, LayerCounts &C,
                       std::string &Report, int &Exit, std::string &Err);

/// Verdict of the checker independent of the job's (Theorem 1: Velodrome
/// and AeroDrome agree on every trace): AeroDrome judges Velodrome jobs and
/// Velodrome judges AeroDrome jobs. False with Err when the trace is not
/// strictly well formed.
bool independentViolation(const velo::Trace &T, const std::string &JobBackend,
                          bool &Violation, std::string &Err);

} // namespace velobench

#endif // VELOBENCH_LAYERS_H
